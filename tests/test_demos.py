"""The narrative demos run end to end, each in its own interpreter, against
this checkout's sources, and the lines that carry their verdicts are
checked: the equivalences of demo 04, and the monad laws and the replayed
witness of demo 05.  Demo 03 prints the same bytes under two hash seeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_the_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


def _run(demo, **env):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    if demo.name.startswith("04"):
        lines = proc.stdout.splitlines()
        reports = [line for line in lines if line.startswith("theorem: ")]
        verdicts = [line for line in lines if line.startswith("equivalence: ")]
        assert len(reports) == 7
        assert verdicts == ["equivalence: holds"] * len(reports)
    if demo.name.startswith("05"):
        lines = proc.stdout.splitlines()
        start = lines.index("== monad laws ==") + 1
        monad_lines = lines[start : lines.index("", start)]
        assert [line.split()[:2] for line in monad_lines] == [
            [kind, "healthy"]
            for kind in ("powerset", "lift_powerset", "subdist", "dist", "up_powerset", "cv_dist")
        ]
        assert "  witness replays to a strict violation: True" in lines


def test_demo_03_prints_the_same_bytes_under_any_hash_seed():
    # a set's order follows the string hash, and with it the seed; the demo
    # prints its sets in carrier order
    demo = next(d for d in DEMOS if d.name.startswith("03"))
    first, second = (_run(demo, PYTHONHASHSEED=seed).stdout for seed in ("1", "2"))
    assert first == second
