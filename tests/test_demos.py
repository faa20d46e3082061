"""The narrative demos run end to end, each in its own interpreter, against
this checkout's sources.  Demo 05 (about 10 s of law suites) is left to
the acceptance criteria that cover the same checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("04"):
        lines = proc.stdout.splitlines()
        reports = [line for line in lines if line.startswith("theorem: ")]
        verdicts = [line for line in lines if line.startswith("equivalence: ")]
        assert len(reports) == 7
        assert verdicts == ["equivalence: holds"] * len(reports)
