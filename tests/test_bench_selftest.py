"""The benchmark's self-tests (``bench/selftest.py``) as part of the suite:
they run every workload at tiny sizes under the span wrappers, so a change
to the package that breaks a traced layer or a pinned gate fails here, not
only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_exits_zero():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300, cwd=SELFTEST.parent
    )
    assert done.returncode == 0, done.stdout + done.stderr
