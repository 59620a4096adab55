"""The benchmark harness's own self-test, run as part of the test suite:
traced and untraced runs must agree bitwise, counts must repeat, every
wrapped name must be restored, and each workload check must catch a broken
run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELFTEST = ROOT / "bench" / "selftest.py"


def test_bench_selftest_passes():
    # bench/bootstrap.py imports both to record their versions
    pytest.importorskip("scipy")
    pytest.importorskip("sympy")
    done = subprocess.run([sys.executable, str(SELFTEST)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
