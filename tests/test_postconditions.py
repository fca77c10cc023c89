"""The postcondition tests again, with asserts compiled out (python -O).

The engine, the driver and the split search check their postconditions
with explicit raises, so the tests that break each postcondition on
purpose must pass in an optimized interpreter too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

POSTCONDITION_TESTS = [
    "tests/test_basesets.py::test_base_sets_postcondition_raises_with_trace",
    "tests/test_basesets.py::test_base_sets_postcondition_raises_below_full_rank",
    "tests/test_basesets.py::test_process_r_postcondition_raises",
    "tests/test_splits.py::test_find_good_split_postcondition_raises",
    "tests/test_splits.py::test_find_good_split_cross_checks_the_kernel_count",
]


def test_postconditions_raise_under_python_O():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *POSTCONDITION_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(POSTCONDITION_TESTS)} passed" in proc.stdout, proc.stdout
