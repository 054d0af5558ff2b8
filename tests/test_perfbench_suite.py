"""perfbench's own unit tests, run as part of this suite.

The tracer wraps package functions by name and reads the shape of their
results, so a rename, a moved binding or a changed result breaks perfbench
before any benchmark run would show it. test_bench_run.py stays out: it
rewrites the benchmark's run directory, .perfbench_runs/dense-tdb/.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_perfbench_unit_tests_pass(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests",
         "--ignore=perfbench/tests/test_bench_run.py", f"--basetemp={tmp_path / 'perfbench'}"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert " passed" in proc.stdout
