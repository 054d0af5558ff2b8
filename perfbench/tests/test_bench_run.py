"""run.py end to end, as separate processes (each test takes several seconds)."""

import json
import shutil
import statistics
import subprocess
import sys

import run
from conftest import BENCH, REPO


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_dense_tdb_completes_on_two_seeds():
    # Mining cost grows exponentially with transaction density, so check that
    # more than one seed finishes, not just the one a change was tuned on.
    for seed in ("1", "2"):
        proc = _run(REPO, "--workload", "dense-tdb", "--seed", seed, "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # Each cycle's wall times are scaled by the median kernel time of that cycle.
        detail = json.loads((REPO / ".perfbench_runs" / "dense-tdb" / "result.json").read_text())["detail"]
        scales = detail["wall_to_reference_scales"]["cycles"]
        kernels = detail["kernel_s"]
        assert min(run.REF_KERNEL_S / k for k in kernels) <= min(scales)
        assert max(scales) <= max(run.REF_KERNEL_S / k for k in kernels)
        walls = detail["wall_samples"]["model_s"]
        assert detail["samples"]["model_s"] == [w * s for w, s in zip(walls, scales)]
        assert result["metrics"]["model_s"]["value"] == statistics.median(detail["samples"]["model_s"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "synth64", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
