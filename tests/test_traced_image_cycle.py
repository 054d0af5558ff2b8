"""The image cycle under perfbench's tracer: every exercised layer is reached, and
tracing changes no artifact byte.

perfbench/tests guards the TDB cycle the same way; `perfbench/run.py --trace 1`
fails on synth64 when a traced name loses its calls or its binding, so this
catches such a move in tier 1. The harness is imported as its own tests do.
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import trace  # noqa: E402

from imgmine.cli import main  # noqa: E402


def test_traced_image_cycle_reaches_every_image_layer_and_keeps_every_byte(tmp_path, monkeypatch):
    assert Path(trace.__file__).parent == BENCH  # not the standard library's trace
    # One CPU: a forked helper's calls would not reach this process's tracer.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    w = spec.WORKLOADS["synth64"]
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "inputs", "--per-class", "4", "--seed", "7"]) == 0
    ledger, tracer = run.Ledger(), trace.Tracer()
    for out in ("plain", "traced"):
        Path(out).mkdir()
        for name, _, argv in run.commands(w, "inputs", out):
            if out == "plain":
                assert run._inprocess(main, argv, ledger, f"untraced {name}") is not None
                continue
            tracer.install()
            try:
                with tracer.root(f"cli.{name}", f"small:{name}"):
                    assert run._inprocess(main, argv, ledger, f"traced {name}") is not None
            finally:
                tracer.uninstall()
    assert run.check_outputs(w, Path("inputs"), Path("traced"), ledger) is not None
    assert all(op["ok"] for op in ledger.ops), ledger.ops
    assert trace.missing_layers(tracer, spec.EXERCISED["image"]) == []
    assert inputs.file_digests(Path("traced")) == inputs.file_digests(Path("plain"))
    metrics = trace.per_layer_metrics(tracer, import_s=0.1, overhead_ratio=1.0)
    assert metrics["edge.edge_pixels_per_image"] > 0 and metrics["segment.regions_per_image"] > 0
