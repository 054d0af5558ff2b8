import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import trace  # noqa: E402

# A dense-tdb shaped workload small enough to mine in well under a second.
SMALL_TDB = replace(spec.WORKLOADS["dense-tdb"], n_train=60, n_heldout=30)


@pytest.fixture(scope="session")
def traced_tdb_run(tmp_path_factory):
    """Small TDB inputs, the TDB cycle run in-process under a Tracer.

    Returns (run directory, tracer, ledger); artifacts are under out/.
    """
    from imgmine.cli import main
    from imgmine.segment import encode_item

    run_dir = tmp_path_factory.mktemp("tdb")
    inputs.write_tdb_inputs(run_dir / "inputs", 7, SMALL_TDB, encode_item)
    (run_dir / "out").mkdir()
    ledger = run.Ledger()
    tracer = trace.Tracer()
    tracer.install()
    try:
        with contextlib.chdir(run_dir):
            for name, _, argv in run.commands(SMALL_TDB, "inputs", "out"):
                with tracer.root(f"cli.{name}", f"small:{name}"):
                    assert run._inprocess(main, argv, ledger, name) is not None, ledger.ops
    finally:
        tracer.uninstall()
    return run_dir, tracer, ledger
