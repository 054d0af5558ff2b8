"""The tracer wraps every binding of each traced function and fails on a silent layer."""

import importlib

import spec
import trace


def test_every_traced_name_exists_in_the_program():
    originals = trace.Tracer().originals()
    assert set(originals) == set(trace.SPANNED + trace.HOT)
    assert all(callable(fn) for fn in originals.values())


def test_install_replaces_every_binding_and_uninstall_restores_it():
    tracer = trace.Tracer()
    mod = {name: importlib.import_module(f"imgmine.{name}") for name in ("cli", "fpm", "harc", "pipeline", "edge")}
    before = {
        ("harc", "mine_class_rules"): mod["harc"].mine_class_rules,
        ("pipeline", "gradients"): mod["pipeline"].gradients,
        ("cli", "quantize"): mod["cli"].quantize,
        ("cli", "read_pgm"): mod["cli"].read_pgm,
    }
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        for (m, attr), original in before.items():
            assert getattr(mod[m], attr) is not original, f"{m}.{attr} still bound to the original"
        assert mod["harc"].mine_class_rules is mod["fpm"].mine_class_rules
        assert mod["pipeline"].gradients is mod["edge"].gradients
    finally:
        tracer.uninstall()
    for (m, attr), original in before.items():
        assert getattr(mod[m], attr) is original


def test_traced_tdb_cycle_reaches_every_tdb_layer(traced_tdb_run):
    _, tracer, ledger = traced_tdb_run
    assert all(op["ok"] for op in ledger.ops)
    assert trace.missing_layers(tracer, spec.EXERCISED["tdb"]) == []
    metrics = trace.per_layer_metrics(tracer, import_s=0.1, overhead_ratio=1.0)
    assert metrics["fpm.itemset_support.calls"] > 0
    assert metrics["fpm.mine_class_rules.calls"] == 2  # mine and train each mine again
    assert 0 < metrics["fpm.mine_mfi.useful_ratio"] <= 1
    assert metrics["harc.gain.calls"] > 0 and metrics["harc.tree_nodes"] >= 1
    assert metrics["cli.mine.s"] > 0 and metrics["cli.features.s"] == 0


def test_a_layer_with_no_calls_is_reported_missing(traced_tdb_run):
    _, tracer, _ = traced_tdb_run
    assert "raster.read_pgm" in trace.missing_layers(tracer, spec.EXERCISED["image"])


def test_spans_nest_and_self_times_add_up(traced_tdb_run):
    _, tracer, _ = traced_tdb_run
    spans = tracer.span_records()
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.mine", "cli.train", "cli.classify"]
    assert len({s["trace"] for s in roots}) == 3
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["self_s"] >= -1e-6
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert s["trace"] == parent["trace"]
    total_self = sum(s["self_s"] for s in spans) + sum(sec for _, sec in tracer.hot.values())
    total_root = sum(s["end"] - s["start"] for s in roots)
    assert abs(total_self - total_root) < 1e-6 * len(spans) + 1e-9
