"""BENCHMARK.json follows the benchmark contract and agrees with spec.py."""

import json
import re

import spec
import trace
from conftest import REPO

DOC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A full pass makes 4 runs plus 22 per workload and must end within FULL_PASS_S.
FULL_PASS_S = 3420
RUN_OVERHEAD_S = 10  # probe, set-up, the last cycle's overrun and output checks


def test_keys_and_command():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads_match_spec():
    assert [w["name"] for w in DOC["workloads"]] == list(spec.BENCHMARKED)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == spec.WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_metrics_match_spec():
    assert DOC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in spec.END_TO_END
    ]
    assert DOC["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER]


def test_names_units_and_bounds_are_well_formed():
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]] + [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(DOC)) <= 64 * 1024


def test_a_full_pass_fits_its_time_budget():
    runs = 4 + 22 * len(DOC["workloads"])
    assert runs * (DOC["run_seconds"] + RUN_OVERHEAD_S) <= FULL_PASS_S


def test_per_layer_mapping_names_real_metrics_and_workloads():
    e2e = {m.name for m in spec.END_TO_END}
    for m in spec.PER_LAYER:
        assert set(m.moves) <= e2e, m.name
        assert set(m.workloads) <= set(spec.ALL_WORKLOADS), m.name
        assert bool(m.moves) == bool(m.workloads), m.name


def test_traced_run_computes_exactly_the_per_layer_metrics():
    computed = trace.per_layer_metrics(trace.Tracer(), import_s=0.1, overhead_ratio=1.0)
    assert set(computed) == {m.name for m in spec.PER_LAYER}
