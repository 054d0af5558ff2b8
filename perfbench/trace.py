"""In-process tracing of imgmine's layers, from outside the package.

Tracer.install() replaces each traced function in every imgmine module that
binds it, so calls through `from .x import y` copies are seen too. Most
functions get one span per call (name, start, end, parent span, trace id);
the hot ones in HOT get a call counter and summed time instead. Spans stay
in memory until the run writes them out. Nothing under src/ changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

PACKAGE = "imgmine"

# Layers, in the order a pixel travels through them.
LAYERS = ("cli", "raster", "prep", "edge", "segment", "pipeline", "fpm", "harc", "metrics")

SPANNED = (
    "raster.read_pgm",
    "prep.equalize",
    "prep.align_peak",
    "prep.median3x3",
    "edge.gradients",
    "edge.non_max_suppress",
    "edge.hysteresis",
    "segment.extract_regions",
    "segment.glcm_features",
    "segment.image_to_transaction",
    "segment.read_tdb_csv",
    "segment.write_tdb_csv",
    "pipeline.preprocess_image",
    "pipeline.detect_edges",
    "pipeline.image_feature_vectors",
    "pipeline.image_transaction",
    "fpm.frequent_items",
    "fpm.build_fp_tree",
    "fpm.mine_mfi",
    "fpm.frequent_closure",
    "fpm.generate_rules",
    "fpm.with_class_items",
    "fpm.coarse_collapsed",
    "fpm.mine_frequent_family",
    "fpm.mine_class_rules",
    "harc.train",
    "harc.induce_tree",
    "harc.model_to_json",
    "harc.model_from_json",
    "metrics.report",
)
HOT = ("fpm.itemset_support", "harc.gain", "harc.classify", "segment.quantize")


def _fp_tree_nodes(tree):
    return sum(1 for entry in tree.header for _ in entry.chain())


def _decision_nodes(node):
    if hasattr(node, "on_true"):
        return 1 + _decision_nodes(node.on_true) + _decision_nodes(node.on_false)
    return 1


def _observe(name, result, counters):
    """Output counts read off a traced call's result."""

    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    if name == "edge.hysteresis":
        add("edge_pixels", int(result.bits.sum()))
    elif name == "segment.extract_regions":
        add("regions", len(result))
    elif name == "pipeline.image_feature_vectors":
        add("no_object", int(not result))
    elif name == "pipeline.image_transaction":
        add("no_object", int(tuple(result.items) == (999,)))
    elif name == "segment.read_tdb_csv":
        add("tdb_rows", len(result))
        add("tdb_items", sum(len(t.items) for t in result.transactions))
    elif name == "fpm.frequent_items":
        add("frequent_items", len(result))
    elif name == "fpm.build_fp_tree":
        add("fp_tree_nodes", _fp_tree_nodes(result))
    elif name == "fpm.mine_mfi":
        add("mfi", len(result))
    elif name == "fpm.frequent_closure":
        add("closure_itemsets", len(result))
    elif name == "fpm.mine_class_rules":
        counters["rules"] = max(counters.get("rules", 0), len(result[0]))
    elif name == "harc.train":
        counters["decision_nodes"] = _decision_nodes(result.tree)
        counters["attributes"] = len(result.attributes)


@dataclass
class Span:
    id: int  # index in Tracer.spans
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and hot calls
    raised: bool = False

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.trace_id = ""
        self.hot = {name: [0, 0.0] for name in HOT}  # name -> [calls, seconds]
        self.hot_under = {}  # (hot name, enclosing span name) -> calls
        self.counters = {}
        self._patched = []  # (module, attribute, original)
        self._originals = {}  # qualified name -> original, filled by install()

    # --- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, self.trace_id, parent and parent.id, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, raised=False):
        span.end = time.perf_counter()
        span.raised = raised
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    @contextmanager
    def root(self, name, trace_id):
        """Span around one whole CLI command; its self time is the CLI's own."""
        self.trace_id = trace_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, raised=True)
                raise
            self._close(span)
            _observe(name, result, self.counters)
            return result

        return traced

    def _hot_wrapper(self, name, fn):
        agg = self.hot[name]

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg[0] += 1
                agg[1] += dt
                if self.stack:
                    top = self.stack[-1]
                    top.child_s += dt
                    key = (name, top.name)
                    self.hot_under[key] = self.hot_under.get(key, 0) + 1

        return counted

    # --- installing wrappers -------------------------------------------------

    def modules(self):
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def originals(self):
        """{qualified name: original function} for every traced function."""
        out = {}
        for qual in SPANNED + HOT:
            mod, attr = qual.split(".")
            out[qual] = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), attr)
        return out

    def install(self):
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module the CLI uses
        self._originals = self.originals()
        wrappers = {
            id(fn): (self._hot_wrapper(q, fn) if q in HOT else self._span_wrapper(q, fn))
            for q, fn in self._originals.items()
        }
        for module in self.modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def unwrapped_bindings(self):
        """(module, attribute) pairs still bound to an original traced function."""
        ids = {id(fn) for fn in self._originals.values()}
        return [
            (module.__name__, attr)
            for module in self.modules()
            for attr, value in vars(module).items()
            if id(value) in ids
        ]

    # --- results ----------------------------------------------------------------

    def totals(self):
        """name -> {"calls", "seconds", "self_s", "raised"} over spans and hot counters."""
        out = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_s": 0.0, "raised": 0})
            t["calls"] += 1
            t["seconds"] += s.end - s.start
            t["self_s"] += s.self_s
            t["raised"] += s.raised
        for name, (calls, seconds) in self.hot.items():
            out[name] = {"calls": calls, "seconds": seconds, "self_s": seconds, "raised": 0}
        return out

    def outermost_seconds(self, name):
        """Summed time of the spans of `name` not nested in another span of `name`."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == name and (s.parent is None or self.spans[s.parent].name != name)
        )

    def span_records(self):
        return [dict(asdict(s), self_s=s.self_s) for s in self.spans]


def per_layer_metrics(tracer: Tracer, import_s: float, overhead_ratio: float) -> dict:
    """The per-layer metrics of spec.PER_LAYER, computed from one traced pass.

    Times and counts are totals over the traced commands unless the name
    says per image, per region or per call. A layer the pass did not reach
    reads 0.
    """
    tot = tracer.totals()
    c = tracer.counters

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def ms(name):
        return 1000.0 * tot.get(name, {}).get("seconds", 0.0)

    def per(value, base):
        return value / base if base else 0.0

    images = calls("pipeline.image_feature_vectors") + calls("pipeline.image_transaction")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in tot.items():
        layer_self[name.split(".")[0]] += t["self_s"]
    support_in_search = tracer.hot_under.get(("fpm.itemset_support", "fpm.mine_mfi"), 0)

    m = {
        "trace.overhead_ratio": overhead_ratio,
        "cli.import_s": import_s,
    }
    for cmd in ("features", "mine", "train", "classify", "evaluate"):
        m[f"cli.{cmd}.s"] = tot.get(f"cli.{cmd}", {}).get("self_s", 0.0)
    for layer in ("cli", "raster", "prep", "edge", "segment", "pipeline", "fpm", "harc"):
        m[f"{layer}.self_s"] = layer_self[layer]
    for name in (
        "raster.read_pgm", "prep.median3x3", "edge.gradients", "edge.non_max_suppress",
        "edge.hysteresis", "segment.extract_regions",
    ):
        m[f"{name}.ms_per_image"] = per(ms(name), calls(name))
    m["edge.edge_pixels_per_image"] = per(c.get("edge_pixels", 0), calls("edge.hysteresis"))
    m["segment.regions_per_image"] = per(c.get("regions", 0), calls("segment.extract_regions"))
    glcm = calls("segment.glcm_features")
    m["segment.glcm_features.ms_per_region"] = per(ms("segment.glcm_features"), glcm)
    m["segment.glcm_features.ok_ratio"] = per(glcm - tot.get("segment.glcm_features", {}).get("raised", 0), glcm)
    m["segment.quantize.calls"] = calls("segment.quantize")
    m["segment.no_object_ratio"] = per(c.get("no_object", 0), images)
    for name in ("pipeline.image_feature_vectors", "pipeline.image_transaction"):
        m[f"{name}.ms_per_image"] = per(ms(name), calls(name))
    m["pipeline.self_ms_per_image"] = per(1000.0 * layer_self["pipeline"], images)
    m["segment.read_tdb_csv.ms"] = ms("segment.read_tdb_csv")
    m["segment.write_tdb_csv.ms"] = ms("segment.write_tdb_csv")
    m["segment.items_per_transaction"] = per(c.get("tdb_items", 0), c.get("tdb_rows", 0))
    m["fpm.frequent_items.ms"] = ms("fpm.frequent_items")
    m["fpm.frequent_items.count"] = c.get("frequent_items", 0)
    m["fpm.build_fp_tree.ms"] = ms("fpm.build_fp_tree")
    m["fpm.tree_nodes"] = c.get("fp_tree_nodes", 0)
    m["fpm.mine_mfi.ms"] = ms("fpm.mine_mfi")
    m["fpm.mfi_count"] = c.get("mfi", 0)
    m["fpm.itemset_support.calls"] = calls("fpm.itemset_support")
    m["fpm.itemset_support.ms"] = ms("fpm.itemset_support")
    m["fpm.mine_mfi.useful_ratio"] = per(c.get("mfi", 0), support_in_search)
    m["fpm.frequent_closure.ms"] = ms("fpm.frequent_closure")
    m["fpm.frequent_closure.itemsets"] = c.get("closure_itemsets", 0)
    m["fpm.generate_rules.ms"] = ms("fpm.generate_rules")
    m["fpm.rules"] = c.get("rules", 0)
    m["fpm.mine_class_rules.ms"] = ms("fpm.mine_class_rules")
    m["fpm.mine_class_rules.calls"] = calls("fpm.mine_class_rules")
    m["harc.train.ms"] = ms("harc.train")
    m["harc.induce_tree.ms"] = 1000.0 * tracer.outermost_seconds("harc.induce_tree")
    m["harc.gain.calls"] = calls("harc.gain")
    m["harc.tree_nodes"] = c.get("decision_nodes", 0)
    m["harc.attributes"] = c.get("attributes", 0)
    m["harc.model_from_json.ms"] = ms("harc.model_from_json")
    m["harc.classify.us_per_call"] = per(1e6 * tot["harc.classify"]["seconds"], calls("harc.classify"))
    return m


def missing_layers(tracer: Tracer, exercised) -> list:
    """Names in `exercised` that recorded no call in this pass."""
    tot = tracer.totals()
    return [name for name in exercised if tot.get(name, {}).get("calls", 0) == 0]
