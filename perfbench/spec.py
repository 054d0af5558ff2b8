"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

BENCHMARK.json at the repository root repeats the BENCHMARKED workloads and
the metrics in the fixed format the benchmark contract allows;
perfbench/tests/test_bench_spec.py keeps the two in step. This file adds what that format has no room for:
each workload's parameters, which end-to-end metrics apply to which
workload, and for every per-layer metric the end-to-end metric and the
workloads it is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

IMAGE_WORKLOADS = ("synth64", "large256")
TDB_WORKLOADS = ("dense-tdb", "wide-tdb")
ALL_WORKLOADS = IMAGE_WORKLOADS + TDB_WORKLOADS


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "image" | "tdb"
    why: str
    # image workloads
    per_class: int = 0
    size: int = 0
    # tdb workloads
    n_train: int = 0
    n_heldout: int = 0
    max_regions: int = 0
    minsup: float = 0.0
    minconf: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synth64",
            kind="image",
            why="300 shipped-synth 64x64 images: the README path at paper scale; "
            "per-image pixel chain dominates, mining is sparse, fixed per-call cost counts",
            per_class=100,
            size=64,
        ),
        Workload(
            name="large256",
            kind="image",
            why="30 own-rendered 256x256 images, one lesion each: 16x the pixel area "
            "with trivial mining, shows whether a pixel change scales with area",
            per_class=10,
            size=256,
        ),
        Workload(
            name="dense-tdb",
            kind="tdb",
            why="150 labelled transactions of 1-2 regions (6 or 10 items), minsup 0.10: "
            "bound by the fpm top-down search and its support queries; no pixel work",
            n_train=150,
            n_heldout=300,
            max_regions=2,
            minsup=0.10,
            minconf=0.6,
        ),
        Workload(
            name="wide-tdb",
            kind="tdb",
            why="4000 one-region transactions, minsup 0.05: long header chains, tree "
            "build and scans do real work, and harc tree induction is a large share",
            n_train=4000,
            n_heldout=1000,
            max_regions=1,
            minsup=0.05,
            minconf=0.6,
        ),
    )
}

# The workloads BENCHMARK.json lists: the ones every comparison runs. A full
# pass is 4 runs plus 22 per workload and must end within 3420 s. On a shared
# 2-CPU host a run needs about six model builds for its median to repeat, and
# a synth64 cycle takes about 8 s, so two workloads of 50 s runs fit. They give
# each planned change one workload that exercises it and one that bypasses it:
# synth64 is pixel-bound with sparse mining, dense-tdb is mining-bound with no
# pixel work. large256 and wide-tdb stay runnable by name, for a change that
# needs to see pixel work at 16x the area or long FP-tree header chains.
BENCHMARKED = ("synth64", "dense-tdb")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end: allowed worsening, as a share of the parent's median
    moves: tuple = ()  # per-layer: the end-to-end metrics it should move
    # End-to-end: the workloads the metric means something on (every run reports
    # it). Per-layer: the workloads where it should move `moves`; empty for an
    # output count that no optimisation should change.
    workloads: tuple = ALL_WORKLOADS
    note: str = ""


END_TO_END = (
    # The three timings are in reference seconds (see run.py): wall time scaled
    # by how long a fixed kernel took in the same run, so host drift cancels.
    Metric("setup_s", "s", "lower", 0.25, note="median of repeated input generation: "
           "the imgmine synth child on synth64, the benchmark's own generators elsewhere"),
    Metric("model_s", "s", "lower", 0.25, note="summed time of the children that build "
           "the model: features+mine+train on images, mine+train on TDBs; median over cycles"),
    Metric("classify_per_s", "1/s", "higher", 0.25, workloads=IMAGE_WORKLOADS,
           note="inputs per second of one classify child, start-up and model load included; "
           "on TDB workloads it is held-out transactions per second, mostly interpreter start"),
    Metric("peak_rss_mb", "MB", "lower", 0.1, note="largest ru_maxrss of the measured "
           "children, from os.wait4"),
    Metric("accuracy_pct", "%", "higher", 0.1, note="held-out normal-vs-abnormal accuracy: "
           "evaluate --split test on images, the benchmark's own join of classify --tdb "
           "predictions with the held-out labels on TDBs; a change is output drift"),
)

_PIX = IMAGE_WORKLOADS
_MINE = TDB_WORKLOADS
_ALL = ALL_WORKLOADS
_WIDE = ("wide-tdb",)
_MODEL = ("model_s",)
_CLASSIFY = ("classify_per_s",)
_BOTH = ("model_s", "classify_per_s")
_DRIFT = ((), ())  # an output count: no optimisation should move it


def _pl(name, unit, better, moves_where):
    moves, workloads = moves_where
    return Metric(name, unit, better, moves=moves, workloads=workloads)


PER_LAYER = (
    _pl("trace.overhead_ratio", "ratio", "lower", _DRIFT),
    _pl("cli.import_s", "s", "lower", (_BOTH, _ALL)),
    _pl("cli.features.s", "s", "lower", (_MODEL, _PIX)),
    _pl("cli.mine.s", "s", "lower", (_MODEL, _PIX)),
    _pl("cli.train.s", "s", "lower", (_MODEL, _PIX)),
    _pl("cli.classify.s", "s", "lower", (_CLASSIFY, _PIX)),
    _pl("cli.evaluate.s", "s", "lower", _DRIFT),
    _pl("cli.self_s", "s", "lower", (_BOTH, _ALL)),
    _pl("raster.self_s", "s", "lower", (_BOTH, _PIX)),
    _pl("prep.self_s", "s", "lower", (_BOTH, _PIX)),
    _pl("edge.self_s", "s", "lower", (_BOTH, _PIX)),
    _pl("segment.self_s", "s", "lower", (_BOTH, _PIX)),
    _pl("pipeline.self_s", "s", "lower", (_BOTH, _PIX)),
    _pl("fpm.self_s", "s", "lower", (_MODEL, _MINE)),
    _pl("harc.self_s", "s", "lower", (_MODEL, _WIDE)),
    _pl("raster.read_pgm.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("prep.median3x3.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("edge.gradients.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("edge.non_max_suppress.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("edge.hysteresis.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("edge.edge_pixels_per_image", "count/image", "lower", _DRIFT),
    _pl("segment.extract_regions.ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("segment.regions_per_image", "count/image", "lower", _DRIFT),
    _pl("segment.glcm_features.ms_per_region", "ms/region", "lower", (_BOTH, _PIX)),
    _pl("segment.glcm_features.ok_ratio", "ratio", "higher", _DRIFT),
    _pl("segment.quantize.calls", "count", "lower", _DRIFT),
    _pl("segment.no_object_ratio", "ratio", "lower", _DRIFT),
    _pl("pipeline.image_feature_vectors.ms_per_image", "ms/image", "lower", (_MODEL, _PIX)),
    _pl("pipeline.image_transaction.ms_per_image", "ms/image", "lower", (_CLASSIFY, _PIX)),
    _pl("pipeline.self_ms_per_image", "ms/image", "lower", (_BOTH, _PIX)),
    _pl("segment.read_tdb_csv.ms", "ms", "lower", (_MODEL, _WIDE)),
    _pl("segment.write_tdb_csv.ms", "ms", "lower", (_MODEL, _PIX)),
    _pl("segment.items_per_transaction", "count", "lower", _DRIFT),
    _pl("fpm.frequent_items.ms", "ms", "lower", (_MODEL, _WIDE)),
    _pl("fpm.frequent_items.count", "count", "lower", _DRIFT),
    _pl("fpm.build_fp_tree.ms", "ms", "lower", (_MODEL, _WIDE)),
    _pl("fpm.tree_nodes", "count", "lower", (_MODEL, _WIDE)),
    _pl("fpm.mine_mfi.ms", "ms", "lower", (_MODEL, _MINE)),
    _pl("fpm.mfi_count", "count", "lower", _DRIFT),
    _pl("fpm.itemset_support.calls", "count", "lower", (_MODEL, _MINE)),
    _pl("fpm.itemset_support.ms", "ms", "lower", (_MODEL, _MINE)),
    _pl("fpm.mine_mfi.useful_ratio", "ratio", "higher", (_MODEL, _MINE)),
    _pl("fpm.frequent_closure.ms", "ms", "lower", (_MODEL, _MINE)),
    _pl("fpm.frequent_closure.itemsets", "count", "lower", (_MODEL, _MINE)),
    _pl("fpm.generate_rules.ms", "ms", "lower", (_MODEL, _MINE)),
    _pl("fpm.rules", "count", "lower", _DRIFT),
    _pl("fpm.mine_class_rules.ms", "ms", "lower", (_MODEL, _MINE)),
    _pl("fpm.mine_class_rules.calls", "count", "lower", (_MODEL, _MINE)),
    _pl("harc.train.ms", "ms", "lower", (_MODEL, _WIDE)),
    _pl("harc.induce_tree.ms", "ms", "lower", (_MODEL, _WIDE)),
    _pl("harc.gain.calls", "count", "lower", (_MODEL, _WIDE)),
    _pl("harc.tree_nodes", "count", "lower", _DRIFT),
    _pl("harc.attributes", "count", "lower", _DRIFT),
    _pl("harc.model_from_json.ms", "ms", "lower", (_CLASSIFY, _PIX)),
    _pl("harc.classify.us_per_call", "us/call", "lower", (_CLASSIFY, _PIX)),
)

# Wrapped calls that must record at least one call in a traced run of each
# workload kind; a zero means a wrapper missed a binding or the program no
# longer reaches that layer, and the traced run fails.
EXERCISED = {
    "image": (
        "raster.read_pgm", "prep.median3x3", "edge.gradients", "edge.non_max_suppress",
        "edge.hysteresis", "segment.extract_regions", "segment.glcm_features",
        "segment.quantize", "segment.read_tdb_csv", "segment.write_tdb_csv",
        "pipeline.image_feature_vectors", "pipeline.image_transaction",
        "fpm.frequent_items", "fpm.build_fp_tree", "fpm.mine_mfi", "fpm.itemset_support",
        "fpm.frequent_closure", "fpm.generate_rules", "fpm.mine_class_rules",
        "harc.train", "harc.induce_tree", "harc.gain", "harc.model_from_json",
        "harc.classify", "metrics.report",
    ),
    "tdb": (
        "segment.read_tdb_csv", "fpm.frequent_items", "fpm.build_fp_tree", "fpm.mine_mfi",
        "fpm.itemset_support", "fpm.frequent_closure", "fpm.generate_rules",
        "fpm.mine_class_rules", "harc.train", "harc.induce_tree", "harc.gain",
        "harc.model_from_json", "harc.classify",
    ),
}
