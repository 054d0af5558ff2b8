"""Acceptance checks. Each test records one PASS/FAIL line; the conftest
terminal-summary hook prints them after the run."""

import time
from fractions import Fraction
from functools import wraps

import numpy as np
import pytest

from imgmine import harc
from imgmine.cli import main as cli_main
from imgmine.edge import (
    chamfer_manhattan,
    gaussian_kernels,
    gradients,
    non_max_suppress,
)
from imgmine.fpm import (
    build_fp_tree,
    frequent_items,
    generate_rules,
    mine_frequent_family,
    with_class_items,
)
from imgmine.metrics import (
    ConfusionCounts,
    UndefinedMetricError,
    accuracy,
    precision,
    recall,
    sensitivity,
    specificity,
)
from imgmine.prep import BinaryImage, GrayImage, open_, square3
from imgmine.segment import CLASS_ITEMS, Transaction, TransactionDB

from oracles import (
    brute_rules,
    chamfer_brute,
    conv2d_clamped,
    frequent_family,
    maximal_sets,
    random_db,
    support_count,
)


RESULTS = []


def criterion(num, title):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"criterion {num}: FAIL - {title}")
                raise
            RESULTS.append(f"criterion {num}: PASS - {title}")

        return wrapper

    return deco


def random_dbs(n=200):
    rng = np.random.default_rng(2024)
    return [random_db(rng, labeled=True) for _ in range(n)]


@pytest.fixture(scope="module")
def dbs():
    return random_dbs()


@criterion(1, "printed-fixture maximal itemsets at minsup 3 and 2")
def test_criterion_1(seven_tx_db):
    t0 = time.perf_counter()
    transactions = [t.items for t in seven_tx_db.transactions]
    for minsup, expected in (
        (3, {frozenset(s) for s in [(111,), (211,), (221,), (323,)]}),
        (
            2,
            {
                frozenset(s)
                for s in [
                    (111, 211, 221),
                    (111, 121),
                    (211, 323),
                    (211, 413),
                    (122, 221),
                    (323, 524),
                    (421,),
                ]
            },
        ),
    ):
        # re-derive the golden from the exhaustive oracle, then check the miner
        assert maximal_sets(frequent_family(transactions, minsup)) == expected
        _, _, mfi, _ = mine_frequent_family(seven_tx_db, minsup)
        assert mfi == expected
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "closure/maximal/rule mining match exhaustive enumeration on 200 random DBs")
def test_criterion_2(dbs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    class_items = sorted(CLASS_ITEMS.values())
    for db in dbs:
        minsup = int(rng.integers(2, 5))
        transactions = [t.items for t in db.transactions]
        fam = frequent_family(transactions, minsup)
        _, _, mfi, closure = mine_frequent_family(db, minsup)
        assert dict(closure) == fam
        assert mfi == maximal_sets(fam)  # sound, maximal, and complete

        labeled = with_class_items(db)
        minconf = Fraction(1, 2)
        frac = Fraction(minsup, len(labeled))
        _, _, _, freq = mine_frequent_family(labeled, minsup)
        rules = generate_rules(freq, labeled, frac, minconf)
        got = {
            (frozenset(r.antecedent), CLASS_ITEMS[r.consequent], r.support * len(labeled))
            for r in rules
        }
        assert got == brute_rules(
            [t.items for t in labeled.transactions], class_items, frac, minconf
        )
    assert time.perf_counter() - t0 < 30.0


@criterion(3, "header support equals chain sum equals brute count; path order monotone")
def test_criterion_3(seven_tx_db, dbs):
    for db in [seven_tx_db] + dbs:
        for minsup in (1, 2, 3):
            L = frequent_items(db, minsup)
            tree = build_fp_tree(db, L)
            raw = [t.items for t in db.transactions]
            for entry in tree.header:
                chain_sum = sum(node.count for node in entry.chain())
                assert chain_sum == entry.support == support_count(raw, [entry.item])
            stack = [(tree.root, -1)]
            while stack:
                node, rank = stack.pop()
                for child in node.children.values():
                    assert tree.rank[child.name] > rank
                    stack.append((child, tree.rank[child.name]))


@criterion(4, "separable gradients == 2D convolution; unique step ridge; exact chamfer")
def test_criterion_4():
    rng = np.random.default_rng(8)
    g, d = gaussian_kernels(1.4)
    kx, ky = np.outer(g, d), np.outer(d, g)
    for _ in range(20):
        a = rng.integers(0, 256, size=(32, 32)).astype(float)
        f = gradients(GrayImage(a.astype(np.uint8)), 1.4)
        assert np.abs(f.gx - conv2d_clamped(a, kx)).max() < 1e-6
        assert np.abs(f.gy - conv2d_clamped(a, ky)).max() < 1e-6

    # vertical step with one intermediate column so the ridge is single-pixel
    step = np.zeros((24, 24), dtype=np.uint8)
    step[:, 12] = 127
    step[:, 13:] = 255
    out = non_max_suppress(gradients(GrayImage(step), 1.0))
    assert ((out[5:-5] > 1e-9).sum(axis=1) == 1).all()

    for _ in range(20):
        mask = rng.random((16, 16)) < 0.08
        if not mask.any():
            mask[3, 9] = True
        assert np.array_equal(chamfer_manhattan(BinaryImage(mask)), chamfer_brute(mask))


@criterion(5, "opening is anti-extensive, increasing, idempotent; solid square fixed")
def test_criterion_5():
    rng = np.random.default_rng(9)
    se = square3()
    for _ in range(100):
        a = BinaryImage(rng.random((12, 12)) < 0.5)
        b = BinaryImage(a.bits | (rng.random((12, 12)) < 0.5))
        oa, ob = open_(a, se), open_(b, se)
        assert not (oa.bits & ~a.bits).any()
        assert open_(oa, se) == oa
        assert not (oa.bits & ~ob.bits).any()
    square = BinaryImage(np.pad(np.ones((5, 5), dtype=bool), 1))
    assert open_(square, se) == square


@criterion(6, "measures match exact rationals on 50 random counts; 0/0 raises")
def test_criterion_6():
    rng = np.random.default_rng(10)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(1, 500, size=4))
        c = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        assert accuracy(c) == Fraction(tp + tn, tp + tn + fp + fn)
        assert sensitivity(c) == recall(c) == Fraction(tp, tp + fn)
        assert specificity(c) == Fraction(tn, tn + fp)
        assert precision(c) == Fraction(tp, tp + fp)
    with pytest.raises(UndefinedMetricError):
        sensitivity(ConfusionCounts(tp=0, tn=1, fp=1, fn=0))
    with pytest.raises(UndefinedMetricError):
        specificity(ConfusionCounts(tp=1, tn=0, fp=0, fn=1))
    with pytest.raises(UndefinedMetricError):
        precision(ConfusionCounts(tp=0, tn=1, fp=0, fn=1))
    with pytest.raises(UndefinedMetricError):
        accuracy(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))


@criterion(7, "entropy golden; gain >= 0; separable training is perfect; scale-invariant tree")
def test_criterion_7():
    assert harc.entropy([9, 5]) == pytest.approx(0.940286, abs=1e-5)

    rng = np.random.default_rng(11)

    def rand_records(n_attrs=6, n=14):
        return [
            (
                set(rng.choice(n_attrs, size=rng.integers(1, n_attrs), replace=False).tolist()),
                ["normal", "benign", "malignant"][rng.integers(0, 3)],
            )
            for _ in range(n)
        ]

    def make_attr(item):
        from imgmine.fpm import AssociationRule

        return AssociationRule(
            antecedent=(item,), consequent="benign",
            support=Fraction(1, 2), confidence=Fraction(1, 1),
        )

    for _ in range(100):
        records = rand_records()
        assert harc.gain(records, make_attr(int(rng.integers(0, 6)))) >= -1e-12

    rows = []
    for label, items in (("normal", (999,)), ("benign", (111, 211)), ("malignant", (122, 222))):
        rows.extend(Transaction(tid=f"{label}{i}", items=items, label=label) for i in range(10))
    db = TransactionDB(transactions=rows)
    model = harc.train(db, Fraction(1, 10), Fraction(97, 100))
    assert all(harc.classify(model, t)[0] == t.label for t in db.transactions)

    attrs = [make_attr(i) for i in range(5)]
    records = rand_records(n_attrs=5, n=12)

    def shape(node):
        if isinstance(node, harc.Leaf):
            return ("leaf", node.label)
        return ("split", node.attribute, shape(node.on_true), shape(node.on_false))

    assert shape(harc.induce_tree(records, attrs)) == shape(
        harc.induce_tree(records * 3, attrs)
    )


def run_pipeline(root):
    corpus = root / "corpus"
    assert cli_main(["synth", str(corpus), "--seed", "42"]) == 0
    cfg = str(corpus / "config.json")
    man = str(corpus / "manifest.csv")
    tdb = root / "tdb.csv"
    assert cli_main(["features", man, str(tdb), "--config", cfg]) == 0
    mfi, rules = root / "mfi.csv", root / "rules.csv"
    assert cli_main(
        ["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules), "--config", cfg]
    ) == 0
    model = root / "model.json"
    assert cli_main(["train", "--tdb", str(tdb), str(model), "--config", cfg]) == 0
    pred = root / "pred.csv"
    assert cli_main(
        ["classify", str(model), "--manifest", man, str(pred), "--config", cfg]
    ) == 0
    met = root / "metrics.csv"
    assert cli_main(["evaluate", str(pred), man, "--split", "test", "--output", str(met)]) == 0
    return {p.name: p.read_bytes() for p in (tdb, mfi, rules, model, pred, met)}


@criterion(8, "synthetic end-to-end run reaches held-out accuracy and sensitivity >= 0.90")
def test_criterion_8(tmp_path, capsys):
    t0 = time.perf_counter()
    artifacts = run_pipeline(tmp_path)
    assert time.perf_counter() - t0 < 60.0
    scores = {}
    for line in artifacts["metrics.csv"].decode().splitlines():
        parts = line.split(",")
        if parts[0] in ("accuracy", "sensitivity", "specificity"):
            scores[parts[0]] = float(parts[1])
    assert scores["accuracy"] >= 90.0
    assert scores["sensitivity"] >= 90.0


@criterion(9, "every pipeline artifact is byte-identical across independent reruns")
def test_criterion_9(tmp_path, capsys):
    a = run_pipeline(tmp_path / "run1")
    b = run_pipeline(tmp_path / "run2")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between reruns"
