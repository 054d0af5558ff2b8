from fractions import Fraction

import numpy as np
import pytest

from imgmine.metrics import (
    ConfusionCounts,
    MultiClassMatrix,
    UndefinedMetricError,
    accuracy,
    binarize,
    precision,
    recall,
    report,
    sensitivity,
    specificity,
)
from imgmine.segment import CLASSES


def matrix(**cells):
    m = {(t, p): 0 for t in CLASSES for p in CLASSES}
    for key, v in cells.items():
        t, p = key.split("__")
        m[(t, p)] = v
    return MultiClassMatrix(counts=m)


# ----------------------------------------------------------------- binarize


def test_binarize_diagonal():
    m = matrix(normal__normal=4, benign__benign=3, malignant__malignant=2)
    c = binarize(m)
    assert (c.tp, c.tn, c.fp, c.fn) == (5, 4, 0, 0)


def test_binarize_benign_malignant_confusion_still_tp():
    m = matrix(benign__malignant=3, malignant__benign=2)
    c = binarize(m)
    assert c.tp == 5 and c.fn == 0


def test_binarize_off_diagonal():
    m = matrix(normal__benign=2, normal__malignant=1, benign__normal=4)
    c = binarize(m)
    assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 3, 4)


def test_binarize_partitions_total():
    rng = np.random.default_rng(51)
    for _ in range(20):
        pairs = [
            (CLASSES[rng.integers(0, 3)], CLASSES[rng.integers(0, 3)])
            for _ in range(int(rng.integers(1, 40)))
        ]
        m = MultiClassMatrix.from_pairs(pairs)
        assert binarize(m).total == len(pairs)


# ----------------------------------------------------------------- formulas


def test_formula_example():
    c = ConfusionCounts(tp=30, tn=60, fp=5, fn=5)
    assert accuracy(c) == Fraction(90, 100)
    assert sensitivity(c) == Fraction(30, 35)
    assert specificity(c) == Fraction(60, 65)
    assert float(sensitivity(c)) == pytest.approx(0.857, abs=5e-4)
    assert float(specificity(c)) == pytest.approx(0.923, abs=5e-4)


def test_precision_and_recall():
    c = ConfusionCounts(tp=8, tn=0, fp=2, fn=4)
    assert precision(c) == Fraction(4, 5)
    assert recall(c) == sensitivity(c) == Fraction(2, 3)


def test_zero_denominators_raise():
    with pytest.raises(UndefinedMetricError):
        sensitivity(ConfusionCounts(tp=0, tn=5, fp=3, fn=0))
    with pytest.raises(UndefinedMetricError):
        specificity(ConfusionCounts(tp=5, tn=0, fp=0, fn=3))
    with pytest.raises(UndefinedMetricError):
        accuracy(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))
    try:
        precision(ConfusionCounts(tp=0, tn=1, fp=0, fn=1))
    except UndefinedMetricError as exc:
        assert exc.metric == "precision"


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


def test_exact_rational_sweep():
    rng = np.random.default_rng(52)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(1, 200, size=4))
        c = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        assert accuracy(c) == Fraction(tp + tn, tp + tn + fp + fn)
        assert sensitivity(c) == Fraction(tp, tp + fn)
        assert specificity(c) == Fraction(tn, tn + fp)
        assert precision(c) == Fraction(tp, tp + fp)
        for v in (accuracy(c), sensitivity(c), specificity(c), precision(c)):
            assert 0 <= v <= 1


# ------------------------------------------------------------------- report


def test_report_rendering():
    # 97% sensitivity, 95% specificity, 96% accuracy exactly
    m = matrix(
        benign__benign=97,
        benign__normal=3,
        normal__normal=95,
        normal__benign=5,
    )
    text, csv = report(m)
    assert "sensitivity: 97.0%" in text
    assert "specificity: 95.0%" in text
    assert "accuracy: 96.0%" in text
    lines = csv.decode().splitlines()
    assert lines[0] == "metric,value"
    assert "sensitivity,97.0" in lines
    assert lines[-3] == "normal,95,5,0"


def test_report_one_decimal():
    m = matrix(benign__benign=1, benign__normal=2, normal__normal=1)
    text, _ = report(m)
    assert "sensitivity: 33.3%" in text


def test_transposed_matrix_changes_metrics():
    m = matrix(benign__benign=10, normal__benign=6, normal__normal=4)
    t = MultiClassMatrix(counts={(a, b): m.get(b, a) for a in CLASSES for b in CLASSES})
    assert specificity(binarize(m)) != specificity(binarize(t))
