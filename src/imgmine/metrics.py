"""Confusion-matrix bookkeeping and effectiveness measures."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .segment import CLASSES, csv_bytes

ABNORMAL = ("benign", "malignant")  # positive class; normal is negative


class UndefinedMetricError(ZeroDivisionError, ValueError):
    """Raised when a measure's denominator is zero; names the metric. A ValueError: the CLI exits 3."""

    def __init__(self, metric):
        super().__init__(f"{metric} is undefined (zero denominator)")
        self.metric = metric


class ConfusionCounts:
    __slots__ = ("tp", "tn", "fp", "fn")

    def __init__(self, tp: int, tn: int, fp: int, fn: int):
        if min(tp, tn, fp, fn) < 0:
            raise ValueError("confusion counts must be non-negative")
        self.tp, self.tn, self.fp, self.fn = tp, tn, fp, fn

    def __eq__(self, other):
        return type(other) is ConfusionCounts and (self.tp, self.tn, self.fp, self.fn) == (
            other.tp, other.tn, other.fp, other.fn)

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


class MultiClassMatrix(NamedTuple):
    """3x3 counts; rows = true class, columns = predicted class."""

    counts: dict  # (true_class, predicted_class) -> count

    @classmethod
    def from_pairs(cls, pairs):
        counts = {(t, p): 0 for t in CLASSES for p in CLASSES}
        for true, pred in pairs:
            counts[(true, pred)] += 1
        return cls(counts=counts)

    def get(self, true, pred):
        return self.counts.get((true, pred), 0)


def binarize(m: MultiClassMatrix) -> ConfusionCounts:
    """Collapse to abnormal-vs-normal: abnormal = benign or malignant."""
    tp = sum(m.get(t, p) for t in ABNORMAL for p in ABNORMAL)
    tn = m.get("normal", "normal")
    fp = sum(m.get("normal", p) for p in ABNORMAL)
    fn = sum(m.get(t, "normal") for t in ABNORMAL)
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num, den, metric) -> Fraction:
    if den == 0:
        raise UndefinedMetricError(metric)
    return Fraction(num, den)


def accuracy(c: ConfusionCounts) -> Fraction:
    return _ratio(c.tp + c.tn, c.total, "accuracy")


def sensitivity(c: ConfusionCounts) -> Fraction:
    return _ratio(c.tp, c.tp + c.fn, "sensitivity")


def specificity(c: ConfusionCounts) -> Fraction:
    return _ratio(c.tn, c.tn + c.fp, "specificity")


def precision(c: ConfusionCounts) -> Fraction:
    return _ratio(c.tp, c.tp + c.fp, "precision")


def recall(c: ConfusionCounts) -> Fraction:
    return sensitivity(c)


def report(m: MultiClassMatrix):
    """Render the measures (percent, 1 decimal) plus the raw matrix.

    Returns (text, csv) where csv holds 'metric,value' rows followed by the
    3x3 matrix with class-name headers.
    """
    c = binarize(m)
    measures = [
        ("sensitivity", sensitivity(c)),
        ("accuracy", accuracy(c)),
        ("specificity", specificity(c)),
    ]
    text_lines = [f"{name}: {float(v) * 100:.1f}%" for name, v in measures]
    text_lines.append("")
    text_lines.append("true\\pred " + " ".join(f"{c_:>9}" for c_ in CLASSES))
    for t in CLASSES:
        text_lines.append(
            f"{t:>9} " + " ".join(f"{m.get(t, p):>9}" for p in CLASSES)
        )
    rows = [(name, f"{float(v) * 100:.1f}") for name, v in measures]
    rows.append(("matrix", *CLASSES))
    rows.extend((t, *(m.get(t, p) for p in CLASSES)) for t in CLASSES)
    return "\n".join(text_lines) + "\n", csv_bytes("metric,value", rows)
