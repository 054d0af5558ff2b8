"""Output checks made from outside the program.

Each check re-derives what an artifact claims from the inputs, with parsers
and counting of its own, and raises CheckError on the first disagreement.
None of it imports imgmine.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

CLASSES = ("normal", "benign", "malignant")
N_FEATURES = 6


class CheckError(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def _rows(path: Path, header: str):
    lines = Path(path).read_text().splitlines()
    _require(lines and lines[0] == header, f"{Path(path).name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:] if line.strip()]


def _items(text: str) -> frozenset:
    return frozenset(int(s) for s in text.split(";") if s)


def coarse(code: int) -> int:
    """Level-1 parent of a fine feature code (f, half, pos) -> f*100 + half*10; others pass."""
    f, half, pos = code // 100, (code // 10) % 10, code % 10
    if 1 <= f <= N_FEATURES and half in (1, 2) and pos in (1, 2) and code < 1000:
        return code - pos
    return code


def _is_coarse(code: int) -> bool:
    f, half, pos = code // 100, (code // 10) % 10, code % 10
    return 1 <= f <= N_FEATURES and half in (1, 2) and pos == 0 and code < 1000


def _fraction(value: float) -> Fraction:
    return Fraction(value).limit_denominator(10**9)


def read_tdb(path: Path):
    """[(tid, label or None, frozenset of items)] from a tid,label,items CSV."""
    rows = []
    for parts in _rows(path, "tid,label,items"):
        _require(len(parts) == 3, f"{Path(path).name}: bad row {parts!r}")
        tid, label, items = parts
        rows.append((tid, label or None, _items(items)))
    return rows


def read_labels(path: Path) -> dict:
    return {tid: label for tid, label in _rows(path, "tid,label")}


def _at_level(items: frozenset, level: int) -> frozenset:
    return items if level == 2 else frozenset(coarse(i) for i in items)


def check_tdb(tdb_rows, manifest_rows):
    """features wrote one row per manifest image, labelled exactly on the train split."""
    _require(len(tdb_rows) == len(manifest_rows), "TDB and manifest row counts differ")
    for (tid, label, items), (path, m_label, split) in zip(tdb_rows, manifest_rows):
        _require(tid == path, f"TDB row {tid!r} is not manifest row {path!r}")
        _require(label == (m_label if split == "train" else None), f"{tid}: wrong label {label!r}")
        _require(items and all(i > 0 for i in items), f"{tid}: empty or non-positive items")


def check_quantization(path: Path):
    doc = json.loads(Path(path).read_text())
    _require(len(doc) == N_FEATURES, f"quantization has {len(doc)} features, not {N_FEATURES}")
    for name, (lo, hi) in doc.items():
        _require(lo <= hi, f"quantization range of {name} is inverted")


def check_mfi(path: Path, tdb_rows, minsup: float):
    """Every row's support recounts exactly, is frequent, and is maximal at its level."""
    rows = _rows(path, "level,items,support")
    _require(rows, "MFI file is empty")
    n = len(tdb_rows)
    min_count = max(1, math.ceil(_fraction(minsup) * n))
    per_level = {lv: [_at_level(t, lv) for _, _, t in tdb_rows] for lv in (1, 2)}
    by_level = {}
    for parts in rows:
        _require(len(parts) == 3, f"bad MFI row {parts!r}")
        level, items, support = int(parts[0]), _items(parts[1]), int(parts[2])
        _require(level in (1, 2) and items, f"bad MFI row {parts!r}")
        count = sum(items <= t for t in per_level[level])
        _require(count == support, f"MFI {sorted(items)} at level {level}: support {support} != {count}")
        _require(count >= min_count, f"MFI {sorted(items)} at level {level} is not frequent")
        by_level.setdefault(level, []).append(items)
    for level, sets in by_level.items():
        _require(len(set(sets)) == len(sets), f"duplicate MFI rows at level {level}")
        for a in sets:
            for b in sets:
                _require(not a < b, f"MFI {sorted(a)} is inside {sorted(b)} at level {level}")


def check_rules(path: Path, tdb_rows, minsup: float, minconf: float):
    """Every rule's support and confidence recount exactly over the labelled rows."""
    rows = _rows(path, "antecedent,class,support,confidence")
    _require(rows, "rules file is empty")
    labeled = [(items, label) for _, label, items in tdb_rows if label is not None]
    n = len(labeled)
    per_level = {lv: [(_at_level(t, lv), label) for t, label in labeled] for lv in (1, 2)}
    seen = set()
    for parts in rows:
        _require(len(parts) == 4, f"bad rule row {parts!r}")
        antecedent, cls, support, confidence = _items(parts[0]), parts[1], parts[2], parts[3]
        _require(antecedent and cls in CLASSES, f"bad rule row {parts!r}")
        _require((antecedent, cls) not in seen, f"duplicate rule {parts!r}")
        seen.add((antecedent, cls))
        level = 1 if any(_is_coarse(i) for i in antecedent) else 2
        base = both = 0
        for items, label in per_level[level]:
            if antecedent <= items:
                base += 1
                both += label == cls
        _require(base > 0, f"rule {parts!r}: antecedent never occurs")
        sup, conf = Fraction(both, n), Fraction(both, base)
        _require(f"{float(sup):.6f}" == support, f"rule {parts!r}: support is {float(sup):.6f}")
        _require(f"{float(conf):.6f}" == confidence, f"rule {parts!r}: confidence is {float(conf):.6f}")
        _require(sup >= _fraction(minsup), f"rule {parts!r} is below minsup")
        _require(conf >= _fraction(minconf), f"rule {parts!r} is below minconf")


def _check_tree(node, n_attributes):
    if "leaf" in node:
        _require(node["leaf"] in CLASSES, f"tree leaf has unknown class {node['leaf']!r}")
        return
    _require(0 <= node["attribute"] < n_attributes, "tree split names a missing attribute")
    _check_tree(node["true"], n_attributes)
    _check_tree(node["false"], n_attributes)


def check_model(path: Path):
    """The model JSON loads, and its tree only uses attributes that are mined rules."""
    doc = json.loads(Path(path).read_text())
    _require(isinstance(doc["version"], str) and doc["version"], "model has no version")
    _require(doc["default_class"] in CLASSES, "model default class is unknown")
    antecedents = {tuple(r["antecedent"]) for r in doc["rules"]}
    for a in doc["attributes"]:
        _require(tuple(a) in antecedents, f"attribute {a} is not a rule antecedent")
    _require(isinstance(doc["quantization"], dict), "model has no quantization table")
    _check_tree(doc["tree"], len(doc["attributes"]))


def read_predictions(path: Path, expected_names) -> dict:
    """Predictions cover each classify input exactly once, each with a known class."""
    rows = _rows(path, "path,predicted,fired_rule_count")
    preds = {}
    for parts in rows:
        _require(len(parts) == 3, f"bad prediction row {parts!r}")
        name, label, fired = parts
        _require(name not in preds, f"{name} predicted twice")
        _require(label in CLASSES, f"{name}: unknown predicted class {label!r}")
        _require(int(fired) >= 0, f"{name}: negative fired rule count")
        preds[name] = label
    _require(set(preds) == set(expected_names), "predictions do not cover the classify inputs")
    return preds


def binary_accuracy_pct(preds: dict, truth: dict) -> float:
    """Normal-vs-abnormal accuracy in percent, the measure `imgmine evaluate` reports."""
    _require(truth, "no held-out labels to score")
    hits = sum((preds[name] == "normal") == (label == "normal") for name, label in truth.items())
    return 100.0 * hits / len(truth)


def evaluate_accuracy(path: Path) -> str:
    for parts in _rows(path, "metric,value"):
        if parts[0] == "accuracy":
            return parts[1]
    raise CheckError("metrics CSV has no accuracy row")
