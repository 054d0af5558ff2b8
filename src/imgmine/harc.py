"""Hybrid classifier: mined class rules become boolean attributes for an
information-gain decision tree over transactions."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .config import EXTRACTION_KEYS, ModelError, PipelineConfig
from .fpm import AssociationRule, mine_class_rules
from .segment import CLASSES, QuantizationModel, Transaction, TransactionDB, coarse_item

MODEL_VERSION = "harc-2"
DEFAULT_ATTRIBUTE_CAP = 64


class Leaf(NamedTuple):
    label: str
    distribution: dict  # class -> record count at this leaf


class Split(NamedTuple):
    attribute: int  # index into the model's attribute list
    on_true: "Leaf | Split"
    on_false: "Leaf | Split"


class HarcModel(NamedTuple):
    rules: list
    attributes: list  # the rules the tree tests, one per antecedent; Split.attribute indexes it
    tree: "Leaf | Split"
    quantization: QuantizationModel
    default_class: str
    config: PipelineConfig = PipelineConfig()  # EXTRACTION_KEYS set, the rest at their defaults


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class-count vector."""
    counts = [c for c in class_counts if c > 0]
    total = sum(counts)
    if total <= 0:
        raise ValueError("entropy undefined for an empty record set")
    return -sum((c / total) * math.log2(c / total) for c in counts)


def _class_counts(records):
    counts = {}
    for _, label in records:
        counts[label] = counts.get(label, 0) + 1
    return counts


def _majority(counts) -> str:
    order = {c: i for i, c in enumerate(CLASSES)}
    return max(sorted(counts, key=lambda c: order.get(c, 99)), key=counts.get)


def gain(records, rule: AssociationRule, base=None) -> float:
    """Information gain of partitioning records by whether they hold the rule's antecedent.

    base is the records' own entropy, when the caller already holds it.
    """
    if not records:
        raise ValueError("gain undefined for an empty record set")
    # Class counts of each part, labels in first-appearance order. True first:
    # the subtraction order fixes the float result.
    parts = {True: {}, False: {}}
    for items, label in records:
        counts = parts[items.issuperset(rule.antecedent)]
        counts[label] = counts.get(label, 0) + 1
    g = entropy(_class_counts(records).values()) if base is None else base
    for counts in parts.values():
        if counts:
            g -= (sum(counts.values()) / len(records)) * entropy(counts.values())
    return g


def induce_tree(records, attrs, attr_indices=None) -> "Leaf | Split":
    """ID3-style induction over boolean rule attributes.

    records: list of (item set, class label). Attributes never repeat along a
    path. Both parts of a split hold records: an attribute that leaves one part
    empty has a gain of exactly 0.0, as the other part's class counts are the parent's.
    """
    if not records:
        raise ValueError("cannot induce a tree from zero records")
    if attr_indices is None:
        attr_indices = list(range(len(attrs)))
    counts = _class_counts(records)
    majority = _majority(counts)
    if len(counts) == 1 or not attr_indices:
        return Leaf(label=majority, distribution=counts)
    best_idx, best_gain = None, -1.0
    base = entropy(counts.values())
    for idx in attr_indices:
        g = gain(records, attrs[idx], base)
        if g > best_gain + 1e-12:  # ties keep the earliest attribute
            best_idx, best_gain = idx, g
    if best_gain <= 1e-12:
        return Leaf(label=majority, distribution=counts)
    antecedent = attrs[best_idx].antecedent
    true_part, false_part = [], []
    for record in records:
        (true_part if record[0].issuperset(antecedent) else false_part).append(record)
    remaining = [i for i in attr_indices if i != best_idx]
    return Split(attribute=best_idx, on_true=induce_tree(true_part, attrs, remaining),
                 on_false=induce_tree(false_part, attrs, remaining))


def _augmented_items(t: Transaction):
    """Transaction items plus their coarse-level parents, for rule matching."""
    items = set(t.items)
    items |= {coarse_item(i) for i in items}
    return items


def classify(model: HarcModel, t: Transaction):
    """Walk the tree; returns (predicted class, list of the rules that fired)."""
    items = _augmented_items(t)
    fired = []
    node = model.tree
    while isinstance(node, Split):
        rule = model.attributes[node.attribute]
        if items.issuperset(rule.antecedent):
            fired.append(rule)
            node = node.on_true
        else:
            node = node.on_false
    return node.label, fired


def train(
    db: TransactionDB,
    minsup=Fraction(1, 10),
    minconf=Fraction(97, 100),
    attribute_cap: int = DEFAULT_ATTRIBUTE_CAP,
    quantization: Optional[QuantizationModel] = None,
    config: PipelineConfig = PipelineConfig(),
) -> HarcModel:
    """Mine class rules at both hierarchy levels; induce a tree over the first rule of each antecedent."""
    labeled = [t for t in db.transactions if t.label is not None]
    if not labeled:
        raise ValueError("training requires labeled transactions")
    classes = {t.label for t in labeled}
    if len(classes) < 2:
        raise ValueError("training requires at least two classes")
    rules, _ = mine_class_rules(db, minsup, minconf)

    firsts = {}
    for rule in rules:  # already confidence-sorted; the first of each antecedent wins
        firsts.setdefault(rule.antecedent, rule)
    attrs = list(firsts.values())[:attribute_cap]

    records = [(_augmented_items(t), t.label) for t in labeled]
    return HarcModel(
        rules=rules,
        attributes=attrs,
        tree=induce_tree(records, attrs),
        quantization=quantization or QuantizationModel(),
        default_class=_majority(_class_counts(records)),
        config=PipelineConfig(**{key: getattr(config, key) for key in EXTRACTION_KEYS}),
    )


def _tree_to_dict(node):
    if isinstance(node, Leaf):
        return {"leaf": node.label, "distribution": dict(sorted(node.distribution.items()))}
    return {
        "attribute": node.attribute,
        "true": _tree_to_dict(node.on_true),
        "false": _tree_to_dict(node.on_false),
    }


def _known_class(label):
    if label not in CLASSES:
        raise ValueError(f"unknown class {label!r}")
    return label


def _positive_int(value):
    if type(value) is not int or value < 1:
        raise ValueError(f"{value!r} is not a positive integer")
    return value


def _ratio(pair):
    """A stored [numerator, denominator] of ints whose value lies in (0, 1]."""
    if type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int:
        value = Fraction(*pair)
        if 0 < value.numerator <= value.denominator:
            return value
    raise ValueError(f"{pair!r} is not a fraction in (0, 1]")


def _tree_from_dict(d, n_attributes):
    if "leaf" in d:
        counts = d["distribution"]
        if type(counts) is not dict:  # an array of pairs would merge a repeated class
            raise ValueError(f"leaf distribution {counts!r} is not an object")
        distribution = {_known_class(c): _positive_int(n) for c, n in counts.items()}
        return Leaf(label=_known_class(d["leaf"]), distribution=distribution)
    attribute = d["attribute"]
    if type(attribute) is not int or not 0 <= attribute < n_attributes:
        raise ValueError(f"split on attribute {attribute!r}; the model has {n_attributes}")
    return Split(
        attribute=attribute,
        on_true=_tree_from_dict(d["true"], n_attributes),
        on_false=_tree_from_dict(d["false"], n_attributes),
    )


def model_to_json(model: HarcModel) -> bytes:
    doc = {
        "version": MODEL_VERSION,
        "default_class": model.default_class,
        "config": {key: getattr(model.config, key) for key in EXTRACTION_KEYS},
        "quantization": model.quantization.to_dict(),
        "rules": [
            {
                "antecedent": list(r.antecedent),
                "class": r.consequent,
                "support": [r.support.numerator, r.support.denominator],
                "confidence": [r.confidence.numerator, r.confidence.denominator],
            }
            for r in model.rules
        ],
        "attributes": [list(a.antecedent) for a in model.attributes],
        "tree": _tree_to_dict(model.tree),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def model_from_json(data: bytes) -> HarcModel:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelError(f"unreadable model: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelError("model JSON is not an object")
    if doc.get("version") != MODEL_VERSION:
        raise ModelError(f"model version {doc.get('version')!r} != {MODEL_VERSION}")
    try:
        config = doc["config"]
        if not isinstance(config, dict) or set(config) != set(EXTRACTION_KEYS):
            raise ValueError(f"config must hold exactly {list(EXTRACTION_KEYS)}")
        rules = [
            AssociationRule(
                antecedent=tuple(r["antecedent"]),
                consequent=_known_class(r["class"]),
                support=_ratio(r["support"]),
                confidence=_ratio(r["confidence"]),
            )
            for r in doc["rules"]
        ]
        for items in (list(r.antecedent) for r in rules):  # non-empty and sorted, as train writes them
            if not (items and all(type(i) is int and i > 0 for i in items) and items == sorted(set(items))):
                raise ValueError(f"antecedent {items!r} is not an increasing list of positive integers")
        by_antecedent = {r.antecedent: r for r in reversed(rules)}  # the first wins, as in train
        attributes = [by_antecedent[tuple(a)] for a in doc["attributes"]]
        return HarcModel(
            rules=rules,
            attributes=attributes,
            tree=_tree_from_dict(doc["tree"], len(attributes)),
            quantization=QuantizationModel.from_dict(doc["quantization"]),
            default_class=_known_class(doc["default_class"]),
            config=PipelineConfig(**config),
        )
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model: {type(exc).__name__}: {exc}") from None
