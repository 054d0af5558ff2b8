from fractions import Fraction

import numpy as np
import pytest

from imgmine.fpm import AssociationRule
from imgmine.harc import (
    Leaf,
    RuleAttribute,
    Split,
    classify,
    entropy,
    gain,
    induce_tree,
    model_from_json,
    model_to_json,
    train,
)
from imgmine.config import EXTRACTION_KEYS, PipelineConfig
from imgmine.harc import MODEL_VERSION, HarcModel, ModelError
from imgmine.segment import QuantizationModel, Transaction, TransactionDB


def attr(*items):
    rule = AssociationRule(
        antecedent=tuple(sorted(items)),
        consequent="benign",
        support=Fraction(1, 2),
        confidence=Fraction(1, 1),
    )
    return RuleAttribute(antecedent=rule.antecedent, rule=rule)


def separable_records():
    # attribute {101} fires exactly on the two benign records
    return [
        ({101, 1}, "benign"),
        ({101, 2}, "benign"),
        ({5}, "normal"),
        ({6}, "normal"),
    ]


# ------------------------------------------------------------------ entropy


def test_entropy_pure():
    assert entropy([5, 0, 0]) == 0.0


def test_entropy_uniform_binary():
    assert entropy([1, 1]) == pytest.approx(1.0)


def test_entropy_9_5():
    assert entropy([9, 5]) == pytest.approx(0.940286, abs=1e-5)


def test_entropy_empty_errors():
    with pytest.raises(ValueError):
        entropy([0, 0])


# --------------------------------------------------------------------- gain


def test_gain_constant_attribute_zero():
    records = [({1}, "benign"), ({2}, "normal")]
    assert gain(records, attr(999)) == 0.0
    assert gain(records, attr()) == 0.0  # the empty antecedent holds in every record


def test_gain_perfect_split_equals_entropy():
    records = separable_records()
    assert gain(records, attr(101)) == pytest.approx(entropy([2, 2]))


def test_gain_perfect_binary_split_is_one_bit():
    assert gain(separable_records(), attr(101)) == pytest.approx(1.0)


def test_gain_non_negative_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        records = [
            (set(rng.choice(10, size=rng.integers(1, 5), replace=False).tolist()), l)
            for l in rng.choice(["normal", "benign", "malignant"], size=8)
        ]
        a = attr(int(rng.integers(0, 10)))
        assert gain(records, a) >= -1e-12


def test_gain_with_the_records_entropy_given_is_bit_identical():
    rng = np.random.default_rng(32)
    for _ in range(100):
        records = [
            (set(rng.choice(10, size=rng.integers(1, 5), replace=False).tolist()), l)
            for l in rng.choice(["normal", "benign", "malignant"], size=9)
        ]
        labels = [label for _, label in records]
        base = entropy([labels.count(c) for c in dict.fromkeys(labels)])  # first-appearance order
        a = attr(int(rng.integers(0, 10)))
        assert gain(records, a, base) == gain(records, a)


# -------------------------------------------------------------- induce_tree


def test_induce_all_same_class_leaf():
    records = [({1}, "benign"), ({2}, "benign")]
    tree = induce_tree(records, [attr(1)])
    assert isinstance(tree, Leaf) and tree.label == "benign"


def test_induce_no_attrs_majority_leaf():
    records = [({1}, "normal"), ({2}, "normal"), ({3}, "benign")]
    tree = induce_tree(records, [])
    assert isinstance(tree, Leaf) and tree.label == "normal"


def test_induce_separable_fixture():
    attrs = [attr(101)]
    tree = induce_tree(separable_records(), attrs)
    assert isinstance(tree, Split) and tree.attribute == 0
    assert isinstance(tree.on_true, Leaf) and tree.on_true.label == "benign"
    assert isinstance(tree.on_false, Leaf) and tree.on_false.label == "normal"


def test_induce_no_attribute_repeats_on_path():
    rng = np.random.default_rng(32)
    attrs = [attr(i) for i in range(6)]
    records = [
        (set(rng.choice(6, size=rng.integers(1, 5), replace=False).tolist()), l)
        for l in rng.choice(["normal", "benign", "malignant"], size=20)
    ]
    tree = induce_tree(records, attrs)

    def check(node, used):
        if isinstance(node, Split):
            assert node.attribute not in used
            check(node.on_true, used | {node.attribute})
            check(node.on_false, used | {node.attribute})

    check(tree, set())


def test_induce_duplicated_records_same_structure():
    rng = np.random.default_rng(33)
    attrs = [attr(i) for i in range(5)]
    records = [
        (set(rng.choice(5, size=rng.integers(1, 4), replace=False).tolist()), l)
        for l in rng.choice(["normal", "benign"], size=12)
    ]

    def shape(node):
        if isinstance(node, Leaf):
            return ("leaf", node.label)
        return ("split", node.attribute, shape(node.on_true), shape(node.on_false))

    assert shape(induce_tree(records, attrs)) == shape(induce_tree(records * 3, attrs))


# ----------------------------------------------------------------- classify


def test_classify_single_leaf():
    model = HarcModel(
        rules=[], attributes=[], tree=Leaf(label="normal", distribution={"normal": 1}),
        quantization=QuantizationModel(), default_class="normal",
    )
    label, fired = classify(model, Transaction(tid="t", items=(42,)))
    assert label == "normal" and fired == []


def test_classify_follows_fired_rule():
    a = attr(101)
    model = HarcModel(
        rules=[a.rule], attributes=[a],
        tree=Split(
            attribute=0,
            on_true=Leaf(label="benign", distribution={"benign": 2}),
            on_false=Leaf(label="normal", distribution={"normal": 2}),
        ),
        quantization=QuantizationModel(), default_class="normal",
    )
    label, fired = classify(model, Transaction(tid="t", items=(101, 7)))
    assert label == "benign" and [f.antecedent for f in fired] == [(101,)]
    label2, fired2 = classify(model, Transaction(tid="u", items=(7,)))
    assert label2 == "normal" and fired2 == []


def test_classify_deterministic():
    a = attr(101)
    model = HarcModel(
        rules=[a.rule], attributes=[a],
        tree=Split(
            attribute=0,
            on_true=Leaf(label="benign", distribution={}),
            on_false=Leaf(label="normal", distribution={}),
        ),
        quantization=QuantizationModel(), default_class="normal",
    )
    t = Transaction(tid="t", items=(101,))
    assert classify(model, t) == classify(model, t)


# -------------------------------------------------------------------- train


def separable_db():
    rows = []
    groups = [("normal", (999,)), ("benign", (111, 211)), ("malignant", (122, 222))]
    for label, items in groups:
        for i in range(10):
            rows.append(Transaction(tid=f"{label}{i}", items=items, label=label))
    return TransactionDB(transactions=rows)


def test_train_separable_perfect():
    db = separable_db()
    model = train(db, Fraction(1, 10), Fraction(97, 100))
    for t in db.transactions:
        assert classify(model, t)[0] == t.label


def test_train_single_class_errors():
    rows = [Transaction(tid=f"{i}", items=(1,), label="normal") for i in range(5)]
    with pytest.raises(ValueError):
        train(TransactionDB(transactions=rows))


def test_train_zero_rules_degenerates_to_majority():
    rows = [
        Transaction(tid="a", items=(1,), label="normal"),
        Transaction(tid="b", items=(1,), label="normal"),
        Transaction(tid="c", items=(2,), label="benign"),
    ]
    model = train(TransactionDB(transactions=rows), minsup=Fraction(1, 1), minconf=Fraction(1, 1))
    assert isinstance(model.tree, Leaf) or model.attributes == []
    assert classify(model, Transaction(tid="z", items=(9,)))[0] == "normal"


def test_train_attribute_cap():
    model = train(separable_db(), Fraction(1, 10), Fraction(97, 100), attribute_cap=2)
    assert len(model.attributes) <= 2


# -------------------------------------------------------------- persistence


def test_model_json_round_trip():
    model = train(separable_db(), Fraction(1, 10), Fraction(97, 100))
    data = model_to_json(model)
    back = model_from_json(data)
    assert back == model
    assert model_to_json(back) == data
    for t in separable_db().transactions:
        assert classify(back, t)[0] == t.label


def test_model_json_keeps_the_extraction_settings():
    extraction = dict(sigma=2.0, canny_low=1.0, canny_high=3, equalize=False, min_area=7)
    doc = model_to_json(train(separable_db(), config=PipelineConfig(**extraction, minsup=0.5)))
    assert model_from_json(doc).config == PipelineConfig(**extraction)
    assert b'"minsup"' not in doc and all(f'"{key}"'.encode() in doc for key in EXTRACTION_KEYS)


def test_round_trip_keeps_the_first_rule_of_each_antecedent():
    rows = [("111", "normal")] * 2 + [("111", "benign")] * 2 + [("211", "malignant")] * 4
    db = TransactionDB([Transaction(tid=f"t{i}", items=(int(c),), label=label)
                        for i, (c, label) in enumerate(rows)])
    model = train(db, Fraction(1, 10), Fraction(1, 2))
    fired = {a.antecedent: a.rule.consequent for a in model.attributes}
    assert fired[(110,)] == fired[(111,)] == "normal"  # two rules each; train keeps the first
    back = model_from_json(model_to_json(model))
    assert back.attributes == model.attributes
    assert back == model


def test_round_trip_keeps_the_mining_settings_out_of_the_model():
    model = train(separable_db(), config=PipelineConfig(minsup=0.2, minconf=0.5, seed=7))
    assert model.config == PipelineConfig()
    assert model_from_json(model_to_json(model)) == model


def test_model_version_check():
    model = train(separable_db())
    bad = model_to_json(model).replace(MODEL_VERSION.encode(), b"harc-9")
    with pytest.raises(ModelError):
        model_from_json(bad)
