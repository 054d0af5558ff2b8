"""The package's record types compare by value and keep their validation."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from imgmine.config import ConfigError, Manifest, ManifestEntry, ManifestError, PipelineConfig
from imgmine.edge import GradientField
from imgmine.fpm import AssociationRule
from imgmine.harc import HarcModel, Leaf, RuleAttribute, Split
from imgmine.metrics import ConfusionCounts, MultiClassMatrix
from imgmine.prep import StructuringElement
from imgmine.segment import FeatureVector, QuantizationModel, Region, TdbError, Transaction, TransactionDB

RULE = AssociationRule((111,), "benign", Fraction(1, 2), Fraction(1))
LEAF = Leaf("benign", {"benign": 2})
# Region and GradientField compare their arrays as tuples do: by identity first, then
# elementwise, so their copies share arrays and 1x1 arrays tell the different ones apart.
COORDS, ZERO, ONE = np.zeros((2, 2), dtype=np.int64), np.zeros((1, 1)), np.ones((1, 1))
HOLLOW = np.ones((3, 3), dtype=bool)
HOLLOW[1, 1] = False


def model(default_class):
    return HarcModel([RULE], [RuleAttribute((111,), RULE)], Split(0, LEAF, LEAF),
                     QuantizationModel({"area": (0.0, 1.0)}), default_class)


# Record type -> (make one, make a different one). Each make builds a fresh instance.
RECORDS = {
    "PipelineConfig": (lambda: PipelineConfig(sigma=2.0, canny_low=1, canny_high=2.5),
                       lambda: PipelineConfig(sigma=2.0, canny_low=1, canny_high=3)),
    "ManifestEntry": (lambda: ManifestEntry("a.pgm", "benign", "train"),
                      lambda: ManifestEntry("a.pgm", "benign", "test")),
    "Manifest": (lambda: Manifest([ManifestEntry("a.pgm", None, "test")], Path("d")),
                 lambda: Manifest([ManifestEntry("a.pgm", None, "test")], Path("e"))),
    "Region": (lambda: Region(COORDS, (0, 0, 1, 1)), lambda: Region(COORDS, (0, 0, 1, 2))),
    "FeatureVector": (lambda: FeatureVector(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                      lambda: FeatureVector(1.0, 2.0, 3.0, 4.0, 5.0, 6.5)),
    "Transaction": (lambda: Transaction("t", (2, 1, 2), "benign"), lambda: Transaction("t", (1, 2))),
    "TransactionDB": (lambda: TransactionDB([Transaction("t", (1,))]),
                      lambda: TransactionDB([Transaction("u", (1,))])),
    "QuantizationModel": (lambda: QuantizationModel({"area": (0.0, 1.0)}), QuantizationModel),
    "AssociationRule": (lambda: AssociationRule((111,), "benign", Fraction(1, 2), Fraction(1)),
                        lambda: AssociationRule((111,), "benign", Fraction(1, 2), Fraction(2, 3))),
    "RuleAttribute": (lambda: RuleAttribute((111,), RULE), lambda: RuleAttribute((112,), RULE)),
    "Leaf": (lambda: Leaf("benign", {"benign": 2}), lambda: Leaf("benign", {"benign": 3})),
    "Split": (lambda: Split(0, LEAF, LEAF), lambda: Split(0, LEAF, Leaf("normal", {}))),
    "HarcModel": (lambda: model("normal"), lambda: model("benign")),
    "ConfusionCounts": (lambda: ConfusionCounts(1, 2, 3, 4), lambda: ConfusionCounts(1, 2, 4, 3)),
    "MultiClassMatrix": (lambda: MultiClassMatrix.from_pairs([("normal", "benign")]),
                         lambda: MultiClassMatrix.from_pairs([("benign", "normal")])),
    "GradientField": (lambda: GradientField(ZERO, ZERO, ZERO), lambda: GradientField(ZERO, ZERO, ONE)),
    "StructuringElement": (lambda: StructuringElement(np.ones((3, 3))),
                           lambda: StructuringElement(np.ones((1, 3)))),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_equals_an_equal_copy_and_differs_from_another(name):
    make, other = RECORDS[name]
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("make, error, message", [
    (lambda: Transaction("t", (3, 0)), ValueError, "items must be positive integers"),
    (lambda: Transaction("t", (3,), "cancer"), ValueError, "unknown class label 'cancer'"),
    (lambda: TransactionDB([Transaction("t", (1,)), Transaction("t", (2,))]), TdbError,
     "duplicate tids in transaction database"),
    (lambda: Manifest([ManifestEntry("a", None, "test"), ManifestEntry("a", "benign", "train")]),
     ManifestError, "duplicate image paths in manifest"),
    (lambda: Manifest([ManifestEntry("a", None, "dev")]), ManifestError, "unknown split 'dev' for a"),
    (lambda: PipelineConfig(min_area=2.5), ConfigError, "config value min_area=2.5 has the wrong type"),
    (lambda: PipelineConfig(canny_high=3.0), ConfigError, "set both canny_low and canny_high or neither"),
    (lambda: PipelineConfig(levels=2), ConfigError, "unknown config keys: ['levels']"),
    (lambda: ConfusionCounts(1, 0, -1, 0), ValueError, "confusion counts must be non-negative"),
    (lambda: StructuringElement(np.ones((2, 3))), ValueError,
     "structuring element must be 2D with odd dimensions"),
    (lambda: StructuringElement(HOLLOW), ValueError, "structuring element origin must be a member"),
], ids=["zero-item", "unknown-label", "duplicate-tid", "duplicate-path", "unknown-split",
        "config-type", "config-pairing", "config-key", "negative-count", "even-probe", "hollow-probe"])
def test_record_validation_keeps_its_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
