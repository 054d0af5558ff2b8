"""The output checks accept the program's real artifacts and catch corrupted ones."""

import json
import shutil

import pytest

import checks
import run
from conftest import SMALL_TDB


@pytest.fixture
def outputs(traced_tdb_run, tmp_path):
    """A private copy of the small run's inputs and artifacts, free to corrupt."""
    run_dir, _, _ = traced_tdb_run
    for d in ("inputs", "out"):
        shutil.copytree(run_dir / d, tmp_path / d)
    return tmp_path


def _check(outputs):
    ledger = run.Ledger()
    accuracy = run.check_outputs(SMALL_TDB, outputs / "inputs", outputs / "out", ledger)
    return accuracy, [op["name"] for op in ledger.ops if not op["ok"]]


def _rewrite(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def test_real_artifacts_pass(outputs):
    accuracy, failed = _check(outputs)
    assert failed == []
    assert 0 < accuracy <= 100


def test_rule_with_wrong_support_fails(outputs):
    def bump(lines):
        ante, cls, sup, conf = lines[1].split(",")
        return [lines[0], f"{ante},{cls},{float(sup) + 0.01:.6f},{conf}"] + lines[2:]

    _rewrite(outputs / "out" / "rules.csv", bump)
    assert _check(outputs)[1] == ["rules"]


def test_non_maximal_itemset_fails(outputs):
    def add_subset(lines):
        level, items, _ = lines[1].split(",")
        sub = items.split(";")[:-1] or items.split(";")
        tdb = checks.read_tdb(outputs / "inputs" / "train.csv")
        sub_set = frozenset(int(i) for i in sub)
        count = sum(sub_set <= checks._at_level(t, int(level)) for _, _, t in tdb)
        return lines + [f"{level},{';'.join(sub)},{count}"]

    _rewrite(outputs / "out" / "mfi.csv", add_subset)
    assert _check(outputs)[1] == ["mfi"]


def test_missing_prediction_fails(outputs):
    _rewrite(outputs / "out" / "pred.csv", lambda lines: lines[:-1])
    assert _check(outputs)[1] == ["predictions"]


def test_model_attribute_outside_the_rules_fails(outputs):
    path = outputs / "out" / "model.json"
    doc = json.loads(path.read_text())
    doc["attributes"][0] = [1, 2, 3]
    path.write_text(json.dumps(doc))
    assert _check(outputs)[1] == ["model"]


def test_coarse_parent_of_fine_codes():
    assert checks.coarse(121) == 120 and checks.coarse(612) == 610
    assert checks.coarse(999) == 999 and checks.coarse(903) == 903
