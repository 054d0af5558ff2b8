import ast
import codecs
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imgmine import cli, fpm, harc, metrics, pipeline
from imgmine.cli import build_parser, main
from imgmine.config import (
    EXTRACTION_KEYS,
    MIN_SIGMA,
    PipelineConfig,
    config_to_json,
    read_manifest,
    write_manifest,
)
from imgmine.prep import GrayImage, equalize
from imgmine.raster import read_pgm, write_pgm
from imgmine.segment import (
    CLASSES,
    FEATURE_NAMES,
    QuantizationModel,
    Transaction,
    TransactionDB,
    encode_item,
    extract_regions,
    read_tdb_csv,
    write_tdb_csv,
)

TDB_HEADER = b"tid,label,items\n"


def write_image(path, pixels):
    path.write_bytes(write_pgm(GrayImage(np.asarray(pixels, dtype=np.uint8))))


def blob_image(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(60, 90, size=(32, 32))
    a[10:22, 10:22] = 220
    return a


def labeled_tdb():
    rows = []
    groups = [("normal", (999,)), ("benign", (111, 211)), ("malignant", (122, 222))]
    for label, items in groups:
        for i in range(10):
            rows.append(Transaction(tid=f"{label}{i}", items=items, label=label))
    return write_tdb_csv(TransactionDB(transactions=rows))


def full_quantization(**overrides):
    """A quantization document with [0, 1] for every feature but the overridden ones."""
    return {name: [0.0, 1.0] for name in FEATURE_NAMES} | overrides


def dense_labeled_tdb(seed=11, n=150):
    """Seeded labelled TDB: 1-2 regions a row, six feature items each, most at the class profile."""
    rng = np.random.default_rng(seed)
    profile = {"normal": (1, 1, 1, 4, 4, 1), "benign": (3, 3, 3, 2, 2, 3),
               "malignant": (4, 4, 4, 1, 1, 4)}
    rows = []
    for i in range(n):
        label = CLASSES[i % len(CLASSES)]
        items = set()
        for _ in range(1 + (i // len(CLASSES)) % 2):
            for feature, typical in enumerate(profile[label], start=1):
                fine = typical if rng.random() < 0.7 else int(rng.integers(1, 5))
                items.add(encode_item(feature, fine))
        rows.append(Transaction(tid=f"t{i:03d}", items=tuple(sorted(items)), label=label))
    return write_tdb_csv(TransactionDB(transactions=rows))


def make_manifest(tmp_path, n=3):
    lines = ["path,label,split"]
    for i in range(n):
        name = f"img{i}.pgm"
        write_image(tmp_path / name, blob_image(i))
        lines.append(f"{name},benign,train")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n")
    return man


# --------------------------------------------------------------- exit codes


def test_missing_input_exits_2(tmp_path):
    assert main(["preprocess", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pgm")]) == 2


def test_missing_config_or_manifest_exits_2(tmp_path, capsys):
    tdb, nope = tmp_path / "t.csv", tmp_path / "nope.json"
    tdb.write_bytes(labeled_tdb())
    mfi = tmp_path / "m.csv"
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--config", str(nope)]) == 2
    assert str(nope) in capsys.readouterr().err
    assert not mfi.exists()
    out = tmp_path / "out.csv"
    assert main(["features", str(tmp_path / "nope.csv"), str(out)]) == 2
    assert str(tmp_path / "nope.csv") in capsys.readouterr().err
    assert not out.exists()


def test_bad_minconf_exits_3(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    rc = main(
        ["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"),
         "--rules", str(tmp_path / "r.csv"), "--minconf", "1.5"]
    )
    assert rc == 3


def test_rules_without_labels_exits_3(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER + b"a,,1;2\nb,,1\n")
    rc = main(
        ["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(tmp_path / "r.csv")]
    )
    assert rc == 3
    assert (tmp_path / "m.csv").exists()


def test_missing_model_exits_2(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    rc = main(
        ["classify", str(tmp_path / "no-model.json"), "--tdb", str(tdb), str(tmp_path / "p.csv")]
    )
    assert rc == 2


def test_model_version_mismatch_exits_4(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    model = harc.train(read_tdb_csv(labeled_tdb()))
    bad = tmp_path / "model.json"
    bad.write_bytes(harc.model_to_json(model).replace(harc.MODEL_VERSION.encode(), b"harc-0"))
    rc = main(["classify", str(bad), "--tdb", str(tdb), str(tmp_path / "p.csv")])
    assert rc == 4


def test_malformed_model_exits_4(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    doc = json.loads(harc.model_to_json(harc.train(read_tdb_csv(labeled_tdb()))))
    no_rules = dict(doc)
    del no_rules["rules"]
    bad_type = dict(doc, rules=[dict(r, support="half") for r in doc["rules"]])
    assert "attribute" in doc["tree"] and '"leaf": "benign"' in json.dumps(doc)
    out_of_range = dict(doc, tree=dict(doc["tree"], attribute=len(doc["attributes"])))
    negative = dict(doc, tree=dict(doc["tree"], attribute=-1))
    unknown_leaf = json.loads(json.dumps(doc).replace('"leaf": "benign"', '"leaf": "cancer"'))
    unknown_default = dict(doc, default_class="cancer")
    no_config = {k: v for k, v in doc.items() if k != "config"}
    short_config = dict(doc, config={k: v for k, v in doc["config"].items() if k != "sigma"})
    mining_config = dict(doc, config=dict(doc["config"], minsup=0.5))
    bad_config = dict(doc, config=dict(doc["config"], sigma=0))
    nan_range = dict(doc, quantization=full_quantization(area=[float("nan"), 1.0]))
    inverted_range = dict(doc, quantization=full_quantization(area=[2.0, 1.0]))
    one_feature = dict(doc, quantization={"area": [0.0, 1.0]})
    float_split, bool_split, string_split = (dict(doc, tree=dict(doc["tree"], attribute=a))
                                             for a in (0.5, True, "0"))
    rule_edits = ({"class": "cancer"}, {"support": [True, 2]}, {"confidence": [5, 2]},
                  {"antecedent": ["x"]}, {"antecedent": []}, {"antecedent": [221, 111]},
                  {"antecedent": [111, 111]})
    bad_rules = [dict(doc, rules=[*doc["rules"], dict(doc["rules"][0], **edit)])
                 for edit in rule_edits]  # an extra rule, so every attribute still finds its own
    assert json.dumps(doc).count('{"benign": 10}') == 1
    bad_distribution = json.loads(
        json.dumps(doc).replace('{"benign": 10}', '{"benign": "lots", "x": null}'))
    pair_distribution = json.loads(  # dict() would read it, merging the repeated class
        json.dumps(doc).replace('{"benign": 10}', '[["benign", 3], ["benign", 10]]'))
    broken_docs = (no_rules, bad_type, out_of_range, negative, unknown_leaf, unknown_default,
                   no_config, short_config, mining_config, bad_config, nan_range, inverted_range,
                   one_feature, float_split, bool_split, string_split, *bad_rules, bad_distribution,
                   pair_distribution)
    for text in [*map(json.dumps, broken_docs), "[" * 100_000]:
        model = tmp_path / "model.json"
        model.write_text(text)
        assert main(["classify", str(model), "--tdb", str(tdb), str(tmp_path / "p.csv")]) == 4
    capsys.readouterr()
    for text in ("[]", '"model"'):  # valid JSON, but not an object
        model.write_text(text)
        assert main(["classify", str(model), "--tdb", str(tdb), str(tmp_path / "p.csv")]) == 4
        assert capsys.readouterr().err == f"imgmine: {model}: model JSON is not an object\n"


def test_config_value_of_wrong_type_exits_3(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sigma": "big"}')
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--config", str(cfg)]) == 3


def test_unknown_magnitude_mode_exits_3(tmp_path, capsys):
    """magnitude_mode, levels and attribute_cap are no longer settings: a config naming one exits 3."""
    man = make_manifest(tmp_path, n=2)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "tdb.csv"
    for key, value in (("magnitude_mode", "exact"), ("levels", 2), ("attribute_cap", 64)):
        cfg.write_text(json.dumps({key: value}))
        assert main(["features", str(man), str(out), "--config", str(cfg)]) == 3
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not out.exists()


# Each case names the start of the one stderr line after "imgmine: " ({cfg} is the file), or
# the whole line when it ends in a newline. Nine ids are the ones pytest derives from a bare
# substring message, kept so that each case keeps its name.
@pytest.mark.parametrize(
    "doc, flags, message",
    [
        pytest.param("5", [], "{cfg}: not a JSON object\n", id="5-flags0-not a JSON object"),
        pytest.param("null", [], "{cfg}: not a JSON object\n", id="null-flags1-not a JSON object"),
        pytest.param("[]", [], "{cfg}: not a JSON object\n", id="[]-flags2-not a JSON object"),
        pytest.param('"ab"', [], "{cfg}: not a JSON object\n", id='"ab"-flags3-not a JSON object'),
        pytest.param('{"sigma": Infinity}', [], "{cfg}: config value sigma=inf is not finite\n",
                     id='{"sigma": Infinity}-flags4-not finite'),
        pytest.param('{"sigma": NaN}', [], "{cfg}: config value sigma=nan is not finite\n",
                     id='{"sigma": NaN}-flags5-not finite'),
        pytest.param('{"sigma": -Infinity}', [], "{cfg}: config value sigma=-inf is not finite\n",
                     id='{"sigma": -Infinity}-flags6-not finite'),
        pytest.param('{"canny_low": 1, "canny_high": Infinity}', [],
                     "{cfg}: config value canny_high=inf is not finite\n",
                     id='{"canny_low": 1, "canny_high": Infinity}-flags7-not finite'),
        pytest.param("{}", ["--sigma", "nan"], "--sigma: config value sigma=nan is not finite\n",
                     id="{}-flags8-not finite"),
        pytest.param('{"sigma": 1e300}', [], "{cfg}: sigma must lie in [0.2, 100]\n", id="sigma-1e300"),
        pytest.param('{"sigma": 1e-300}', [], "{cfg}: sigma must lie in [0.2, 100]\n", id="sigma-1e-300"),
        pytest.param('{"sigma": 1e-10}', [], "{cfg}: sigma must lie in [0.2, 100]\n", id="sigma-1e-10"),
        pytest.param('{"sigma": %r}' % math.nextafter(MIN_SIGMA, 0), [],
                     "{cfg}: sigma must lie in [0.2, 100]\n", id="sigma-just-below-the-bound"),
        pytest.param("{}", ["--sigma", "0.19"], "--sigma: sigma must lie in [0.2, 100]\n",
                     id="flag-sigma-below-min"),
        pytest.param('{"sigma": 1%s}' % ("0" * 400), [],
                     "{cfg}: config value sigma=1%s is not finite\n" % ("0" * 400), id="huge-int-sigma"),
        pytest.param('{"canny_low": 0, "canny_high": 1%s}' % ("0" * 400), [],
                     "{cfg}: config value canny_high=1%s is not finite\n" % ("0" * 400),
                     id="huge-int-canny-high"),
        pytest.param("[" * 100_000, [],
                     "{cfg}: maximum recursion depth exceeded while decoding a JSON array",
                     id="deeply-nested"),
        pytest.param("\udcff\udcfe", [],
                     "{cfg}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
                     id="not-utf8"),
        pytest.param('{"sigma": 1%s}' % ("0" * 5000), [],
                     "{cfg}: Exceeds the limit (4300 digits) for integer string conversion",
                     id="int-beyond-the-digit-limit"),
        pytest.param('{"min_area": 2.5}', [], "{cfg}: config value min_area=2.5 has the wrong type\n",
                     id="float-min-area"),
        pytest.param('{"sigma": true}', [], "{cfg}: config value sigma=True has the wrong type\n",
                     id="bool-sigma"),
        pytest.param('{"equalize": 1}', [], "{cfg}: config value equalize=1 has the wrong type\n",
                     id="int-equalize"),
        pytest.param('{"minsup": 0}', [], "{cfg}: minsup must lie in (0, 1]\n", id="zero-minsup"),
        pytest.param('{"minconf": 1.5}', [], "{cfg}: minconf must lie in (0, 1]\n", id="minconf-above-1"),
        pytest.param('{"min_area": 0}', [], "{cfg}: min_area must be >= 1\n", id="zero-min-area"),
        pytest.param('{"canny_low": 1}', [], "{cfg}: set both canny_low and canny_high or neither\n",
                     id="canny-low-alone"),
        pytest.param('{"canny_low": 5, "canny_high": 4}', [], "{cfg}: need 0 <= canny_low <= canny_high\n",
                     id="canny-inverted"),
        pytest.param("{}", ["--min-area", "0"], "--min-area: min_area must be >= 1\n",
                     id="flag-zero-min-area"),
        pytest.param("{}", ["--sigma", "101"], "--sigma: sigma must lie in [0.2, 100]\n",
                     id="flag-sigma-above-max"),
        pytest.param("{}", ["--canny-high", "9"],
                     "--canny-high: set both canny_low and canny_high or neither\n",
                     id="flag-canny-high-alone"),
        pytest.param('{"canny_low": 5, "canny_high": 9}', ["--canny-low", "10"],
                     "--canny-low: need 0 <= canny_low <= canny_high\n", id="flag-inverts-file-canny"),
        pytest.param('{"sigma": -1}', ["--sigma", "2"], "{cfg}: sigma must lie in [0.2, 100]\n",
                     id="flag-cannot-mend-a-bad-file"),
    ],
)
def test_bad_config_document_exits_3(tmp_path, capsys, doc, flags, message):
    """Each error names its source, the file or the flags, and then the reason."""
    man = make_manifest(tmp_path, n=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(doc.encode("utf-8", "surrogateescape"))
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out), "--config", str(cfg), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("imgmine: " + message.format(cfg=cfg)) and err.count("\n") == 1
    assert not out.exists()


def test_a_sigma_at_the_bound_extracts(tmp_path):
    man, cfg, out = make_manifest(tmp_path, n=2), tmp_path / "cfg.json", tmp_path / "tdb.csv"
    cfg.write_text(json.dumps({"sigma": MIN_SIGMA}))
    assert MIN_SIGMA == 0.2
    assert main(["features", str(man), str(out), "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "tdb.csv.config.json").read_text())["sigma"] == MIN_SIGMA


SETTINGS = {"--config", "--sigma", "--canny-low", "--canny-high", "--min-area", "--no-equalize",
            "--minsup", "--minconf", "--seed"}
IMAGE = {"--sigma", "--canny-low", "--canny-high", "--min-area", "--no-equalize"}
MINING = {"--minsup", "--minconf"}


def test_a_config_value_error_names_its_source(tmp_path, capsys):
    """The same bad sigma from the record beside a TDB, from --config and from --sigma."""
    tdb, model = tmp_path / "t.csv", tmp_path / "model.json"
    tdb.write_bytes(labeled_tdb())
    record, cfg = tmp_path / "t.csv.config.json", tmp_path / "cfg.json"
    record.write_text('{"sigma": 0}')
    cfg.write_text('{"sigma": 0}')
    man, out = make_manifest(tmp_path, n=2), tmp_path / "f.csv"
    errors = []
    for argv in (["train", "--tdb", str(tdb), str(model)],
                 ["features", str(man), str(out), "--config", str(cfg)],
                 ["features", str(man), str(out), "--sigma", "0"]):
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert errors == [f"imgmine: {record}: sigma must lie in [0.2, 100]\n",
                      f"imgmine: {cfg}: sigma must lie in [0.2, 100]\n",
                      "imgmine: --sigma: sigma must lie in [0.2, 100]\n"]
    assert not model.exists() and not out.exists()


def test_each_command_takes_only_the_settings_it_reads():
    commands = build_parser()._subparsers._group_actions[0].choices
    flags = {
        name: {opt for action in p._actions for opt in action.option_strings} & SETTINGS
        for name, p in commands.items()
    }
    assert flags == {
        "preprocess": {"--config", "--no-equalize"},
        "features": {"--config"} | IMAGE,
        "mine": {"--config"} | MINING,
        "train": {"--config"} | MINING,
        "classify": {"--config"},
        "evaluate": set(),
        "synth": {"--seed"},
    }
    assert sum(map(len, flags.values())) == 16


def test_each_command_takes_exactly_these_arguments():
    """Every argument of every command, positional or not, in the order --help lists it."""
    commands = build_parser()._subparsers._group_actions[0].choices
    arguments = {
        name: ["/".join(action.option_strings) or action.dest for action in p._actions
               if action.dest != "help"]
        for name, p in commands.items()
    }
    assert arguments == {
        "preprocess": ["input", "output", "--dump-dir", "--config", "--no-equalize"],
        "features": ["manifest", "output", "--config", "--sigma", "--canny-low", "--canny-high",
                     "--no-equalize", "--min-area"],
        "mine": ["tdb", "--mfi", "--rules", "--config", "--minsup", "--minconf"],
        "train": ["--tdb", "output", "--config", "--minsup", "--minconf"],
        "classify": ["model", "--manifest", "--image", "--tdb", "output", "--config"],
        "evaluate": ["predictions", "manifest", "--split", "--output"],
        "synth": ["out_dir", "--per-class", "--seed"],
    }
    assert sum(map(len, arguments.values())) == 37


def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    man = make_manifest(tmp_path, n=2)
    inputs = sorted(tmp_path.rglob("*"))
    for argv, message, output in [
        (["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--sigma", "2"],
         "unrecognized arguments: --sigma 2", tmp_path / "m.csv"),
        (["train", "--manifest", str(man), str(tmp_path / "model.json")],
         "the following arguments are required: --tdb", tmp_path / "model.json"),
        (["train", "--tdb", str(tdb), "--manifest", str(man), str(tmp_path / "model.json")],
         "unrecognized arguments: --manifest", tmp_path / "model.json"),
        (["train", "--tdb", str(tdb), str(tmp_path / "model.json"), "--sigma", "2"],
         "unrecognized arguments: --sigma 2", tmp_path / "model.json"),
        (["features", str(man), str(tmp_path / "f.csv"), "--quant-out", str(tmp_path / "q.json")],
         "unrecognized arguments: --quant-out", tmp_path / "f.csv"),
        (["train", "--tdb", str(tdb), str(tmp_path / "model.json"), "--quant", str(tmp_path / "q.json")],
         "unrecognized arguments: --quant", tmp_path / "model.json"),
        (["synth", str(tmp_path / "corpus"), "--train-frac", "0.5"],
         "unrecognized arguments: --train-frac 0.5", tmp_path / "corpus"),
        (["synth", str(tmp_path / "corpus"), "--config", str(tmp_path / "cfg.json")],
         "unrecognized arguments: --config", tmp_path / "corpus"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not output.exists()
        assert sorted(tmp_path.rglob("*")) == inputs


def test_evaluate_unknown_predicted_label_exits_3(tmp_path):
    pred = tmp_path / "pred.csv"
    pred.write_text("path,predicted,fired_rule_count\na.pgm,cancerous,0\n")
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\na.pgm,benign,test\n")
    assert main(["evaluate", str(pred), str(man)]) == 3


def test_evaluate_path_predicted_twice_exits_3(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text(
        "path,predicted,fired_rule_count\n"
        "a.pgm,normal,0\nb.pgm,benign,0\nb.pgm,benign,0\nb.pgm,normal,0\n"
    )
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\na.pgm,normal,test\nb.pgm,benign,test\n")
    assert main(["evaluate", str(pred), str(man)]) == 3
    assert capsys.readouterr().err == f"imgmine: {pred}: line 4: b.pgm predicted twice\n"


def test_evaluate_skips_a_predicted_path_without_a_label(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("path,predicted,fired_rule_count\na.pgm,malignant,0\nb.pgm,benign,0\n"
                    "c.pgm,normal,0\n")
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\na.pgm,,test\nb.pgm,benign,test\nc.pgm,normal,test\n")
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", str(pred), str(man), "--output", str(out)]) == 0
    assert capsys.readouterr().err == "imgmine: warning: a.pgm has no label in manifest; skipped\n"
    matrix = metrics.MultiClassMatrix.from_pairs([("benign", "benign"), ("normal", "normal")])
    assert out.read_bytes() == metrics.report(matrix)[1]


def test_evaluate_undefined_measure_exits_3(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("path,predicted,fired_rule_count\na.pgm,normal,0\n")
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\na.pgm,benign,test\n")  # no normal image: no specificity
    assert main(["evaluate", str(pred), str(man)]) == 3
    assert "specificity is undefined" in capsys.readouterr().err


@pytest.mark.parametrize(
    "quant",
    ["[]", '{"area": [1]}', '{"area": null}', '{"area": [0, 1%s]}' % ("0" * 400), "[" * 100_000,
     json.dumps(full_quantization(area=[float("nan"), 1.0])),
     json.dumps(full_quantization(area=[2.0, 1.0])),
     json.dumps(full_quantization(area=["0", "1"])),
     json.dumps(full_quantization(volume=[0.0, 1.0])),
     '{"area": [0, 1]}', "not json", "\udcff\udcfe"],
    ids=["list", "one-bound", "null", "huge-int", "deeply-nested", "nan", "inverted", "strings",
         "unknown-feature", "one-feature", "not-json", "not-utf8"],
)
def test_malformed_quantization_exits_3(tmp_path, capsys, quant):
    """Each error names the file, whatever it found wrong there."""
    tdb, path = tmp_path / "t.csv", tmp_path / "t.csv.quant.json"
    tdb.write_bytes(labeled_tdb())
    (tmp_path / "t.csv.config.json").write_bytes(config_to_json(PipelineConfig(), EXTRACTION_KEYS))
    path.write_bytes(quant.encode("utf-8", "surrogateescape"))
    model = tmp_path / "model.json"
    assert main(["train", "--tdb", str(tdb), str(model)]) == 3
    assert capsys.readouterr().err.startswith(f"imgmine: {path}: ")
    assert not model.exists()


def test_csv_field_beyond_the_csv_module_limit_exits_3(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER + b"t" * 200_000 + b",,1;2\n")
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv")]) == 3


def test_features_without_train_regions_exits_3(tmp_path, capsys):
    write_image(tmp_path / "flat.pgm", np.full((32, 32), 90))
    write_image(tmp_path / "blob.pgm", blob_image())
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\nflat.pgm,normal,train\nblob.pgm,benign,test\n")
    assert main(["features", str(man), str(tmp_path / "tdb.csv")]) == 3
    assert "missing range" in capsys.readouterr().err


def test_classify_image_with_model_lacking_quantization_exits_4(tmp_path, capsys):
    """With no ranges a model cannot turn an image into items, even one with no object."""
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())  # no t.csv.quant.json beside it
    model = tmp_path / "model.json"
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    write_image(tmp_path / "blob.pgm", blob_image())
    write_image(tmp_path / "flat.pgm", np.full((32, 32), 90))
    for image in ("blob.pgm", "flat.pgm"):
        pred = tmp_path / "pred.csv"
        rc = main(["classify", str(model), "--image", str(tmp_path / image), str(pred)])
        assert rc == 4
        assert "has no quantization" in capsys.readouterr().err
        assert not pred.exists()


def test_malformed_tdb_exits_3(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER + b"a,,1;x\n")
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv")]) == 3


@pytest.mark.parametrize("rows, message", [
    (b"a,,1;0\n", "line 2: items must be positive integers"),
    (b"a,,1;-4\n", "line 2: items must be positive integers"),
    (b"a,cancer,1\n", "line 2: unknown class label 'cancer'"),
    # int() reads each of these as an item; write_tdb_csv writes ASCII digits only
    (b"a,,1_21\n", "line 2: non-numeric item in '1_21'"),
    (b"a,,+111\n", "line 2: non-numeric item in '+111'"),
    (b"a,, 111\n", "line 2: non-numeric item in ' 111'"),
    ("a,,\u0661\u0661\u0661\n".encode(), "line 2: non-numeric item in '\u0661\u0661\u0661'"),
], ids=["zero-item", "negative-item", "unknown-label", "underscore", "plus-sign", "space",
        "arabic-indic-digits"])
def test_invalid_transaction_row_exits_3(tmp_path, capsys, rows, message):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER + rows)
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err == f"imgmine: {tdb}: {message}\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ("a.pgm,benign,train\na.pgm,normal,test\n", "duplicate image paths in manifest"),
    ("a.pgm,benign,dev\n", "unknown split 'dev' for a.pgm"),
    ("a.pgm,cancer,test\n", "unknown label 'cancer' for a.pgm"),
], ids=["duplicate-path", "unknown-split", "unknown-label"])
def test_malformed_manifest_exits_3(tmp_path, capsys, rows, message):
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\n" + rows)
    pred = tmp_path / "pred.csv"
    pred.write_text("path,predicted,fired_rule_count\na.pgm,normal,0\n")
    for argv in (["features", str(man), str(tmp_path / "f.csv")], ["evaluate", str(pred), str(man)]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"imgmine: {man}: {message}\n"
    assert not (tmp_path / "f.csv").exists()


def test_tdb_holding_a_class_code_exits_3(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    rows = b"a,normal,111;902\nb,normal,111;902\nc,benign,121\nd,benign,121\n"
    tdb.write_bytes(TDB_HEADER + rows)
    args = ["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(tmp_path / "r.csv")]
    assert main(args) == 3
    assert "line 2: item 902 is a reserved class code" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def _no_labels(tmp_path):
    tdb, mfi, rules = tmp_path / "t.csv", tmp_path / "m.csv", tmp_path / "r.csv"
    tdb.write_bytes(TDB_HEADER + b"a,,1;2\nb,,1\n")
    return (["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules)], rules,
            "rules requested but the transaction database has no labels")


def _predictions(rows, manifest_rows, message):
    """evaluate on these predictions and manifest rows; the message may name {pred}."""
    def case(tmp_path):
        pred, man, out = tmp_path / "pred.csv", tmp_path / "manifest.csv", tmp_path / "metrics.csv"
        pred.write_text("path,predicted,fired_rule_count\n" + rows)
        man.write_text("path,label,split\n" + manifest_rows)
        return ["evaluate", str(pred), str(man), "--output", str(out)], out, message.format(pred=pred)
    return case


def _classify_tdb(model_bytes, message, config=None):
    """classify --tdb with a model file of these bytes; the message may name {model} and {cfg}."""
    def case(tmp_path):
        tdb, model, pred, cfg = (tmp_path / name for name in ("t.csv", "model.json", "p.csv", "cfg.json"))
        tdb.write_bytes(labeled_tdb())
        model.write_bytes(model_bytes())
        argv = ["classify", str(model), "--tdb", str(tdb), str(pred)]
        if config is not None:
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        return argv, pred, message.format(model=model, cfg=cfg)
    return case


def _trained_model():
    return harc.model_to_json(harc.train(read_tdb_csv(labeled_tdb())))


def _no_quantization(tmp_path):
    model, image, pred = tmp_path / "model.json", tmp_path / "blob.pgm", tmp_path / "p.csv"
    model.write_bytes(_trained_model())
    write_image(image, blob_image())
    return (["classify", str(model), "--image", str(image), str(pred)], pred,
            f"model {model} has no quantization: it classifies transactions, not images")


def _train_disagrees(tmp_path):
    tdb, model, cfg = tmp_path / "t.csv", tmp_path / "model.json", tmp_path / "cfg.json"
    tdb.write_bytes(labeled_tdb())
    (tmp_path / "t.csv.quant.json").write_text("{}")
    (tmp_path / "t.csv.config.json").write_bytes(config_to_json(PipelineConfig(), EXTRACTION_KEYS))
    cfg.write_text('{"sigma": 2.0, "min_area": 9}')
    return (["train", "--tdb", str(tdb), str(model), "--config", str(cfg)], model,
            f"config {cfg} and record {tdb}.config.json disagree on sigma, min_area")


# Each failure a command reports as it stops: (exit code, the case's files), where a case
# returns (argv, the output it must not write, the one message on stderr).
STOPS = {
    "rules-without-labels": (3, _no_labels),
    "bad-prediction-row": (3, _predictions("a.pgm,normal,0\nb.pgm,cancerous,0\n",
                                           "a.pgm,normal,test\n", "{pred}: line 3: bad prediction row")),
    "short-prediction-row": (3, _predictions("a.pgm,normal\n", "a.pgm,normal,test\n",
                                             "{pred}: line 2: expected 'path,predicted,fired_rule_count'")),
    "path-predicted-twice": (3, _predictions("a.pgm,normal,0\nb.pgm,benign,0\nb.pgm,benign,0\n",
                                             "a.pgm,normal,test\nb.pgm,benign,test\n",
                                             "{pred}: line 4: b.pgm predicted twice")),
    "no-labeled-predictions": (3, _predictions("a.pgm,normal,0\nb.pgm,benign,0\n", "c.pgm,benign,test\n",
                                               "no labeled predictions to evaluate")),
    "unreadable-model": (4, _classify_tdb(lambda: b"not json",
                                          "{model}: unreadable model: "
                                          "Expecting value: line 1 column 1 (char 0)")),
    "model-version": (4, _classify_tdb(lambda: _trained_model().replace(b"harc-2", b"harc-0"),
                                       "{model}: model version 'harc-0' != harc-2")),
    "malformed-model": (4, _classify_tdb(lambda: _trained_model().replace(b'"rules"', b'"rulez"'),
                                         "{model}: malformed model: KeyError: 'rules'")),
    "model-lacks-quantization": (4, _no_quantization),
    "classify-config-disagrees": (4, _classify_tdb(_trained_model,
                                                   "config {cfg} and model {model} disagree on sigma",
                                                   config='{"sigma": 2.0}')),
    "train-config-disagrees": (4, _train_disagrees),
}


@pytest.mark.parametrize("case", list(STOPS))
def test_a_command_that_stops_gives_its_exit_code_and_one_message(tmp_path, capsys, case):
    code, make = STOPS[case]
    argv, output, message = make(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"imgmine: {message}\n")
    assert not output.exists()
    if case == "rules-without-labels":
        assert (tmp_path / "m.csv").exists()  # the MFI is written before the rules check


def returned_codes(tree):
    """The source of each return value in each cmd_* function, split at conditionals."""
    def leaves(value):
        if isinstance(value, ast.IfExp):
            return leaves(value.body) + leaves(value.orelse)
        return [ast.unparse(value) if value is not None else "None"]

    return {
        node.name: [code for ret in ast.walk(node) if isinstance(ret, ast.Return)
                    for code in leaves(ret.value)]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }


def test_returned_codes_detected():
    tree = ast.parse("def cmd_a():\n    if x:\n        return EXIT_IO\n    return EXIT_OK if y else 3\n"
                     "def helper():\n    return EXIT_MODEL\n")
    assert {name: sorted(codes) for name, codes in returned_codes(tree).items()} == {
        "cmd_a": ["3", "EXIT_IO", "EXIT_OK"]}


def test_only_main_turns_a_failure_into_an_exit_code():
    """A command returns EXIT_OK or EXIT_PARTIAL and raises on failure; main maps the
    exception to exit 2, 3 or 4. ModelError lives in config, which main already loads."""
    from imgmine import config

    codes = returned_codes(ast.parse(Path(cli.__file__).read_text()))
    assert len(codes) == 7 and all(codes.values())
    assert {code for each in codes.values() for code in each} <= {"EXIT_OK", "EXIT_PARTIAL"}
    assert harc.ModelError is config.ModelError


def valid_inputs(tmp_path):
    """A valid file of each input kind, by kind; the model holds a quantization, and the
    manifest names a flat image and the blob, both for training."""
    paths = {kind: tmp_path / name for kind, name in (
        ("tdb", "t.csv"), ("record", "t.csv.config.json"), ("quant", "t.csv.quant.json"),
        ("model", "model.json"), ("manifest", "manifest.csv"), ("pred", "pred.csv"),
        ("config", "cfg.json"), ("image", "blob.pgm"))}
    paths["tdb"].write_bytes(labeled_tdb())
    paths["record"].write_bytes(config_to_json(PipelineConfig(), EXTRACTION_KEYS))
    paths["quant"].write_text(json.dumps(full_quantization()))
    quantization = QuantizationModel.from_dict(full_quantization())
    paths["model"].write_bytes(harc.model_to_json(harc.train(read_tdb_csv(labeled_tdb()),
                                                             quantization=quantization)))
    paths["manifest"].write_text("path,label,split\nflat.pgm,normal,train\nblob.pgm,benign,train\n")
    paths["pred"].write_text("path,predicted,fired_rule_count\nflat.pgm,normal,0\nblob.pgm,benign,0\n")
    paths["config"].write_text("{}")
    write_image(paths["image"], blob_image())
    write_image(tmp_path / "flat.pgm", np.full((32, 32), 90))
    return paths


# Each command that reads an input file, with the kinds it reads and the one output it writes.
INPUT_COMMANDS = {
    "mine": ["mine", "{tdb}", "--mfi", "{out}", "--config", "{config}"],
    "train": ["train", "--tdb", "{tdb}", "{out}"],
    "classify-tdb": ["classify", "{model}", "--tdb", "{tdb}", "{out}"],
    "classify-image": ["classify", "{model}", "--image", "{image}", "{out}"],
    "features": ["features", "{manifest}", "{out}"],
    "evaluate": ["evaluate", "{pred}", "{manifest}", "--output", "{out}"],
    "preprocess": ["preprocess", "{image}", "{out}"],
}
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
# (command, the kind of its input file that is bad, the file's bytes or None for a missing
# file, exit code, the reason after the file's path)
INPUT_ERRORS = {
    "tdb-row": ("mine", "tdb", TDB_HEADER + b"a,,1;x\n", 3, "line 2: non-numeric item in '1;x'"),
    "tdb-not-utf8": ("mine", "tdb", b"\xff", 3, NOT_UTF8),
    "tdb-of-train": ("train", "tdb", TDB_HEADER + b"a,,1\na,,2\n", 3, "line 3: duplicate tid 'a'"),
    "tdb-of-classify": ("classify-tdb", "tdb", b"a,b\n", 3, "line 1: expected 'tid,label,items'"),
    "tdb-beyond-the-csv-field-limit": ("mine", "tdb", b"t" * 200_000 + b",,1\n", 3,
                                       "field larger than field limit (131072)"),
    "model": ("classify-tdb", "model", b"[]", 4, "model JSON is not an object"),
    "model-not-utf8": ("classify-tdb", "model", b"\xff", 4, f"unreadable model: {NOT_UTF8}"),
    "manifest": ("features", "manifest", b"path,label,split\na.pgm,benign,dev\n", 3,
                 "unknown split 'dev' for a.pgm"),
    "manifest-not-utf8": ("features", "manifest", b"\xff", 3, NOT_UTF8),
    "manifest-of-evaluate": ("evaluate", "manifest", b"a.pgm\n", 3, "line 1: expected 'path,label,split'"),
    "predictions": ("evaluate", "pred", b"a.pgm,normal\n", 3,
                    "line 1: expected 'path,predicted,fired_rule_count'"),
    "predictions-not-utf8": ("evaluate", "pred", b"\xff", 3, NOT_UTF8),
    "config": ("mine", "config", b"[]", 3, "not a JSON object"),
    "record": ("train", "record", b'{"sigma": 0}', 3, "sigma must lie in [0.2, 100]"),
    "record-not-utf8": ("train", "record", b"\xff", 3, NOT_UTF8),
    "quantization": ("train", "quant", b"not json", 3, "Expecting value: line 1 column 1 (char 0)"),
    "pgm-of-preprocess": ("preprocess", "image", b"\xff", 2, "bad magic b'\\xff' at byte 0 (expected P5)"),
    "pgm-of-classify": ("classify-image", "image", b"P5 2 2 15\n" + bytes([1, 2, 200, 3]), 2,
                        "pixel 200 above maxval 15 at byte 12"),
    **{f"missing-{kind}-of-{command}": (command, kind, None, 2, None) for command, kind in (
        ("mine", "tdb"), ("classify-tdb", "model"), ("features", "manifest"), ("evaluate", "pred"),
        ("mine", "config"), ("preprocess", "image"), ("classify-image", "image"))},
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_every_input_error_names_its_file(tmp_path, capsys, case):
    """A bad input file gives 'imgmine: PATH: reason' and its kind's exit code; a missing one
    gives the OS's message, which names the path, and exit 2. No output is written."""
    command, kind, content, code, reason = INPUT_ERRORS[case]
    paths = valid_inputs(tmp_path)
    bad, out = paths[kind], tmp_path / "out"
    if content is None:
        bad.unlink()
        line = f"[Errno 2] No such file or directory: '{bad}'"
    else:
        bad.write_bytes(content)
        line = f"{bad}: {reason}"
    argv = [arg.format(out=out, **paths) for arg in INPUT_COMMANDS[command]]
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"imgmine: {line}\n")
    assert not out.exists()


# Each command that reads a CSV, with the kind that starts with a byte-order mark.
BOM_CASES = {
    "features-manifest": ("features", "manifest"),
    "evaluate-predictions": ("evaluate", "pred"),
    "evaluate-manifest": ("evaluate", "manifest"),
    "mine-tdb": ("mine", "tdb"),
    "classify-tdb": ("classify-tdb", "tdb"),
}


@pytest.mark.parametrize("case", list(BOM_CASES))
def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path, capsys, case):
    """A CSV saved with a UTF-8 byte-order mark, as spreadsheet tools save one, reads as the
    same file without it: the same exit code, output and bytes of every file written."""
    command, kind = BOM_CASES[case]
    runs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        work = tmp_path / name
        work.mkdir()
        paths = valid_inputs(work)
        paths[kind].write_bytes(prefix + paths[kind].read_bytes())
        before = set(work.iterdir())
        capsys.readouterr()
        code = main([arg.format(out=work / "out", **paths) for arg in INPUT_COMMANDS[command]])
        captured = capsys.readouterr()
        written = {p.name: p.read_bytes() for p in sorted(set(work.iterdir()) - before)}
        runs.append((code, captured.out, captured.err.replace(str(work), "DIR"), written))
    assert runs[0][0] == 0 and "out" in runs[0][3]
    assert runs[1] == runs[0]


def file_reads(tree):
    """The top-level definition around each call that reads a file: .read_bytes(), .read_text()
    or the builtin open(); "<module>" for a call outside any definition."""
    found = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr in ("read_bytes", "read_text")
                    or isinstance(node.func, ast.Name) and node.func.id == "open"):
                found.append(name)
    return found


def test_file_reads_detected():
    tree = ast.parse("import x\nx.open('a')\n"
                     "def f(p):\n    def g():\n        return open(p)\n    return p.read_text()\n"
                     "class C:\n    def m(self, p):\n        return p.read_bytes()\n"
                     "with open('b') as h:\n    pass\n")
    assert sorted(file_reads(tree)) == ["<module>", "C", "f", "f"]


def test_only_read_input_reads_a_file():
    """config.read_input reads every input file, so each of their errors names its file."""
    package = Path(cli.__file__).parent
    readers = {(path.stem, name) for path in sorted(package.glob("*.py"))
               for name in file_reads(ast.parse(path.read_text()))}
    assert readers == {("config", "read_input")}


def file_writes(tree):
    """The top-level definition around each .write_text() call; "<module>" outside any."""
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write_text"]


def test_file_writes_detected():
    tree = ast.parse("import x\nx.write_text('a')\nwrite_text('b')\n"
                     "def f(p):\n    def g():\n        return p.write_text('c')\n    return p.write_bytes(b'')\n"
                     "class C:\n    def m(self, p):\n        p.write_text('d')\n")
    assert sorted(file_writes(tree)) == ["<module>", "C", "f"]


def test_no_module_writes_text():
    """Every file the package writes is bytes it encoded as UTF-8 itself, never text in the
    locale's encoding."""
    package = Path(cli.__file__).parent
    writers = {(path.stem, name) for path in sorted(package.glob("*.py"))
               for name in file_writes(ast.parse(path.read_text()))}
    assert writers == set()


# --------------------------------------------------------------- preprocess


def test_preprocess_writes_stage_dumps(tmp_path):
    src = tmp_path / "in.pgm"
    write_image(src, blob_image())
    out = tmp_path / "out.pgm"
    dump = tmp_path / "stages"
    rc = main(["preprocess", str(src), str(out), "--dump-dir", str(dump)])
    assert rc == 0
    names = sorted(p.name for p in dump.iterdir())
    assert names == ["stage1_equalized.pgm", "stage2_median.pgm"]
    assert out.read_bytes() == (dump / "stage2_median.pgm").read_bytes()
    read_pgm(out.read_bytes())  # parses back cleanly


def test_preprocess_dumps_the_stages_the_pipeline_uses(tmp_path):
    src, out, dump = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "stages"
    write_image(src, blob_image())
    img = read_pgm(src.read_bytes())
    for flags, cfg in (([], PipelineConfig()), (["--no-equalize"], PipelineConfig(equalize=False))):
        assert main(["preprocess", str(src), str(out), "--dump-dir", str(dump), *flags]) == 0
        stage1 = equalize(img) if cfg.equalize else img
        assert (dump / "stage1_equalized.pgm").read_bytes() == write_pgm(stage1)
        assert out.read_bytes() == write_pgm(pipeline.preprocess_image(img, cfg))


def test_preprocess_no_equalize_keeps_range(tmp_path):
    src = tmp_path / "in.pgm"
    write_image(src, np.full((8, 8), 42))
    out = tmp_path / "out.pgm"
    assert main(["preprocess", str(src), str(out), "--no-equalize"]) == 0
    assert (read_pgm(out.read_bytes()).pixels == 42).all()


# ----------------------------------------------------------------- features


def test_features_one_row_per_image(tmp_path):
    man = make_manifest(tmp_path, n=3)
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out)]) == 0
    db = read_tdb_csv(out.read_bytes())
    assert len(db.transactions) == 3
    assert {t.label for t in db.transactions} == {"benign"}
    assert (tmp_path / "tdb.csv.quant.json").exists()


def test_features_deterministic(tmp_path):
    man = make_manifest(tmp_path, n=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["features", str(man), str(a)]) == 0
    assert main(["features", str(man), str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_features_degenerate_images_have_no_object(tmp_path):
    """1x1, 1x9, 2x2 and a 64x64 one-pixel checkerboard yield no region: item 999 each."""
    images = {"one.pgm": np.full((1, 1), 128), "row.pgm": np.arange(9).reshape(1, 9) * 30,
              "two.pgm": [[0, 255], [255, 0]],
              "checker.pgm": (np.indices((64, 64)).sum(axis=0) % 2) * 255}
    for name, pixels in images.items():
        write_image(tmp_path / name, pixels)
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\n" + "".join(f"{name},normal,train\n" for name in images))
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out)]) == 0
    db = read_tdb_csv(out.read_bytes())
    assert [t.tid for t in db.transactions] == list(images)
    assert all(t.items == (999,) for t in db.transactions)


def test_features_drop_a_region_without_a_horizontal_pair(tmp_path):
    """A 40x1 step image has one region at --min-area 1, one column wide: no GLCM pair."""
    pixels = np.repeat([0, 255], 20).reshape(40, 1)
    cfg = PipelineConfig(min_area=1)
    pre = pipeline.preprocess_image(GrayImage(pixels.astype(np.uint8)), cfg)
    assert len(extract_regions(pipeline.detect_edges(pre, cfg), pre, min_area=1)) == 1
    write_image(tmp_path / "step.pgm", pixels)
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\nstep.pgm,benign,train\n")
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out), "--min-area", "1"]) == 0
    assert [t.items for t in read_tdb_csv(out.read_bytes()).transactions] == [(999,)]


def test_pixel_above_maxval_exits_2_and_is_skipped_by_features(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5 2 2 15\n" + bytes([1, 2, 200, 3]))
    assert main(["preprocess", str(bad), str(tmp_path / "out.pgm")]) == 2
    assert "byte 12" in capsys.readouterr().err
    man = make_manifest(tmp_path, n=2)
    man.write_text(man.read_text() + "bad.pgm,normal,train\n")
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out)]) == 1
    assert [t.tid for t in read_tdb_csv(out.read_bytes()).transactions] == ["img0.pgm", "img1.pgm"]


def test_preprocess_rescales_a_maxval_below_255(tmp_path):
    src, out = tmp_path / "white.pgm", tmp_path / "out.pgm"
    src.write_bytes(b"P5 3 3 15\n" + bytes([15] * 9))
    assert main(["preprocess", str(src), str(out), "--no-equalize"]) == 0
    assert out.read_bytes() == b"P5\n3 3\n255\n" + bytes([255] * 9)


NO_REGION_WARNING = "no training image yields a region, so the quantization is empty"


def test_manifest_without_a_training_region_warns(tmp_path, capsys):
    """features warns and exits 0; train on its TDB is silent, and its model has no ranges."""
    for i in range(3):
        write_image(tmp_path / f"flat{i}.pgm", np.full((32, 32), 90 + i))
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\nflat0.pgm,normal,train\nflat1.pgm,benign,train\n"
                   "flat2.pgm,normal,test\n")
    tdb, model = tmp_path / "tdb.csv", tmp_path / "model.json"
    assert main(["features", str(man), str(tdb)]) == 0
    assert capsys.readouterr().err.count(NO_REGION_WARNING) == 1
    assert (tmp_path / "tdb.csv.quant.json").read_text() == "{}\n"
    assert tdb.read_bytes() == TDB_HEADER + b"flat0.pgm,normal,999\nflat1.pgm,benign,999\nflat2.pgm,,999\n"
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    assert capsys.readouterr().err == ""
    assert harc.model_from_json(model.read_bytes()).quantization.ranges == {}
    man = make_manifest(tmp_path, n=2)  # two benign blobs
    man.write_text(man.read_text() + "flat0.pgm,normal,train\n")
    assert main(["features", str(man), str(tdb)]) == 0
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    assert capsys.readouterr().err == ""


def test_features_missing_image_partial(tmp_path):
    man = make_manifest(tmp_path, n=2)
    man.write_text(man.read_text() + "ghost.pgm,normal,train\n")
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out)]) == 1
    assert len(read_tdb_csv(out.read_bytes()).transactions) == 2


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


README_PRED_SHA256 = "67ddf2ac7037d100bb868a67018d9680f6f0a22d9f991a4ac12b965b8232e03a"


def readme_chain_model(tmp_path):
    """synth seed 42, then features and train with the corpus config; returns (manifest, model)."""
    corpus = tmp_path / "corpus"
    assert main(["synth", str(corpus), "--seed", "42"]) == 0
    man, cfg = str(corpus / "manifest.csv"), str(corpus / "config.json")
    tdb, model = tmp_path / "tdb.csv", tmp_path / "model.json"
    assert main(["features", man, str(tdb), "--config", cfg]) == 0
    assert main(["train", "--tdb", str(tdb), str(model), "--config", cfg]) == 0
    return man, model


README_DIGESTS = {
    "tdb.csv": "1795f3d3234fe691dd3f38f9637e9a545e8ab57ccaa2d761950f532eecf2cf40",
    "mfi.csv": "b065f349758703b6ab5c33ac083517cef1a952b558a7d7bea27d3c295c176fec",
    "rules.csv": "4018328928973404e3a93dcf99d8f490a4d02359f7502c3c11fdf94dd73dc19a",
    "model.json": "00e6320b09976a646f8f9776e637748cb4171a003452642ed4f9ce6188993dae",
    "pred.csv": README_PRED_SHA256,
}


def test_readme_chain_artifact_digests(tmp_path):
    """Artifact bytes of the README chain (synth seed 42, corpus config)."""
    man, model = readme_chain_model(tmp_path)
    cfg = str(tmp_path / "corpus" / "config.json")
    tdb, pred = tmp_path / "tdb.csv", tmp_path / "pred.csv"
    mfi, rules = tmp_path / "mfi.csv", tmp_path / "rules.csv"
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules), "--config", cfg]) == 0
    assert main(["classify", str(model), "--manifest", man, str(pred), "--config", cfg]) == 0
    assert {name: sha256(tmp_path / name) for name in README_DIGESTS} == README_DIGESTS


def cli_child(argv, cwd=None, program=("-m", "imgmine.cli"), env=None):
    """Run the CLI in a fresh interpreter, as an installed `imgmine` or perfbench runs it;
    env adds to or overrides this process's environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *program, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(src), **(env or {})})


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_predictions_are_utf8_under_an_ascii_locale(tmp_path):
    """classify writes its predictions as UTF-8 bytes, as features writes the TDB, whatever
    the locale's encoding: a non-ASCII tid is written, not an encoding error."""
    probe = cli_child([], program=("-c", "import locale; print(locale.getpreferredencoding(False))"),
                      env=ASCII_LOCALE)
    if codecs.lookup(probe.stdout.strip()).name == "utf-8":
        pytest.skip(f"the C locale's encoding is {probe.stdout.strip()} here")
    tdb, model = tmp_path / "t.csv", tmp_path / "model.json"
    tdb.write_bytes(labeled_tdb() + "bénin.pgm,,111;211\n".encode("utf-8"))
    model.write_bytes(_trained_model())
    preds = {}
    for name, env in (("ascii", ASCII_LOCALE), ("utf8", {**ASCII_LOCALE, "PYTHONUTF8": "1"})):
        proc = cli_child(["classify", str(model), "--tdb", str(tdb), f"{name}.csv"], tmp_path, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), name
        preds[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert "bénin.pgm,benign,".encode("utf-8") in preds["utf8"]
    assert preds["ascii"] == preds["utf8"]


def test_readme_chain_as_child_processes(tmp_path):
    """The README chain through `python -m imgmine.cli`: each child exits 0 with its
    artifacts written in full, though none collects its heap at exit."""
    cfg = ["--config", "corpus/config.json"]
    chain = [
        ["synth", "corpus", "--seed", "42"],
        ["features", "corpus/manifest.csv", "tdb.csv", *cfg],
        ["mine", "tdb.csv", "--mfi", "mfi.csv", "--rules", "rules.csv", *cfg],
        ["train", "--tdb", "tdb.csv", "model.json", *cfg],
        ["classify", "model.json", "--manifest", "corpus/manifest.csv", "pred.csv", *cfg],
        ["evaluate", "pred.csv", "corpus/manifest.csv", "--split", "test", "--output", "metrics.csv"],
    ]
    for argv in chain:
        proc = cli_child(argv, tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert {name: sha256(tmp_path / name) for name in README_DIGESTS} == README_DIGESTS
    assert "accuracy:" in proc.stdout
    assert (tmp_path / "metrics.csv").read_text().startswith("metric,value\n")


def test_classify_extracts_with_the_model_settings(tmp_path):
    """Without --config, classify still extracts as the model's training data was extracted."""
    man, model = readme_chain_model(tmp_path)
    pred = tmp_path / "pred.csv"
    assert main(["classify", str(model), "--manifest", man, str(pred)]) == 0
    assert sha256(pred) == README_PRED_SHA256


def test_classify_one_image_agrees_with_its_manifest_row(tmp_path):
    """An image extracted alone gets the label and fired-rule count it gets in a stack of many."""
    man, model = readme_chain_model(tmp_path)
    pred, one = tmp_path / "pred.csv", tmp_path / "one.csv"
    assert main(["classify", str(model), "--manifest", man, str(pred)]) == 0
    manifest = read_manifest(man)
    rows = pred.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [e.path for e in manifest.entries]
    for entry, row in zip(manifest.entries, rows):
        assert main(["classify", str(model), "--image", str(manifest.resolve(entry)), str(one)]) == 0
        assert one.read_text().splitlines()[1].split(",")[1:] == row.split(",")[1:]


def test_classify_config_disagreeing_with_the_model_exits_4(tmp_path, capsys):
    man, model = readme_chain_model(tmp_path)
    cfg, pred = tmp_path / "cfg.json", tmp_path / "pred.csv"
    cfg.write_text('{"sigma": 2.0}')
    capsys.readouterr()
    assert main(["classify", str(model), "--manifest", man, str(pred), "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(cfg) in err and str(model) in err
    assert not pred.exists()


# ------------------------------------------- train reads the extraction record


def test_readme_chain_without_config_trains_the_pinned_model(tmp_path, capsys):
    """features records its extraction settings beside the TDB, and train takes them from
    there: without --config it writes the pinned model, which classifies the held-out split."""
    corpus = tmp_path / "corpus"
    assert main(["synth", str(corpus), "--seed", "42"]) == 0
    man, cfg = str(corpus / "manifest.csv"), corpus / "config.json"
    tdb, model, pred = tmp_path / "tdb.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["features", man, str(tdb), "--config", str(cfg)]) == 0
    settings = {k: v for k, v in json.loads(cfg.read_text()).items() if k in EXTRACTION_KEYS}
    record = json.dumps(settings, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "tdb.csv.config.json").read_text() == record
    capsys.readouterr()
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    assert capsys.readouterr().err == ""
    assert sha256(model) == README_DIGESTS["model.json"]
    assert main(["classify", str(model), "--manifest", man, str(pred)]) == 0
    assert main(["evaluate", str(pred), man, "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 100.0%" in out and "specificity: 100.0%" in out


@pytest.mark.parametrize("doc, differ", [
    ('{"sigma": 2.0, "canny_low": 5.0, "canny_high": 9.0, "equalize": false}', "sigma"),
    ('{"minsup": 0.1}', "canny_low, canny_high, equalize"),  # defaults fill absent keys
], ids=["sigma", "defaults"])
def test_train_config_disagreeing_with_the_record_exits_4(tmp_path, capsys, doc, differ):
    readme_chain_model(tmp_path)
    tdb, other, model = tmp_path / "tdb.csv", tmp_path / "other.json", tmp_path / "m2.json"
    other.write_text(doc)
    capsys.readouterr()
    assert main(["train", "--tdb", str(tdb), str(model), "--config", str(other)]) == 4
    err = capsys.readouterr().err
    assert err == f"imgmine: config {other} and record {tdb}.config.json disagree on {differ}\n"
    assert not model.exists()


def test_train_tdb_without_a_record_warns(tmp_path, capsys):
    """A TDB that features did not write: train warns, records --config's extraction settings
    or the defaults, and writes the model it wrote before records existed."""
    tdb, model = tmp_path / "t.csv", tmp_path / "model.json"
    tdb.write_bytes(dense_labeled_tdb())
    (tmp_path / "t.csv.quant.json").write_text("{}")
    assert main(["train", "--tdb", str(tdb), str(model), "--minsup", "0.1", "--minconf", "0.6"]) == 0
    assert capsys.readouterr().err == (
        f"imgmine: warning: no extraction record at {tdb}.config.json; the model records "
        "the extraction settings of --config or the defaults\n")
    # as test_dense_tdb_mining_artifact_digests pins it
    assert sha256(model) == "cc9e1afa1d331be2ff44c45f3acca82ba9435fd41112ea1ad18a8ef17e4a4660"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sigma": 2.0, "min_area": 9}')
    assert main(["train", "--tdb", str(tdb), str(model), "--config", str(cfg)]) == 0
    assert "no extraction record" in capsys.readouterr().err
    config = harc.model_from_json(model.read_bytes()).config
    assert (config.sigma, config.min_area, config.equalize) == (2.0, 9, True)


@pytest.mark.parametrize(
    "record", ['{"sigma": 0}', '{"sigma": "1.4"}', '{"canny_low": 5.0}', '{"bogus": 1}', "[]",
               "{", "[" * 100_000, "\udcff", '{"sigma": 1%s}' % ("0" * 5000)],
    ids=["zero-sigma", "string", "one-threshold", "unknown-key", "list", "truncated",
         "deeply-nested", "not-utf8", "int-beyond-the-digit-limit"],
)
def test_malformed_record_exits_3(tmp_path, capsys, record):
    tdb, model, path = tmp_path / "t.csv", tmp_path / "model.json", tmp_path / "t.csv.config.json"
    tdb.write_bytes(labeled_tdb())
    path.write_bytes(record.encode("utf-8", "surrogateescape"))
    assert main(["train", "--tdb", str(tdb), str(model)]) == 3
    assert str(path) in capsys.readouterr().err
    assert not model.exists()


def test_dense_tdb_mining_artifact_digests(tmp_path):
    """MFI, rules and model bytes of a dense 150-row TDB at minsup 0.10, minconf 0.6."""
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(dense_labeled_tdb())
    mfi, rules, model = tmp_path / "mfi.csv", tmp_path / "rules.csv", tmp_path / "model.json"
    thresholds = ["--minsup", "0.1", "--minconf", "0.6"]
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules), *thresholds]) == 0
    assert main(["train", "--tdb", str(tdb), str(model), *thresholds]) == 0
    assert sha256(mfi) == "fc61f4eaaf806c133365ccae44b495b3800822c4c86682f8eecf7d49b3699e7f"
    assert sha256(rules) == "20fcd9c9db01c60e2e504f38a041b9b553bc4ad90c3dd41baf87fbcf751e807c"
    assert sha256(model) == "cc9e1afa1d331be2ff44c45f3acca82ba9435fd41112ea1ad18a8ef17e4a4660"


def test_paths_with_commas_run_the_whole_chain(tmp_path, capsys):
    (tmp_path / "images").mkdir()
    rows = [("images/a,b.pgm", "benign", "train"), ("images/b.pgm", "benign", "train"),
            ("images/c,,d.pgm", "normal", "train"), ("images/d.pgm", "normal", "train"),
            ("images/e,f.pgm", "benign", "test"), ("images/g,h.pgm", "normal", "test")]
    for i, (path, label, _) in enumerate(rows):
        write_image(tmp_path / path, blob_image(i) if label == "benign" else np.full((32, 32), 90))
    man = tmp_path / "manifest.csv"
    man.write_text("path,label,split\n" + "".join(
        f'"{p}",{label},{split}\n' if "," in p else f"{p},{label},{split}\n" for p, label, split in rows
    ))
    assert write_manifest(read_manifest(man)) == man.read_bytes()
    tdb, model, pred = tmp_path / "tdb.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["features", str(man), str(tdb)]) == 0
    assert [t.tid for t in read_tdb_csv(tdb.read_bytes()).transactions] == [p for p, _, _ in rows]
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    assert main(["classify", str(model), "--manifest", str(man), str(pred)]) == 0
    assert '"images/e,f.pgm",benign,' in pred.read_text()
    capsys.readouterr()
    assert main(["evaluate", str(pred), str(man), "--split", "test"]) == 0
    assert "accuracy: 100.0%" in capsys.readouterr().out


# --------------------------------------------------------------------- mine


def test_mine_empty_tdb_ok(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER)
    out = tmp_path / "m.csv"
    assert main(["mine", str(tdb), "--mfi", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "level,items,support"


def test_mine_labeled_tdb_writes_rules(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    mfi, rules = tmp_path / "m.csv", tmp_path / "r.csv"
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules)]) == 0
    assert rules.read_text().splitlines()[0] == "antecedent,class,support,confidence"
    assert len(rules.read_text().splitlines()) > 1


# ------------------------------------------------------- train and classify


def test_train_tdb_without_quantization_warns(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    (tmp_path / "t.csv.config.json").write_bytes(config_to_json(PipelineConfig(), EXTRACTION_KEYS))
    model = tmp_path / "model.json"
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "warning" in err and "not images" in err and "t.csv.quant.json" in err
    quant = tmp_path / "t.csv.quant.json"
    quant.write_text("{}")
    warned = model.read_bytes()
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    assert capsys.readouterr().err == ""
    assert model.read_bytes() == warned


def test_train_classify_evaluate_round_trip(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    model = tmp_path / "model.json"
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0

    pred = tmp_path / "pred.csv"
    assert main(["classify", str(model), "--tdb", str(tdb), str(pred)]) == 0
    lines = pred.read_text().splitlines()
    assert lines[0] == "path,predicted,fired_rule_count"
    assert len(lines) == 31
    for line in lines[1:]:
        tid, predicted, _ = line.split(",")
        assert predicted == "".join(c for c in tid if not c.isdigit())

    man = tmp_path / "manifest.csv"
    man.write_text(
        "path,label,split\n"
        + "".join(f"{t},{''.join(c for c in t if not c.isdigit())},test\n"
                  for t in (l.split(",")[0] for l in lines[1:]))
    )
    metrics_csv = tmp_path / "metrics.csv"
    rc = main(["evaluate", str(pred), str(man), "--split", "test", "--output", str(metrics_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy: 100.0%" in out
    assert "sensitivity,100.0" in metrics_csv.read_text()


STARTUP_PROBE = """
import json, sys
from imgmine.cli import main

code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
PIXEL = ("numpy", "imgmine.prep", "imgmine.edge", "imgmine.pipeline", "imgmine.synth")
# Each command in a fresh interpreter: (argv, modules it must leave unloaded, modules it
# must load, so that the gate can fail). No command loads dataclasses. numpy itself
# imports inspect (numpy._core.overrides), so only the numpy-free commands are held to it.
STARTUP = {
    "mine --rules": (["mine", "{d}/t.csv", "--mfi", "{d}/m.csv", "--rules", "{d}/r.csv"],
                     ("inspect", "imgmine.harc", "imgmine.metrics", *PIXEL), ("imgmine.fpm",)),
    "train --tdb": (["train", "--tdb", "{d}/t.csv", "{d}/model2.json"],
                    ("inspect", "imgmine.metrics", *PIXEL), ("imgmine.harc",)),
    "classify --tdb": (["classify", "{d}/model.json", "--tdb", "{d}/t.csv", "{d}/p.csv"],
                       ("inspect", "imgmine.metrics", *PIXEL), ("imgmine.harc",)),
    "evaluate": (["evaluate", "{d}/pred.csv", "{d}/tids.csv"],
                 ("inspect", "imgmine.fpm", "imgmine.harc", *PIXEL), ("imgmine.metrics",)),
    "features": (["features", "{d}/manifest.csv", "{d}/f.csv"],
                 ("imgmine.fpm", "imgmine.harc", "imgmine.metrics"), ("numpy", "imgmine.pipeline")),
    "classify --manifest": (["classify", "{d}/model.json", "--manifest", "{d}/manifest.csv", "{d}/pi.csv"],
                            ("imgmine.metrics",), ("numpy", "imgmine.pipeline", "imgmine.harc")),
    "synth": (["synth", "{d}/corpus", "--per-class", "2"],
              ("imgmine.fpm", "imgmine.harc", "imgmine.metrics"), ("numpy", "imgmine.synth")),
}


@pytest.fixture(scope="module")
def startup_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    make_manifest(d, n=2)
    assert main(["features", str(d / "manifest.csv"), str(d / "blobs.csv")]) == 0
    (d / "t.csv").write_bytes(labeled_tdb())
    (d / "t.csv.quant.json").write_text(json.dumps(full_quantization()))
    (d / "blobs.csv.config.json").rename(d / "t.csv.config.json")  # as features writes it
    assert main(["train", "--tdb", str(d / "t.csv"), str(d / "model.json")]) == 0
    assert main(["classify", str(d / "model.json"), "--tdb", str(d / "t.csv"), str(d / "pred.csv")]) == 0
    tids = [t.tid for t in read_tdb_csv((d / "t.csv").read_bytes()).transactions]
    (d / "tids.csv").write_text(
        "path,label,split\n" + "".join(f"{t},{t.rstrip('0123456789')},test\n" for t in tids)
    )
    return d


@pytest.mark.parametrize("command", list(STARTUP))
def test_each_command_child_loads_only_its_layers(startup_inputs, command):
    argv, unloaded, loaded = STARTUP[command]
    proc = cli_child([a.format(d=startup_inputs) for a in argv], program=("-c", STARTUP_PROBE))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # so train --tdb found its extraction record
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["code"] == 0, proc.stderr
    modules = set(child["modules"])
    assert sorted(modules & {"dataclasses", *unloaded}) == []
    assert set(loaded) <= modules


FREEZE_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
runpy.run_module("imgmine.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("command", ["mine --rules", "classify --manifest"])
def test_cli_process_freezes_its_heap_before_exit(startup_inputs, command):
    """`python -m imgmine.cli` runs cli.run, which freezes the heap once main returns,
    so the interpreter's last collection skips it; atexit handlers still run."""
    argv = [a.format(d=startup_inputs) for a in STARTUP[command][0]]
    proc = cli_child(argv, startup_inputs, program=("-c", FREEZE_PROBE))
    assert proc.returncode == 0, proc.stderr
    word, count = proc.stdout.splitlines()[-1].split()
    assert word == "frozen" and int(count) > 0


def test_main_leaves_the_heap_unfrozen(startup_inputs):
    """main also runs inside longer-lived processes (tests, the traced benchmark): only
    the process entry freezes."""
    before = gc.get_freeze_count()
    argv = [a.format(d=startup_inputs) for a in STARTUP["mine --rules"][0]]
    assert main(argv) == 0
    assert gc.get_freeze_count() == before


def test_train_honours_levels(tmp_path):
    """train's model holds exactly the rules mine --rules writes, both hierarchy levels."""
    groups = [("normal", (999,)), ("benign", (111, 211)), ("benign", (112, 212)),
              ("malignant", (121, 221)), ("malignant", (122, 222))]
    rows = [
        Transaction(tid=f"t{i:02d}", items=groups[i % 5][1], label=groups[i % 5][0])
        for i in range(12)
    ]
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(write_tdb_csv(TransactionDB(transactions=rows)))
    rules, model = tmp_path / "r.csv", tmp_path / "model.json"
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(rules)]) == 0
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    trained = harc.model_from_json(model.read_bytes()).rules
    assert fpm.rules_to_csv(trained) == rules.read_bytes()
    assert any(code % 10 == 0 for r in trained for code in r.antecedent)  # coarse x10 codes too


def test_classify_manifest_unreadable_image_partial(tmp_path, capsys):
    man = make_manifest(tmp_path, n=2)
    write_image(tmp_path / "dark.pgm", np.full((32, 32), 5))
    man.write_text(man.read_text() + "dark.pgm,normal,train\n")
    tdb, model = tmp_path / "tdb.csv", tmp_path / "model.json"
    assert main(["features", str(man), str(tdb)]) == 0
    assert main(["train", "--tdb", str(tdb), str(model)]) == 0
    (tmp_path / "broken.pgm").write_bytes(b"P5\n32 32\n255\n")  # no pixel data
    # a path the OS rejects (a NUL byte) is skipped too, as features skips it
    man.write_text(man.read_text() + "ghost.pgm,normal,test\nbroken.pgm,benign,test\n"
                   "nul\0.pgm,benign,test\n")
    pred = tmp_path / "pred.csv"
    assert main(["classify", str(model), "--manifest", str(man), str(pred)]) == 1
    err = capsys.readouterr().err
    assert "ghost.pgm" in err and "broken.pgm" in err
    assert f"imgmine: nul\0.pgm: {tmp_path}/nul\0.pgm: embedded null byte" in err.splitlines()
    rows = pred.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["img0.pgm", "img1.pgm", "dark.pgm"]


def test_classify_deterministic_bytes(tmp_path):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    model = tmp_path / "model.json"
    main(["train", "--tdb", str(tdb), str(model)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["classify", str(model), "--tdb", str(tdb), str(a)])
    main(["classify", str(model), "--tdb", str(tdb), str(b)])
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------------- synth


def test_synth_writes_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", str(out), "--per-class", "2"]) == 0
    assert (out / "manifest.csv").exists()
    assert (out / "config.json").exists()
    images = sorted(p.name for p in (out / "images").iterdir())
    assert len(images) == 6



@pytest.mark.parametrize("flags, flag", [
    (["--per-class", "1"], "--per-class"),
    (["--per-class", "0"], "--per-class"),
    (["--per-class", "-1"], "--per-class"),
    (["--per-class", "9" * 400], "--per-class"),
], ids=[f"flags{i}---per-class" for i in range(6, 10)])  # stable ids: runs are compared by test id
def test_synth_settings_that_leave_a_split_empty_exit_3(tmp_path, capsys, flags, flag):
    out = tmp_path / "corpus"
    assert main(["synth", str(out), *flags]) == 3
    assert flag in capsys.readouterr().err
    assert not out.exists()
