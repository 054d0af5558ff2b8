import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imgmine import fpm, harc, metrics, pipeline
from imgmine.cli import build_parser, main
from imgmine.config import PipelineConfig, read_manifest, write_manifest
from imgmine.prep import GrayImage, equalize
from imgmine.raster import read_pgm, write_pgm
from imgmine.segment import (
    CLASSES,
    FEATURE_NAMES,
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
                  {"antecedent": ["x"]})
    bad_rules = [dict(doc, rules=[*doc["rules"], dict(doc["rules"][0], **edit)])
                 for edit in rule_edits]  # an extra rule, so every attribute still finds its own
    assert json.dumps(doc).count('{"benign": 10}') == 1
    bad_distribution = json.loads(
        json.dumps(doc).replace('{"benign": 10}', '{"benign": "lots", "x": null}'))
    broken_docs = (no_rules, bad_type, out_of_range, negative, unknown_leaf, unknown_default,
                   no_config, short_config, mining_config, bad_config, nan_range, inverted_range,
                   one_feature, float_split, bool_split, string_split, *bad_rules, bad_distribution)
    for text in [*map(json.dumps, broken_docs), "[" * 100_000]:
        model = tmp_path / "model.json"
        model.write_text(text)
        assert main(["classify", str(model), "--tdb", str(tdb), str(tmp_path / "p.csv")]) == 4
    capsys.readouterr()
    for text in ("[]", '"model"'):  # valid JSON, but not an object
        model.write_text(text)
        assert main(["classify", str(model), "--tdb", str(tdb), str(tmp_path / "p.csv")]) == 4
        assert capsys.readouterr().err == "imgmine: model JSON is not an object\n"


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


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        ("5", [], "not a JSON object"),
        ("null", [], "not a JSON object"),
        ("[]", [], "not a JSON object"),
        ('"ab"', [], "not a JSON object"),
        ('{"sigma": Infinity}', [], "not finite"),
        ('{"sigma": NaN}', [], "not finite"),
        ('{"sigma": -Infinity}', [], "not finite"),
        ('{"canny_low": 1, "canny_high": Infinity}', [], "not finite"),
        ("{}", ["--sigma", "nan"], "not finite"),
        ('{"sigma": 1e300}', [], "sigma must lie in (0, 100]"),
        pytest.param('{"sigma": 1%s}' % ("0" * 400), [], "not finite", id="huge-int-sigma"),
        pytest.param('{"canny_low": 0, "canny_high": 1%s}' % ("0" * 400), [], "not finite",
                     id="huge-int-canny-high"),
        pytest.param("[" * 100_000, [], "bad config JSON", id="deeply-nested"),
        pytest.param('{"min_area": 2.5}', [], "config value min_area=2.5 has the wrong type",
                     id="float-min-area"),
        pytest.param('{"sigma": true}', [], "config value sigma=True has the wrong type", id="bool-sigma"),
        pytest.param('{"equalize": 1}', [], "config value equalize=1 has the wrong type", id="int-equalize"),
        pytest.param('{"minsup": 0}', [], "minsup must lie in (0, 1]", id="zero-minsup"),
        pytest.param('{"minconf": 1.5}', [], "minconf must lie in (0, 1]", id="minconf-above-1"),
        pytest.param('{"min_area": 0}', [], "min_area must be >= 1", id="zero-min-area"),
        pytest.param('{"canny_low": 1}', [], "set both canny_low and canny_high or neither",
                     id="canny-low-alone"),
        pytest.param('{"canny_low": 5, "canny_high": 4}', [], "need 0 <= canny_low <= canny_high",
                     id="canny-inverted"),
        pytest.param("{}", ["--min-area", "0"], "min_area must be >= 1", id="flag-zero-min-area"),
        pytest.param("{}", ["--sigma", "101"], "sigma must lie in (0, 100]", id="flag-sigma-above-max"),
        pytest.param("{}", ["--canny-high", "9"], "set both canny_low and canny_high or neither",
                     id="flag-canny-high-alone"),
        pytest.param('{"canny_low": 5, "canny_high": 9}', ["--canny-low", "10"],
                     "need 0 <= canny_low <= canny_high", id="flag-inverts-file-canny"),
        pytest.param('{"sigma": -1}', ["--sigma", "2"], "sigma must lie in (0, 100]",
                     id="flag-cannot-mend-a-bad-file"),
    ],
)
def test_bad_config_document_exits_3(tmp_path, capsys, doc, flags, message):
    man = make_manifest(tmp_path, n=2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out), "--config", str(cfg), *flags]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


SETTINGS = {"--config", "--sigma", "--canny-low", "--canny-high", "--min-area", "--no-equalize",
            "--minsup", "--minconf", "--seed"}
IMAGE = {"--sigma", "--canny-low", "--canny-high", "--min-area", "--no-equalize"}
MINING = {"--minsup", "--minconf"}


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
        "train": {"--config"} | IMAGE | MINING,
        "classify": {"--config"},
        "evaluate": set(),
        "synth": {"--config", "--seed"},
    }
    assert sum(map(len, flags.values())) == 22


def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    man = make_manifest(tmp_path, n=2)
    for argv, message, output in [
        (["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--sigma", "2"],
         "unrecognized arguments: --sigma 2", tmp_path / "m.csv"),
        (["train", "--manifest", str(man), "--quant", str(tmp_path / "none.json"),
          str(tmp_path / "model.json")], "--quant", tmp_path / "model.json"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not output.exists()


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
    assert f"{pred}:4: b.pgm predicted twice" in capsys.readouterr().err


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
     '{"area": [0, 1]}'],
    ids=["list", "one-bound", "null", "huge-int", "deeply-nested", "nan", "inverted", "strings",
         "unknown-feature", "one-feature"],
)
def test_malformed_quantization_exits_3(tmp_path, quant):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    (tmp_path / "q.json").write_text(quant)
    model = tmp_path / "model.json"
    assert main(["train", "--tdb", str(tdb), str(model), "--quant", str(tmp_path / "q.json")]) == 3
    assert not model.exists()


def test_missing_explicit_quantization_exits_2(tmp_path, capsys):
    """Only the implicit <tdb>.quant.json may be absent; a named --quant file must exist."""
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(labeled_tdb())
    model, nope = tmp_path / "model.json", tmp_path / "nope.json"
    assert main(["train", "--tdb", str(tdb), str(model), "--quant", str(nope)]) == 2
    assert f"no such quantization: {nope}" in capsys.readouterr().err
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
], ids=["zero-item", "negative-item", "unknown-label"])
def test_invalid_transaction_row_exits_3(tmp_path, capsys, rows, message):
    tdb = tmp_path / "t.csv"
    tdb.write_bytes(TDB_HEADER + rows)
    assert main(["mine", str(tdb), "--mfi", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err == f"imgmine: {message}\n"
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
        assert capsys.readouterr().err == f"imgmine: {message}\n"
    assert not (tmp_path / "f.csv").exists()


def test_tdb_holding_a_class_code_exits_3(tmp_path, capsys):
    tdb = tmp_path / "t.csv"
    rows = b"a,normal,111;902\nb,normal,111;902\nc,benign,121\nd,benign,121\n"
    tdb.write_bytes(TDB_HEADER + rows)
    args = ["mine", str(tdb), "--mfi", str(tmp_path / "m.csv"), "--rules", str(tmp_path / "r.csv")]
    assert main(args) == 3
    assert "line 2: item 902 is a reserved class code" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


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
    """Bytes and exit codes stay as they were; only the warning is new."""
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
    assert main(["train", "--manifest", str(man), str(model)]) == 0
    assert capsys.readouterr().err.count(NO_REGION_WARNING) == 1
    man = make_manifest(tmp_path, n=2)  # two benign blobs
    man.write_text(man.read_text() + "flat0.pgm,normal,train\n")
    assert main(["features", str(man), str(tdb)]) == 0
    assert main(["train", "--manifest", str(man), str(model)]) == 0
    assert capsys.readouterr().err == ""


def test_features_missing_image_partial(tmp_path):
    man = make_manifest(tmp_path, n=2)
    man.write_text(man.read_text() + "ghost.pgm,normal,train\n")
    out = tmp_path / "tdb.csv"
    assert main(["features", str(man), str(out)]) == 1
    assert len(read_tdb_csv(out.read_bytes()).transactions) == 2


# ------------------------------------------------------ train --manifest


def test_train_manifest_matches_features_then_train_tdb(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", str(corpus), "--seed", "42"]) == 0
    man, cfg = str(corpus / "manifest.csv"), str(corpus / "config.json")
    tdb, via_tdb, direct = tmp_path / "tdb.csv", tmp_path / "a.json", tmp_path / "b.json"
    assert main(["features", man, str(tdb), "--config", cfg]) == 0
    assert main(["train", "--tdb", str(tdb), str(via_tdb), "--config", cfg]) == 0
    assert main(["train", "--manifest", man, str(direct), "--config", cfg]) == 0
    assert direct.read_bytes() == via_tdb.read_bytes()


def test_train_manifest_unreadable_image_partial(tmp_path, capsys):
    man = make_manifest(tmp_path, n=2)
    write_image(tmp_path / "dark.pgm", np.full((32, 32), 5))
    (tmp_path / "broken.pgm").write_bytes(b"P5\n32 32\n255\n")  # no pixel data
    man.write_text(man.read_text() + "dark.pgm,normal,train\nbroken.pgm,normal,train\n")
    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(man), str(model)]) == 1
    assert "broken.pgm" in capsys.readouterr().err
    assert harc.model_from_json(model.read_bytes()).tree is not None


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


def test_readme_chain_artifact_digests(tmp_path):
    """Artifact bytes of the README chain (synth seed 42, corpus config)."""
    man, model = readme_chain_model(tmp_path)
    cfg = str(tmp_path / "corpus" / "config.json")
    tdb, pred = tmp_path / "tdb.csv", tmp_path / "pred.csv"
    mfi, rules = tmp_path / "mfi.csv", tmp_path / "rules.csv"
    assert main(["mine", str(tdb), "--mfi", str(mfi), "--rules", str(rules), "--config", cfg]) == 0
    assert main(["classify", str(model), "--manifest", man, str(pred), "--config", cfg]) == 0
    assert sha256(tdb) == "1795f3d3234fe691dd3f38f9637e9a545e8ab57ccaa2d761950f532eecf2cf40"
    assert sha256(mfi) == "b065f349758703b6ab5c33ac083517cef1a952b558a7d7bea27d3c295c176fec"
    assert sha256(rules) == "4018328928973404e3a93dcf99d8f490a4d02359f7502c3c11fdf94dd73dc19a"
    assert sha256(model) == "00e6320b09976a646f8f9776e637748cb4171a003452642ed4f9ce6188993dae"
    assert sha256(pred) == README_PRED_SHA256


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
    assert write_manifest(read_manifest(man)) == man.read_text()
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
    (d / "t.csv").write_bytes(labeled_tdb())
    (d / "t.csv.quant.json").write_text(json.dumps(full_quantization()))
    assert main(["train", "--tdb", str(d / "t.csv"), str(d / "model.json")]) == 0
    assert main(["classify", str(d / "model.json"), "--tdb", str(d / "t.csv"), str(d / "pred.csv")]) == 0
    tids = [t.tid for t in read_tdb_csv((d / "t.csv").read_bytes()).transactions]
    (d / "tids.csv").write_text(
        "path,label,split\n" + "".join(f"{t},{t.rstrip('0123456789')},test\n" for t in tids)
    )
    make_manifest(d, n=2)
    return d


@pytest.mark.parametrize("command", list(STARTUP))
def test_each_command_child_loads_only_its_layers(startup_inputs, command):
    argv, unloaded, loaded = STARTUP[command]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *(a.format(d=startup_inputs) for a in argv)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["code"] == 0, proc.stderr
    modules = set(child["modules"])
    assert sorted(modules & {"dataclasses", *unloaded}) == []
    assert set(loaded) <= modules


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
    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(man), str(model)]) == 0
    (tmp_path / "broken.pgm").write_bytes(b"P5\n32 32\n255\n")  # no pixel data
    # a path the OS rejects (a NUL byte) is skipped too, as features skips it
    man.write_text(man.read_text() + "ghost.pgm,normal,test\nbroken.pgm,benign,test\n"
                   "nul\0.pgm,benign,test\n")
    pred = tmp_path / "pred.csv"
    assert main(["classify", str(model), "--manifest", str(man), str(pred)]) == 1
    err = capsys.readouterr().err
    assert "ghost.pgm" in err and "broken.pgm" in err
    assert "imgmine: nul\0.pgm: embedded null byte" in err.splitlines()
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
    (["--train-frac", "nan"], "--train-frac"),
    (["--train-frac", "inf"], "--train-frac"),
    (["--train-frac", "2"], "--train-frac"),
    (["--train-frac", "0"], "--train-frac"),
    (["--per-class", "2", "--train-frac", "0.2"], "--train-frac"),
    (["--per-class", "2", "--train-frac", "0.8"], "--train-frac"),
    (["--per-class", "1"], "--per-class"),
    (["--per-class", "0"], "--per-class"),
    (["--per-class", "-1"], "--per-class"),
    (["--per-class", "9" * 400], "--per-class"),
])
def test_synth_settings_that_leave_a_split_empty_exit_3(tmp_path, capsys, flags, flag):
    out = tmp_path / "corpus"
    assert main(["synth", str(out), *flags]) == 3
    assert flag in capsys.readouterr().err
    assert not out.exists()
