"""imgmine command line: preprocess | features | mine | train | classify | evaluate | synth."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import fpm, harc, metrics, pipeline, synth
from .config import EXTRACTION_KEYS, ConfigError, ManifestError, load_config, read_manifest
from .prep import equalize, median3x3, opening_mask
from .raster import GrayImage, PgmError, read_pgm, write_pgm
from .segment import (
    CLASSES,
    QuantizationModel,
    TdbError,
    TransactionDB,
    csv_lines,
    csv_text,
    image_to_transaction,
    quantize,  # noqa: F401  unused here; perfbench/tests/test_bench_trace.py wraps this binding
    read_tdb_csv,
    write_tdb_csv,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_IO = 2
EXIT_SEMANTIC = 3
EXIT_MODEL = 4


def _err(msg):
    print(f"imgmine: {msg}", file=sys.stderr)


def _read_image(path) -> GrayImage:
    try:
        return read_pgm(Path(path).read_bytes())
    except FileNotFoundError:
        raise FileNotFoundError(f"no such input: {path}") from None


def _config_from_args(args):
    overrides = {}
    for key in ("sigma", "canny_low", "canny_high", "min_area", "minsup", "minconf", "seed"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    if getattr(args, "no_equalize", False):
        overrides["equalize"] = False
    return load_config(args.config, overrides)


def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    img = _read_image(args.input)
    stage1 = equalize(img) if cfg.equalize else img
    stage2 = median3x3(stage1)
    Path(args.output).write_bytes(write_pgm(stage2))
    if args.dump_dir:
        dump = Path(args.dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        (dump / "stage1_equalized.pgm").write_bytes(write_pgm(stage1))
        (dump / "stage2_median.pgm").write_bytes(write_pgm(stage2))
        mask_img = GrayImage(opening_mask(stage2).bits.astype("uint8") * 255)
        (dump / "stage3_openmask.pgm").write_bytes(write_pgm(mask_img))
    return EXIT_OK


def _manifest_tdb(manifest, entries, cfg):
    """Features per entry, quantization fit on the train split, one transaction per image.

    Unreadable images are reported and skipped. Only train entries keep their
    label. Returns (db, quantization, whether any image was skipped).
    """
    per_image = []  # (entry, fvs)
    failed = False
    for entry in entries:
        try:
            img = _read_image(manifest.resolve(entry))
            per_image.append((entry, pipeline.image_feature_vectors(img, cfg)))
        except (OSError, PgmError, ValueError) as exc:
            _err(f"{entry.path}: {exc}")
            failed = True
    qm = QuantizationModel.fit(
        fv for entry, fvs in per_image if entry.split == "train" for fv in fvs
    )
    transactions = [
        image_to_transaction(
            fvs, qm, entry.path, label=entry.label if entry.split == "train" else None
        )
        for entry, fvs in per_image
    ]
    return TransactionDB(transactions=transactions), qm, failed


def cmd_features(args) -> int:
    cfg = _config_from_args(args)
    manifest = read_manifest(args.manifest)
    db, qm, failed = _manifest_tdb(manifest, manifest.entries, cfg)
    out = Path(args.output)
    out.write_bytes(write_tdb_csv(db))
    quant_path = Path(args.quant_out) if args.quant_out else out.with_suffix(out.suffix + ".quant.json")
    quant_path.write_text(json.dumps(qm.to_dict(), indent=2, sort_keys=True) + "\n")
    return EXIT_PARTIAL if failed else EXIT_OK


def _mfi_csv(per_level) -> bytes:
    rows = []
    for level in sorted(per_level, reverse=True):
        for items, sup in sorted(per_level[level], key=lambda r: (len(r[0]), r[0])):
            rows.append((level, ";".join(str(i) for i in items), sup))
    return csv_text("level,items,support", rows).encode("utf-8")


def cmd_mine(args) -> int:
    cfg = _config_from_args(args)
    db = read_tdb_csv(Path(args.tdb).read_bytes())
    count = fpm.minsup_fraction_to_count(cfg.minsup, len(db))
    per_level = {}
    for level, (mfi, family) in fpm.mine_levels(db, count).items():
        per_level[level] = [(tuple(sorted(m)), family[m]) for m in mfi]
    Path(args.mfi).write_bytes(_mfi_csv(per_level))
    if args.rules:
        if all(t.label is None for t in db.transactions):
            _err("rules requested but the transaction database has no labels")
            return EXIT_SEMANTIC
        rules, _ = fpm.mine_class_rules(db, cfg.minsup, cfg.minconf)
        Path(args.rules).write_bytes(fpm.rules_to_csv(rules))
    return EXIT_OK


def _load_quantization(tdb_path, explicit):
    path = Path(explicit) if explicit else Path(str(tdb_path) + ".quant.json")
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except RecursionError as exc:
            raise ValueError(f"bad quantization JSON in {path}: {exc}") from None
        return QuantizationModel.from_dict(doc)
    _err(f"warning: no quantization at {path}; the model classifies transactions but not images")
    return QuantizationModel()


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    failed = False
    if args.tdb:
        db = read_tdb_csv(Path(args.tdb).read_bytes())
        qm = _load_quantization(args.tdb, args.quant)
    else:
        manifest = read_manifest(args.manifest)
        db, qm, failed = _manifest_tdb(manifest, manifest.split("train"), cfg)
    model = harc.train(db, minsup=cfg.minsup, minconf=cfg.minconf, quantization=qm, config=cfg)
    Path(args.output).write_bytes(harc.model_to_json(model))
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_classify(args) -> int:
    """Extract with the model's own settings; --config only checks that it agrees."""
    cfg = load_config(args.config) if args.config else None
    try:
        model = harc.model_from_json(Path(args.model).read_bytes())
    except FileNotFoundError:
        raise FileNotFoundError(f"no such model: {args.model}") from None
    except harc.ModelError as exc:
        _err(str(exc))
        return EXIT_MODEL
    if cfg is not None:
        differ = [k for k in EXTRACTION_KEYS if getattr(cfg, k) != getattr(model.config, k)]
        if differ:
            _err(f"config {args.config} and model {args.model} disagree on {', '.join(differ)}")
            return EXIT_MODEL
    if not args.tdb and not model.quantization.ranges:
        _err(f"model {args.model} has no quantization: it classifies transactions, not images")
        return EXIT_MODEL
    rows = []
    failed = False
    if args.tdb:
        db = read_tdb_csv(Path(args.tdb).read_bytes())
        for t in db.transactions:
            label, fired = harc.classify(model, t)
            rows.append((t.tid, label, len(fired)))
    else:
        if args.manifest:
            manifest = read_manifest(args.manifest)
            entries = [(e.path, manifest.resolve(e)) for e in manifest.entries]
        else:
            entries = [(args.image, Path(args.image))]
        for name, path in entries:
            try:
                img = _read_image(path)
            except (OSError, PgmError) as exc:
                if not args.manifest:
                    raise
                _err(f"{name}: {exc}")  # skip it, as features does
                failed = True
                continue
            t = pipeline.image_transaction(img, model.config, model.quantization, tid=name)
            label, fired = harc.classify(model, t)
            rows.append((name, label, len(fired)))
    Path(args.output).write_text(csv_text("path,predicted,fired_rule_count", rows))
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_evaluate(args) -> int:
    manifest = read_manifest(args.manifest)
    wanted = None if args.split == "all" else args.split
    labels = {
        e.path: e.label
        for e in manifest.entries
        if wanted is None or e.split == wanted
    }
    pairs = []
    predicted_paths = set()
    for lineno, line, parts in csv_lines(Path(args.predictions).read_text()):
        if lineno == 1 and line.startswith("path,"):
            continue
        if len(parts) != 3 or parts[1] not in CLASSES:
            _err(f"{args.predictions}:{lineno}: bad prediction row")
            return EXIT_SEMANTIC
        path, predicted = parts[0], parts[1]
        if path in predicted_paths:
            _err(f"{args.predictions}:{lineno}: {path} predicted twice")
            return EXIT_SEMANTIC
        predicted_paths.add(path)
        if path not in labels:
            continue
        if labels[path] is None:
            _err(f"warning: {path} has no label in manifest; skipped")
            continue
        pairs.append((labels[path], predicted))
    if not pairs:
        _err("no labeled predictions to evaluate")
        return EXIT_SEMANTIC
    m = metrics.MultiClassMatrix.from_pairs(pairs)
    text, csv = metrics.report(m)
    print(text, end="")
    if args.output:
        Path(args.output).write_bytes(csv)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    synth.generate_corpus(
        args.out_dir, seed=cfg.seed, per_class=args.per_class, train_frac=args.train_frac
    )
    return EXIT_OK


SETTING_FLAGS = {
    "--sigma": {"type": float},
    "--canny-low": {"type": float},
    "--canny-high": {"type": float},
    "--min-area": {"type": int},
    "--no-equalize": {"action": "store_true"},
    "--minsup": {"type": float},
    "--minconf": {"type": float},
    "--seed": {"type": int},
}
IMAGE_FLAGS = ("--sigma", "--canny-low", "--canny-high", "--min-area", "--no-equalize")
MINING_FLAGS = ("--minsup", "--minconf")


def _add_settings(p, flags):
    """--config plus the setting flags this command reads; flags override the file."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for flag in flags:
        p.add_argument(flag, **SETTING_FLAGS[flag])


def build_parser():
    ap = argparse.ArgumentParser(prog="imgmine", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="equalize/median one PGM")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dump-dir", help="write stage1..3 intermediate PGMs here")
    _add_settings(p, ("--no-equalize",))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="manifest -> transaction database CSV")
    p.add_argument("manifest")
    p.add_argument("output")
    p.add_argument("--quant-out", help="where to write learned quantization ranges")
    _add_settings(p, IMAGE_FLAGS)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("mine", help="mine maximal itemsets and class rules from a TDB")
    p.add_argument("tdb")
    p.add_argument("--mfi", required=True, help="output CSV of maximal frequent itemsets")
    p.add_argument("--rules", help="output CSV of class association rules")
    _add_settings(p, MINING_FLAGS)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train the hybrid classifier and record its extraction config")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tdb")
    src.add_argument("--manifest")
    p.add_argument("--quant", help="quantization JSON (with --tdb)")
    p.add_argument("output")
    _add_settings(p, IMAGE_FLAGS + MINING_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify images or transactions with a model")
    p.add_argument("model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest")
    src.add_argument("--image")
    src.add_argument("--tdb")
    p.add_argument("output")
    p.add_argument("--config", help="JSON config file; exit 4 if its extraction settings differ")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="join predictions with manifest labels")
    p.add_argument("predictions")
    p.add_argument("manifest")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--output", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate the seeded synthetic corpus")
    p.add_argument("out_dir")
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--train-frac", type=float, default=0.7)
    _add_settings(p, ("--seed",))
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, OSError, PgmError) as exc:
        _err(str(exc))
        return EXIT_IO
    except (TdbError, ManifestError, ConfigError, ValueError, csv.Error,
            metrics.UndefinedMetricError) as exc:
        _err(str(exc))
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
