"""imgmine command line: preprocess | features | mine | train | classify | evaluate | synth."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

# Each command imports only the layers it runs, inside its own body: mine, train --tdb,
# classify --tdb and evaluate never load numpy or a pixel module, mine loads neither harc
# nor metrics, and evaluate neither fpm nor harc.
from .config import EXTRACTION_KEYS, ConfigError, PipelineConfig, load_config, read_manifest
from .raster import PgmError, read_pgm, write_pgm
from .segment import (
    CLASSES,
    QuantizationModel,
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
SKIPPED = (OSError, ValueError)  # errors a manifest command skips an image for; PgmError is one


def _err(msg):
    print(f"imgmine: {msg}", file=sys.stderr)


def _read_image(path) -> GrayImage:
    try:
        return read_pgm(Path(path).read_bytes())
    except FileNotFoundError:
        raise FileNotFoundError(f"no such input: {path}") from None


def _config_from_args(args):
    overrides = {k: v for k, v in vars(args).items() if k in PipelineConfig.DEFAULTS and v is not None}
    return load_config(args.config, overrides)


def cmd_preprocess(args) -> int:
    from . import pipeline

    cfg = _config_from_args(args)
    stage1, stage2 = pipeline.preprocess_stages(_read_image(args.input), cfg)
    Path(args.output).write_bytes(write_pgm(stage2))
    if args.dump_dir:
        dump = Path(args.dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        (dump / "stage1_equalized.pgm").write_bytes(write_pgm(stage1))
        (dump / "stage2_median.pgm").write_bytes(write_pgm(stage2))
    return EXIT_OK


def _each_image(jobs, cfg, skip):
    """[(job, its image's feature vectors)] over (name, path) jobs, in order.

    pipeline.map_images splits the jobs between this process and a helper, and
    pipeline.extract_each extracts each side's images in stacks. A job that
    raises one of the `skip` errors is reported under its name and left out;
    any other error is raised. Returns (pairs, whether one was left out).
    """
    from . import pipeline

    outcomes = pipeline.map_images(
        lambda some: pipeline.extract_each(lambda job: _read_image(job[1]), some, cfg), jobs)
    done, failed = [], False
    for job, (result, exc) in zip(jobs, outcomes):
        if isinstance(exc, skip):
            _err(f"{job[0]}: {exc}")
            failed = True
        elif exc is not None:
            raise exc
        else:
            done.append((job, result))
    return done, failed


def _manifest_tdb(manifest, entries, cfg):
    """Features per entry, quantization fit on the train split, one transaction per image.

    Unreadable images are reported and skipped. Only train entries keep their
    label. Returns (db, quantization, whether any image was skipped).
    """
    jobs = [(entry.path, manifest.resolve(entry), entry) for entry in entries]
    done, failed = _each_image(jobs, cfg, SKIPPED)
    per_image = [(entry, fvs) for (_, _, entry), fvs in done]
    qm = QuantizationModel.fit(
        fv for entry, fvs in per_image if entry.split == "train" for fv in fvs
    )
    if not qm.ranges:
        _err("warning: no training image yields a region, so the quantization is empty; "
             "a model trained on it classifies transactions but not images")
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


def cmd_mine(args) -> int:
    from . import fpm

    cfg = _config_from_args(args)
    db = read_tdb_csv(Path(args.tdb).read_bytes())
    rules, per_level = fpm.mine_class_rules(db, cfg.minsup, cfg.minconf)
    Path(args.mfi).write_bytes(fpm.mfi_to_csv(per_level))
    if args.rules:
        if all(t.label is None for t in db.transactions):
            _err("rules requested but the transaction database has no labels")
            return EXIT_SEMANTIC
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
    if explicit:
        raise FileNotFoundError(f"no such quantization: {explicit}")
    _err(f"warning: no quantization at {path}; the model classifies transactions but not images")
    return QuantizationModel()


def cmd_train(args) -> int:
    from . import harc

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
    from . import harc

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
        from . import pipeline

        if args.manifest:
            manifest = read_manifest(args.manifest)
            entries = [(e.path, manifest.resolve(e)) for e in manifest.entries]
        else:
            entries = [(args.image, Path(args.image))]
        done, failed = _each_image(entries, model.config, SKIPPED if args.manifest else ())
        for (name, _), fvs in done:
            t = pipeline.image_transaction(fvs, model.quantization, name)
            label, fired = harc.classify(model, t)
            rows.append((name, label, len(fired)))
    Path(args.output).write_text(csv_text("path,predicted,fired_rule_count", rows))
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_evaluate(args) -> int:
    from . import metrics

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
    per_class, frac = args.per_class, args.train_frac
    if not math.isfinite(frac):
        raise ConfigError(f"--train-frac must be finite, got {frac}")
    if per_class < 2:
        raise ConfigError(f"--per-class must be at least 2, one image for each split, got {per_class}")
    try:
        n_train = round(per_class * frac)  # as synth.generate_corpus splits
    except OverflowError:
        raise ConfigError(f"--per-class {per_class} is beyond a float") from None
    if not 1 <= n_train < per_class:
        raise ConfigError(f"--train-frac {frac} puts {n_train} of each class's {per_class} images "
                          "in the train split; each split needs at least one")
    from . import synth

    synth.generate_corpus(
        args.out_dir, seed=cfg.seed, per_class=args.per_class, train_frac=args.train_frac
    )
    return EXIT_OK


def _add_settings(p, keys):
    """--config plus a flag for each setting this command reads; flags override the file."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key in keys:
        default, flag = PipelineConfig.DEFAULTS[key], key.replace("_", "-")
        if default is True:  # a setting that is on by default has a flag that turns it off
            p.add_argument(f"--no-{flag}", dest=key, action="store_false", default=None)
        else:
            p.add_argument(f"--{flag}", type=float if default is None else type(default))


def build_parser():
    ap = argparse.ArgumentParser(prog="imgmine", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="equalize/median one PGM")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dump-dir", help="write stage1_equalized.pgm and stage2_median.pgm here")
    _add_settings(p, ("equalize",))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="manifest -> transaction database CSV")
    p.add_argument("manifest")
    p.add_argument("output")
    p.add_argument("--quant-out", help="where to write learned quantization ranges")
    _add_settings(p, EXTRACTION_KEYS)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("mine", help="mine maximal itemsets and class rules from a TDB")
    p.add_argument("tdb")
    p.add_argument("--mfi", required=True, help="output CSV of maximal frequent itemsets")
    p.add_argument("--rules", help="output CSV of class association rules")
    _add_settings(p, ("minsup", "minconf"))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train the hybrid classifier and record its extraction config")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tdb")
    src.add_argument("--manifest")
    p.add_argument("--quant", help="quantization JSON (with --tdb)")
    p.add_argument("output")
    _add_settings(p, EXTRACTION_KEYS + ("minsup", "minconf"))
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
    _add_settings(p, ("seed",))
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "quant", None) is not None and args.manifest:  # train reads it with --tdb only
        parser.error("argument --quant: not allowed with argument --manifest")
    try:
        return args.func(args)
    except (FileNotFoundError, OSError, PgmError) as exc:
        _err(str(exc))
        return EXIT_IO
    except (ValueError, csv.Error) as exc:  # every input error of the package is a ValueError
        _err(str(exc))
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
