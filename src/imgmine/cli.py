"""imgmine command line: preprocess | features | mine | train | classify | evaluate | synth."""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

# Each command imports only the layers it runs, inside its own body: mine, train,
# classify --tdb and evaluate never load numpy or a pixel module, mine loads neither harc
# nor metrics, and evaluate neither fpm nor harc.
from .config import (EXTRACTION_KEYS, ModelError, PipelineConfig, config_to_json, load_config,
                     read_input, read_manifest)
from .raster import PgmError, read_pgm, write_pgm
from .segment import (
    CLASSES,
    QuantizationModel,
    TransactionDB,
    csv_bytes,
    csv_rows,
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
PREDICTIONS_HEADER = "path,predicted,fired_rule_count"


def _err(msg):
    print(f"imgmine: {msg}", file=sys.stderr)


def _read_image(path):
    return read_input(path, read_pgm)


def _sidecar(tdb, kind):
    """<tdb>.quant.json or <tdb>.config.json: what features writes beside a TDB."""
    return Path(f"{tdb}.{kind}.json")


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


def cmd_features(args) -> int:
    """Features per image, quantization fit on the train split, one transaction per image.

    Unreadable images are reported and skipped. Only train entries keep their
    label. Beside the TDB go <tdb>.quant.json and <tdb>.config.json, the
    extraction settings, which train reads back.
    """
    cfg = _config_from_args(args)
    manifest = read_manifest(args.manifest)
    jobs = [(entry.path, manifest.resolve(entry), entry) for entry in manifest.entries]
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
    Path(args.output).write_bytes(write_tdb_csv(TransactionDB(transactions=transactions)))
    quant = json.dumps(qm.to_dict(), indent=2, sort_keys=True) + "\n"
    _sidecar(args.output, "quant").write_bytes(quant.encode("utf-8"))
    _sidecar(args.output, "config").write_bytes(config_to_json(cfg, EXTRACTION_KEYS))
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_mine(args) -> int:
    from . import fpm

    cfg = _config_from_args(args)
    db = read_input(args.tdb, read_tdb_csv)
    rules, per_level = fpm.mine_class_rules(db, cfg.minsup, cfg.minconf)
    Path(args.mfi).write_bytes(fpm.mfi_to_csv(per_level))
    if args.rules:
        if all(t.label is None for t in db.transactions):
            raise ValueError("rules requested but the transaction database has no labels")
        Path(args.rules).write_bytes(fpm.rules_to_csv(rules))
    return EXIT_OK


def _check_agreement(cfg, cfg_path, recorded, source):
    """ModelError, naming both, if cfg differs from recorded on an extraction setting."""
    differ = [k for k in EXTRACTION_KEYS if getattr(cfg, k) != getattr(recorded, k)]
    if differ:
        raise ModelError(f"config {cfg_path} and {source} disagree on {', '.join(differ)}")


def cmd_train(args) -> int:
    """Train with the extraction settings that features recorded beside the TDB;
    --config only checks them, and sets minsup and minconf."""
    from . import harc

    cfg = _config_from_args(args)
    db = read_input(args.tdb, read_tdb_csv)
    record = _sidecar(args.tdb, "config")
    if record.exists():
        extraction = load_config(record)
        if args.config:
            _check_agreement(cfg, args.config, extraction, f"record {record}")
    else:
        _err(f"warning: no extraction record at {record}; the model records "
             "the extraction settings of --config or the defaults")
        extraction = cfg
    quant = _sidecar(args.tdb, "quant")
    if quant.exists():
        qm = read_input(quant, lambda data: QuantizationModel.from_dict(json.loads(data.decode("utf-8"))))
    else:
        _err(f"warning: no quantization at {quant}; the model classifies transactions but not images")
        qm = QuantizationModel()
    model = harc.train(db, minsup=cfg.minsup, minconf=cfg.minconf, quantization=qm, config=extraction)
    Path(args.output).write_bytes(harc.model_to_json(model))
    return EXIT_OK


def cmd_classify(args) -> int:
    """Extract with the model's own settings; --config only checks that it agrees."""
    from . import harc

    cfg = load_config(args.config) if args.config else None
    model = read_input(args.model, harc.model_from_json)
    if cfg is not None:
        _check_agreement(cfg, args.config, model.config, f"model {args.model}")
    if not args.tdb and not model.quantization.ranges:
        raise ModelError(f"model {args.model} has no quantization: it classifies transactions, not images")
    rows = []
    failed = False
    if args.tdb:
        db = read_input(args.tdb, read_tdb_csv)
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
    Path(args.output).write_bytes(csv_bytes(PREDICTIONS_HEADER, rows))
    return EXIT_PARTIAL if failed else EXIT_OK


def _predictions(data):
    """{path: predicted class} of a predictions file, in its order."""
    predicted = {}
    for lineno, (path, label, _) in csv_rows(data, PREDICTIONS_HEADER):
        if label not in CLASSES:
            raise ValueError(f"line {lineno}: bad prediction row")
        if path in predicted:
            raise ValueError(f"line {lineno}: {path} predicted twice")
        predicted[path] = label
    return predicted


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
    for path, predicted in read_input(args.predictions, _predictions).items():
        if path not in labels:
            continue
        if labels[path] is None:
            _err(f"warning: {path} has no label in manifest; skipped")
            continue
        pairs.append((labels[path], predicted))
    if not pairs:
        raise ValueError("no labeled predictions to evaluate")
    m = metrics.MultiClassMatrix.from_pairs(pairs)
    text, csv = metrics.report(m)
    print(text, end="")
    if args.output:
        Path(args.output).write_bytes(csv)
    return EXIT_OK


def cmd_synth(args) -> int:
    if not 2 <= args.per_class <= sys.float_info.max:  # synth.generate_corpus splits it as a float
        raise ValueError(f"--per-class must be at least 2, one image for each split, and fit a float, "
                         f"got {args.per_class}")
    from . import synth

    synth.generate_corpus(args.out_dir, seed=args.seed, per_class=args.per_class)
    return EXIT_OK


def _add_settings(p, keys):
    """--config plus a flag for each setting this command reads; flags override the file."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key in keys:
        default, flag = PipelineConfig.DEFAULTS[key], PipelineConfig.FLAGS[key]
        if default is True:
            p.add_argument(flag, dest=key, action="store_false", default=None)
        else:
            p.add_argument(flag, type=float if default is None else type(default))


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
    _add_settings(p, EXTRACTION_KEYS)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("mine", help="mine maximal itemsets and class rules from a TDB")
    p.add_argument("tdb")
    p.add_argument("--mfi", required=True, help="output CSV of maximal frequent itemsets")
    p.add_argument("--rules", help="output CSV of class association rules")
    _add_settings(p, ("minsup", "minconf"))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train the hybrid classifier on a TDB that features wrote")
    p.add_argument("--tdb", required=True)
    p.add_argument("output")
    _add_settings(p, ("minsup", "minconf"))
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
    p.add_argument("--seed", type=int, default=PipelineConfig.DEFAULTS["seed"])
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    """Run one command. A command returns only EXIT_OK or EXIT_PARTIAL; every other exit
    code is decided here, from the exception that stopped the command."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every other input error of the package is a ValueError
        _err(str(exc))
        if isinstance(exc, (OSError, PgmError)):
            return EXIT_IO
        return EXIT_MODEL if isinstance(exc, ModelError) else EXIT_SEMANTIC


def run():
    """Process entry: main, then exit with its code. gc.freeze() first takes the heap,
    numpy's included, out of the interpreter's last collection, which would only walk
    objects the OS frees anyway; main has closed every artifact, and exit still flushes
    the streams and runs atexit handlers. main never freezes: it also runs in longer-lived
    processes, where each freeze would keep that call's uncollected cycles for good."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
