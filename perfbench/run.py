"""imgmine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads and metrics are defined in perfbench/spec.py.

--trace 0 measures the end-to-end metrics. It generates the workload's
inputs from the seed (several times, timing each), then runs whole cycles
of the real CLI as child processes, one at a time, until --seconds is
spent, and reports medians: over set-ups, over cycles, and over classify
children. After the cycles it checks every artifact from outside
(perfbench/checks.py).

Timings are reported in reference seconds. A fixed pure-Python kernel is
timed just before every timed step; each wall time is multiplied by
REF_KERNEL_S over the median kernel time of its cycle (of the set-up phase,
for set-up times). On a shared host the speed of a CPU drifts by tens of
percent over minutes as neighbours load the machine; the scale removes most
of that drift, so runs of the same code agree. On a host where the kernel
takes REF_KERNEL_S, reference seconds are wall seconds. result.json keeps
the raw wall samples, every kernel time and every scale.

--trace 1 runs the same commands in-process through imgmine.cli.main, once
untraced and once with every layer wrapped (perfbench/trace.py), and
reports the per-layer metrics and the tracing overhead.

Everything is written under .perfbench_runs/<workload>[-trace]/, with
result.json holding every sample, provenance and the sha256 of each input
and artifact. The last line of standard output is the JSON result. Any
failed CLI child or output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import spec
import trace

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0  # the whole run must end within 180 s
# Set-up repeats at least SETUP_MIN times and until SETUP_TARGET_S is spent,
# so that millisecond set-ups still give a steady median.
SETUP_MIN, SETUP_MAX, SETUP_TARGET_S = 3, 15, 2.0
# Each cycle repeats the classify child until it has run this long, so the
# sub-second classify of a TDB workload gives several samples per cycle.
CLASSIFY_TARGET_S = 1.0
IMPORT_PROBES = 3
# The reference kernel: KERNEL_N iterations of an integer loop. It takes
# about REF_KERNEL_S seconds on a lightly loaded 2-CPU Xeon VM with Python
# 3.11, and up to half as long again when neighbours load the host.
KERNEL_N = 1_200_000
REF_KERNEL_S = 0.075
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Run in a child: time the CLI import and report numpy and its BLAS build.
PROBE = """
import json, time
t = time.perf_counter()
import imgmine.cli
import_s = time.perf_counter() - t
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = {}
print(json.dumps({"import_s": import_s, "imgmine": imgmine.cli.__file__,
                  "numpy": numpy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}))
"""


class Ledger:
    """Every operation attempted (a CLI child or an output check) and whether it failed."""

    def __init__(self):
        self.ops = []

    def record(self, kind, name, ok, detail=""):
        self.ops.append({"kind": kind, "name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"FAILED {kind} {name}: {detail}", file=sys.stderr)
        return ok

    def check(self, name, fn, *args):
        """Run one output check; returns its result, or None when it failed."""
        try:
            result = fn(*args)
        except (checks.CheckError, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            self.record("check", name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.record("check", name, True)
        return result

    @property
    def failed(self):
        return sum(not op["ok"] for op in self.ops)


def kernel_s():
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(KERNEL_N):
        acc += i * i
    return time.perf_counter() - t0


# The reference kernel's time just before each timed step of this run.
KERNEL_TIMES = []


def timed(fn):
    """Times the reference kernel, then fn; returns (fn's result, wall seconds of fn)."""
    KERNEL_TIMES.append(kernel_s())
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def reference_scale(first):
    """Factor from wall to reference seconds for the steps timed since KERNEL_TIMES[first]."""
    return REF_KERNEL_S / statistics.median(KERNEL_TIMES[first:])


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


class Children:
    """Starts imgmine CLI children one at a time and reaps each with os.wait4."""

    def __init__(self, cwd: Path, ledger: Ledger, deadline: float):
        self.cwd = cwd
        self.ledger = ledger
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.logs = cwd / "logs"
        self.logs.mkdir(exist_ok=True)
        self.count = 0

    def run(self, name, argv, module=True):
        """Returns (ok, wall seconds, ru_maxrss in kB, stdout text)."""
        self.count += 1
        base = self.logs / f"{self.count:03d}-{name}"
        cmd = [sys.executable, "-m", "imgmine.cli", *argv] if module else [sys.executable, *argv]
        with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
            (status, usage, timed_out), wall = timed(lambda: self._wait(cmd, out, err))
        returncode = os.waitstatus_to_exitcode(status)
        detail = "timed out" if timed_out else f"exit {returncode}, see {base.name}.err"
        ok = self.ledger.record("child", name, returncode == 0 and not timed_out, detail)
        return ok, wall, usage.ru_maxrss, Path(f"{base}.out").read_text()

    def _wait(self, cmd, out, err):
        """Starts one child and reaps it; returns (wait status, rusage, timed out)."""
        remaining = self.deadline - time.monotonic()
        previous = signal.signal(signal.SIGALRM, _alarm)
        proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            return status, usage, False
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            return status, usage, True
        finally:
            signal.signal(signal.SIGALRM, previous)


def commands(w: spec.Workload, inp: str, out: str):
    """(name, phase, argv) of one cycle; paths are relative to the run directory."""
    cfg = ["--config", f"{inp}/config.json"]
    if w.kind == "image":
        manifest = f"{inp}/manifest.csv"
        return [
            ("features", "model", ["features", manifest, f"{out}/tdb.csv", *cfg]),
            ("mine", "model", ["mine", f"{out}/tdb.csv", "--mfi", f"{out}/mfi.csv",
                               "--rules", f"{out}/rules.csv", *cfg]),
            ("train", "model", ["train", "--tdb", f"{out}/tdb.csv", f"{out}/model.json", *cfg]),
            ("classify", "classify", ["classify", f"{out}/model.json", "--manifest", manifest,
                                      f"{out}/pred.csv", *cfg]),
            ("evaluate", "evaluate", ["evaluate", f"{out}/pred.csv", manifest, "--split", "test",
                                      "--output", f"{out}/metrics.csv"]),
        ]
    tdb = f"{inp}/train.csv"
    return [
        ("mine", "model", ["mine", tdb, "--mfi", f"{out}/mfi.csv", "--rules", f"{out}/rules.csv", *cfg]),
        ("train", "model", ["train", "--tdb", tdb, f"{out}/model.json", *cfg]),
        ("classify", "classify", ["classify", f"{out}/model.json", "--tdb", f"{inp}/heldout.csv",
                                  f"{out}/pred.csv", *cfg]),
    ]


def make_inputs(w: spec.Workload, seed: int, run_dir: Path, children: Children):
    """Generate the workload's inputs into run_dir/inputs; returns (ok, seconds)."""
    dest = run_dir / "inputs"
    shutil.rmtree(dest, ignore_errors=True)
    if w.name == "synth64":
        ok, wall, _, _ = children.run("synth", ["synth", "inputs", "--per-class", str(w.per_class),
                                                "--seed", str(seed)])
        return ok, wall
    if w.kind == "image":
        _, wall = timed(lambda: inputs.write_image_corpus(dest, seed, w.per_class, w.size))
    else:
        from imgmine.segment import encode_item

        _, wall = timed(lambda: inputs.write_tdb_inputs(dest, seed, w, encode_item))
    return True, wall


def check_outputs(w: spec.Workload, inp: Path, out: Path, ledger: Ledger):
    """All output checks of one cycle's artifacts; returns accuracy_pct or None."""
    config = json.loads((inp / "config.json").read_text())
    if w.kind == "image":
        manifest = [line.split(",") for line in (inp / "manifest.csv").read_text().splitlines()[1:]]
        tdb_rows = ledger.check("tdb rows", checks.read_tdb, out / "tdb.csv") or []
        ledger.check("tdb matches manifest", checks.check_tdb, tdb_rows, manifest)
        ledger.check("quantization", checks.check_quantization, out / "tdb.csv.quant.json")
        names = [path for path, _, _ in manifest]
        truth = {path: label for path, label, split in manifest if split == "test"}
    else:
        tdb_rows = checks.read_tdb(inp / "train.csv")
        truth = checks.read_labels(inp / "heldout_labels.csv")
        names = list(truth)
    ledger.check("mfi", checks.check_mfi, out / "mfi.csv", tdb_rows, config["minsup"])
    ledger.check("rules", checks.check_rules, out / "rules.csv", tdb_rows,
                 config["minsup"], config["minconf"])
    ledger.check("model", checks.check_model, out / "model.json")
    preds = ledger.check("predictions", checks.read_predictions, out / "pred.csv", names)
    if preds is None:
        return None
    accuracy = checks.binary_accuracy_pct(preds, truth)
    if w.kind == "image":
        reported = ledger.check("evaluate accuracy", checks.evaluate_accuracy, out / "metrics.csv")
        agree = reported == f"{accuracy:.1f}"
        ledger.record("check", "evaluate agrees with predictions", agree,
                      f"evaluate says {reported}, predictions give {accuracy:.1f}")
        accuracy = float(reported) if agree else None
    return accuracy


# --- provenance ------------------------------------------------------------------


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def run_probes(children: Children, n: int):
    """Import-time probes; the first also warms the bytecode cache. Returns (probe, seconds)."""
    probe, times = {}, []
    for _ in range(n):
        ok, _, _, out = children.run("import-probe", ["-c", PROBE], module=False)
        if not ok:
            return None, []
        probe = json.loads(out)
        times.append(probe["import_s"])
    return probe, times


# --- the two kinds of run ---------------------------------------------------------


def measure_end_to_end(w, seed, seconds, run_dir, ledger, deadline):
    children = Children(run_dir, ledger, deadline)
    probe, _ = run_probes(children, 1)
    if probe is None:
        return None
    setup_walls, input_digests = [], []
    first_kernel = len(KERNEL_TIMES)
    while len(setup_walls) < SETUP_MIN or (
        sum(setup_walls) < SETUP_TARGET_S and len(setup_walls) < SETUP_MAX
    ):
        ok, wall = make_inputs(w, seed, run_dir, children)
        if not ok:
            return None
        setup_walls.append(wall)
        input_digests.append(inputs.file_digests(run_dir / "inputs"))
    ledger.record("check", "inputs identical on every setup",
                  all(d == input_digests[0] for d in input_digests[1:]))
    scales = {"setup": reference_scale(first_kernel), "cycles": []}

    cycle = commands(w, "inputs", "out")
    (run_dir / "out").mkdir()
    n_classified = None
    walls = {"model_s": [], "classify_s": [], "cycle_s": []}
    samples = {"model_s": [], "classify_per_s": []}
    peak_kb, artifact_digests = 0, []
    t_start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        first_kernel = len(KERNEL_TIMES)
        model_wall, classify_walls = 0.0, []
        for name, phase, argv in cycle:
            spent = 0.0
            while not spent or (phase == "classify" and spent < CLASSIFY_TARGET_S):
                ok, wall, rss_kb, _ = children.run(name, argv)
                if not ok:
                    return None
                spent += wall
                peak_kb = max(peak_kb, rss_kb)
                if phase == "classify":
                    classify_walls.append(wall)
            if phase == "model":
                model_wall += spent
        if n_classified is None:
            n_classified = len((run_dir / "out" / "pred.csv").read_text().splitlines()) - 1
        scale = reference_scale(first_kernel)
        scales["cycles"].append(scale)
        walls["model_s"].append(model_wall)
        walls["classify_s"] += classify_walls
        samples["model_s"].append(model_wall * scale)
        samples["classify_per_s"] += [n_classified / (wall * scale) for wall in classify_walls]
        walls["cycle_s"].append(time.perf_counter() - c0)
        artifact_digests.append(inputs.file_digests(run_dir / "out"))
        if len(artifact_digests) > 1:
            ledger.record("check", f"cycle {len(artifact_digests)} artifacts identical to cycle 1",
                          artifact_digests[-1] == artifact_digests[0])
        # Start another cycle only if it should end less than half a cycle past the budget.
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * statistics.median(walls["cycle_s"]) >= seconds:
            break
    accuracy = check_outputs(w, run_dir / "inputs", run_dir / "out", ledger)
    if accuracy is None:
        return None
    samples["setup_s"] = [wall * scales["setup"] for wall in setup_walls]
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "model_s": statistics.median(samples["model_s"]),
        "classify_per_s": statistics.median(samples["classify_per_s"]),
        "peak_rss_mb": peak_kb / 1024.0,
        "accuracy_pct": accuracy,
    }
    detail = {
        "samples": samples,
        "wall_samples": dict(walls, setup_s=setup_walls),
        "kernel_s": KERNEL_TIMES,
        "wall_to_reference_scales": scales,
        "classified_per_cycle": n_classified,
        "provenance": provenance(probe),
        "input_digests": input_digests[0],
        "artifact_digests": artifact_digests[0],
    }
    return metrics, detail


def _inprocess(main, argv, ledger, label):
    """Run one CLI command through imgmine.cli.main in this process; returns wall seconds."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(argv)
    wall = time.perf_counter() - t0
    return wall if ledger.record("in-process", label, rc == 0, f"exit {rc}") else None


def measure_layers(w, seed, run_dir, ledger, deadline):
    children = Children(run_dir, ledger, deadline)
    probe, import_times = run_probes(children, IMPORT_PROBES)
    if probe is None:
        return None
    ok, _ = make_inputs(w, seed, run_dir, children)
    if not ok:
        return None
    from imgmine.cli import main

    expected = (SRC / "imgmine" / "cli.py").resolve()
    if Path(sys.modules["imgmine.cli"].__file__).resolve() != expected:
        ledger.record("check", "imgmine imported from the checkout", False, sys.modules["imgmine.cli"].__file__)
        return None
    passes = ("reference", "untraced", "traced")
    for d in passes:
        (run_dir / d).mkdir()
    tracer = trace.Tracer()
    walls = {"untraced_s": 0.0, "traced_s": 0.0}
    # A warm-up pass writes the reference artifacts. Then each command runs
    # untraced and traced back to back, so both see the same machine state.
    with contextlib.chdir(run_dir):
        for name, _, argv in commands(w, "inputs", "reference"):
            if _inprocess(main, argv, ledger, f"warm-up {name}") is None:
                return None
        cycles = (commands(w, "inputs", d) for d in passes[1:])
        for (name, _, plain), (_, _, traced) in zip(*cycles):
            wall = _inprocess(main, plain, ledger, f"untraced {name}")
            if wall is None:
                return None
            walls["untraced_s"] += wall
            tracer.install()
            try:
                if name == "mine":
                    unwrapped = tracer.unwrapped_bindings()
                    ledger.record("check", "every binding of a traced function is wrapped",
                                  not unwrapped, f"still unwrapped: {unwrapped}")
                with tracer.root(f"cli.{name}", f"{w.name}:{name}"):
                    wall = _inprocess(main, traced, ledger, f"traced {name}")
            finally:
                tracer.uninstall()
            if wall is None:
                return None
            walls["traced_s"] += wall
    missing = trace.missing_layers(tracer, spec.EXERCISED[w.kind])
    ledger.record("check", "every exercised layer recorded calls", not missing, f"no calls: {missing}")
    reference, plain, traced = (inputs.file_digests(run_dir / d) for d in passes)
    ledger.record("check", "tracing leaves every artifact byte unchanged", reference == plain == traced)
    if check_outputs(w, run_dir / "inputs", run_dir / "traced", ledger) is None:
        return None
    (run_dir / "trace.json").write_text(json.dumps(
        {"spans": tracer.span_records(), "hot": tracer.hot, "counters": tracer.counters,
         "hot_under": [[h, p, n] for (h, p), n in sorted(tracer.hot_under.items())]}))
    overhead = walls["traced_s"] / walls["untraced_s"]
    metrics = trace.per_layer_metrics(tracer, statistics.median(import_times), overhead)
    detail = {
        "walls": walls,
        "provenance": provenance(probe),
        "input_digests": inputs.file_digests(run_dir / "inputs"),
        "artifact_digests": traced,
    }
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "imgmine" / "cli.py").is_file():
        print(f"perfbench: no imgmine sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S
    w = spec.WORKLOADS[args.workload]
    run_dir = RUNS / (w.name + ("-trace" if args.trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()
    if args.trace:
        measured = measure_layers(w, args.seed, run_dir, ledger, deadline)
        wanted = spec.PER_LAYER
    else:
        measured = measure_end_to_end(w, args.seed, args.seconds, run_dir, ledger, deadline)
        wanted = spec.END_TO_END
    if measured is None and not ledger.failed:
        ledger.record("check", "run completed", False)
    correct = ledger.failed == 0
    metrics = {m.name: {"value": measured[0][m.name], "unit": m.unit} for m in wanted} if measured else {}
    result = {"correct": correct, "attempted": len(ledger.ops), "failed": ledger.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        dict(result, workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
             detail=measured[1] if measured else None, operations=ledger.ops), indent=1))

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if measured:
        prov = measured[1]["provenance"]
        print("provenance " + json.dumps(prov, sort_keys=True))
        print("inputs sha256 " + inputs.combined_digest(measured[1]["input_digests"]))
        print("artifacts sha256 " + inputs.combined_digest(measured[1]["artifact_digests"]))
        samples = measured[1].get("samples", {})
        if samples:
            cycles = measured[1]["wall_to_reference_scales"]["cycles"]
            print(f"wall to reference seconds: x{statistics.median(cycles):.4f} "
                  f"(median over {len(cycles)} cycles of {len(KERNEL_TIMES)} kernel timings)")
        for m in wanted:
            n = len(samples.get(m.name, ()))
            count = f" (median of {n})" if n else ""
            print(f"  {m.name:<44} {metrics[m.name]['value']:>14.6g} {m.unit}{count}")
    print(f"  {'error_rate':<44} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} operations; "
          "an operation is one CLI child or one output check)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
