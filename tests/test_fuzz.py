"""Fuzz the five input readers through main(): PGM bytes, TDB and manifest text,
model and config JSON. Every run ends in a documented exit code (0-4), never a
traceback. Raw bytes and mutated valid documents are both tried.

Examples are derandomized and no example database is kept, so the suite is
deterministic. Hypothesis keeps its other caches (the constants it reads from
the source) in a temporary directory, so a run leaves no .hypothesis/ behind.
"""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from imgmine.cli import main
from imgmine.prep import GrayImage
from imgmine.raster import write_pgm
from imgmine.segment import CLASSES

# Set before any strategy is built: Hypothesis reads the constants of the
# source while collecting and caches them in its home directory.
HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

# No "/": a fuzzed manifest path stays inside the run's own directory.
ALPHABET = 'abcp019;,."\' \t\r\n\x00\x0b\x85 é-_#{}[]:'
TEXT = st.text(alphabet=ALPHABET, max_size=120)
ITEMS = (111, 112, 121, 122, 211, 222, 311, 422, 512, 621, 999, 901, 0, -3, 10**20)


def blob(seed, size=20):
    rng = np.random.default_rng(seed)
    a = rng.integers(60, 90, size=(size, size))
    a[6:14, 6:14] = 220
    return a


IMAGES = {
    "a.pgm": write_pgm(GrayImage(blob(1).astype(np.uint8))),
    "b.pgm": write_pgm(GrayImage(np.full((20, 20), 90, dtype=np.uint8))),
    "c.pgm": write_pgm(GrayImage(blob(2).astype(np.uint8))),
}
MANIFEST = "path,label,split\na.pgm,benign,train\nb.pgm,normal,train\nc.pgm,benign,test\n"
TDB = "tid,label,items\n" + "".join(
    f"{label}{i},{label},{items}\n"
    for label, items in (("normal", "999"), ("benign", "111;211"), ("malignant", "122;222"))
    for i in range(4)
)
CONFIG = {"sigma": 1.4, "canny_low": 5.0, "canny_high": 9.0, "min_area": 25,
          "minsup": 0.1, "minconf": 0.97, "equalize": False, "seed": 42}


def run(*argv):
    rc = main([str(a) for a in argv])
    assert rc in range(5), f"exit code {rc}"
    return rc


def workdir():
    """A fresh directory holding the three images, the manifest and the TDB."""
    tmp = tempfile.TemporaryDirectory()
    d = Path(tmp.name)
    for name, data in IMAGES.items():
        (d / name).write_bytes(data)
    (d / "manifest.csv").write_text(MANIFEST)
    (d / "tdb.csv").write_text(TDB)
    return tmp, d


@functools.cache
def model_json():
    """A valid model, trained on the three images."""
    tmp, d = workdir()
    with tmp:
        assert main(["train", "--manifest", str(d / "manifest.csv"), str(d / "m.json")]) == 0
        return (d / "m.json").read_text()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 2, 25, 10**400, 0.5, 1e300])
    | st.floats(-10, 10) | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.sampled_from(list(CLASSES) + ["cancer", "", "harc-1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_model(draw):
    """The valid model with a few values replaced by arbitrary JSON or keys deleted."""
    doc = json.loads(model_json())
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def mutated_bytes(draw, data):
    """data with some bytes overwritten, inserted or cut off."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "insert", "cut"]))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "set" and data:
            data[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            data[pos:pos] = draw(st.binary(max_size=4))
        else:
            del data[pos:]
    return bytes(data)


def pgm_header(tokens):
    return " ".join(str(t) for t in tokens).encode("ascii")


PGM = (
    st.binary(max_size=80)
    | mutated_bytes(IMAGES["a.pgm"])
    | st.builds(
        lambda w, h, maxval, pixels: pgm_header(["P5", w, h, maxval]) + b"\n" + pixels,
        st.integers(-2, 12), st.integers(-2, 12), st.sampled_from([0, 1, 255, 256, "x"]),
        st.binary(min_size=0, max_size=160),
    )
)


@FUZZ
@given(PGM)
def test_fuzz_pgm(data):
    tmp, d = workdir()
    with tmp:
        (d / "x.pgm").write_bytes(data)
        (d / "manifest.csv").write_text(MANIFEST + "x.pgm,normal,train\n")
        run("preprocess", d / "x.pgm", d / "out.pgm")
        run("features", d / "manifest.csv", d / "out.csv", "--no-equalize")


TDB_LINE = st.builds(
    lambda tid, label, items, sep: f"{tid},{label},{sep.join(map(str, items))}",
    st.sampled_from(["t1", "t2", "t3", "", '"t,4"', "t1 "]),
    st.sampled_from(list(CLASSES) + ["", "cancer", " benign"]),
    st.lists(st.sampled_from(ITEMS), max_size=5),
    st.sampled_from([";", ";;", " ", ","]),
)
TDB_TEXT = (
    TEXT
    | st.lists(TDB_LINE, max_size=8).map(lambda rows: "tid,label,items\n" + "\n".join(rows))
    | st.lists(TDB_LINE, max_size=4).map(lambda rows: TDB + "\n".join(rows))
)


@FUZZ
@given(TDB_TEXT | st.binary(max_size=80).map(lambda b: b.decode("latin-1")), st.booleans())
def test_fuzz_tdb(text, as_latin1):
    tmp, d = workdir()
    with tmp:
        (d / "model.json").write_text(model_json())
        (d / "x.csv").write_bytes(text.encode("latin-1" if as_latin1 else "utf-8", "replace"))
        run("mine", d / "x.csv", "--mfi", d / "mfi.csv", "--rules", d / "rules.csv")
        run("train", "--tdb", d / "x.csv", d / "m.json")
        run("classify", d / "model.json", "--tdb", d / "x.csv", d / "pred.csv")


MANIFEST_LINE = st.builds(
    lambda path, label, split: f"{path},{label},{split}",
    st.sampled_from(["a.pgm", "b.pgm", "c.pgm", "x.pgm", '"a,b.pgm"', "", "..", " a.pgm"]),
    st.sampled_from(list(CLASSES) + ["", "cancer"]),
    st.sampled_from(["train", "test", "dev", "", " test"]),
)
MANIFEST_TEXT = (
    TEXT
    | st.lists(MANIFEST_LINE, max_size=6).map(lambda rows: "path,label,split\n" + "\n".join(rows))
    | st.lists(MANIFEST_LINE, max_size=3).map(lambda rows: MANIFEST + "\n".join(rows))
)


@FUZZ
@given(MANIFEST_TEXT)
def test_fuzz_manifest(text):
    tmp, d = workdir()
    with tmp:
        (d / "model.json").write_text(model_json())
        (d / "pred.csv").write_text("path,predicted,fired_rule_count\na.pgm,benign,1\nc.pgm,normal,0\n")
        (d / "x.csv").write_text(text)
        run("features", d / "x.csv", d / "tdb.out")
        run("train", "--manifest", d / "x.csv", d / "m.json")
        run("classify", d / "model.json", "--manifest", d / "x.csv", d / "p.csv")
        run("evaluate", d / "pred.csv", d / "x.csv")


@FUZZ
@given(mutated_model() | TEXT | st.binary(max_size=60).map(lambda b: b.decode("latin-1")))
def test_fuzz_model(text):
    tmp, d = workdir()
    with tmp:
        (d / "model.json").write_text(text)
        run("classify", d / "model.json", "--tdb", d / "tdb.csv", d / "p.csv")
        run("classify", d / "model.json", "--image", d / "a.pgm", d / "p.csv")


CONFIG_KEYS = list(CONFIG) + ["levels", "magnitude_mode", "attribute_cap", "bogus"]
# Values small enough to run: a sigma of 10**9 asks for a kernel of 6e9 samples.
CONFIG_VALUES = (
    st.none() | st.booleans() | st.integers(-3, 60) | st.floats(-3, 30)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), "1.4", [], {}])
)
CONFIG_TEXT = (
    st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=4)
    .map(lambda changes: json.dumps(dict(CONFIG, **changes)))
    | st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=3).map(json.dumps)
    | TEXT
    | st.sampled_from(["5", "null", "[]", '"ab"', "true", "{}"])
)


@FUZZ
@given(CONFIG_TEXT)
def test_fuzz_config(text):
    tmp, d = workdir()
    with tmp:
        (d / "cfg.json").write_text(text)
        run("features", d / "manifest.csv", d / "tdb.out", "--config", d / "cfg.json")
        run("mine", d / "tdb.csv", "--mfi", d / "mfi.csv", "--rules", d / "r.csv",
            "--config", d / "cfg.json")
