"""Pipeline configuration and dataset manifests."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .raster import PgmError
from .segment import CLASSES, csv_bytes, csv_rows


class ModelError(ValueError):
    """Model persistence / compatibility failure."""


def read_input(path, parse):
    """parse(the bytes of the file at path): the one reader of input files. An error in the
    file is raised again as 'PATH: reason' with the exit code of its kind: a PgmError (2) or
    a ModelError (4) keeps its class; any other ValueError, a csv.Error or the RecursionError
    of too deep JSON becomes a ValueError (3). An OSError passes as it is: it names the file."""
    try:
        return parse(Path(path).read_bytes())
    except (ValueError, RecursionError, csv.Error) as exc:
        kind = type(exc) if isinstance(exc, (PgmError, ModelError)) else ValueError
        raise kind(f"{path}: {exc}") from None


# The settings that turn an image into a transaction. A model records them,
# so classify extracts exactly as the model's training data was extracted.
EXTRACTION_KEYS = ("sigma", "canny_low", "canny_high", "equalize", "min_area")
# The Gaussian kernels take 6*sigma+1 samples; far below this bound they
# already span any image the pipeline is meant for.
MAX_SIGMA = 100.0
# Below this bound the derivative kernel's outer taps, exp(-1 / (2 sigma^2)) / sigma^2,
# fall towards 0: a one-level step's magnitude nears edge.FLAT_MAGNITUDE (9.9e-9 at 0.15)
# and reaches 0 by 0.12, and at 1e-300 the kernels are NaN.
MIN_SIGMA = 0.2


class PipelineConfig:
    # Each setting with its default. canny_low and canny_high are absolute hysteresis
    # thresholds; when unset, each image uses 0.1 / 0.25 of its own maximum gradient magnitude.
    DEFAULTS = {"sigma": 1.4, "canny_low": None, "canny_high": None, "min_area": 25,
                "minsup": 0.10, "minconf": 0.97, "equalize": True, "seed": 42}
    # The CLI flag that overrides each; a setting that is on by default has a flag that turns it off.
    FLAGS = {key: ("--no-" if default is True else "--") + key.replace("_", "-")
             for key, default in DEFAULTS.items()}
    __slots__ = tuple(DEFAULTS)

    def __init__(self, **values):
        unknown = set(values) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, default in self.DEFAULTS.items():
            value = values.get(name, default)
            setattr(self, name, value)
            if value is None and default is None:
                continue
            # Unset thresholds and float fields take any JSON number that fits a
            # finite float; never a bool.
            numeric = default is None or isinstance(default, float)
            kind = (int, float) if numeric else type(default)
            if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
                raise ValueError(f"config value {name}={value!r} has the wrong type")
            if numeric and not abs(value) <= sys.float_info.max:  # NaN compares false
                raise ValueError(f"config value {name}={value!r} is not finite")
        if not 0 < self.minsup <= 1:
            raise ValueError("minsup must lie in (0, 1]")
        if not 0 < self.minconf <= 1:
            raise ValueError("minconf must lie in (0, 1]")
        if not MIN_SIGMA <= self.sigma <= MAX_SIGMA:
            raise ValueError(f"sigma must lie in [{MIN_SIGMA:g}, {MAX_SIGMA:g}]")
        if self.min_area < 1:
            raise ValueError("min_area must be >= 1")
        if (self.canny_low is None) != (self.canny_high is None):
            raise ValueError("set both canny_low and canny_high or neither")
        if self.canny_low is not None and not 0 <= self.canny_low <= self.canny_high:
            raise ValueError("need 0 <= canny_low <= canny_high")

    def __eq__(self, other):
        return type(other) is PipelineConfig and all(
            getattr(self, k) == getattr(other, k) for k in self.DEFAULTS)


def _config_document(data):
    """The settings of a config file, checked on their own before a flag overrides them."""
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    PipelineConfig(**doc)
    return doc


def load_config(path=None, overrides=None) -> PipelineConfig:
    """Config file (flat JSON keys) with CLI overrides layered on top; a bad value's error
    names the file, or the flags that override it."""
    values = {} if path is None else read_input(path, _config_document)
    try:
        return PipelineConfig(**values | (overrides or {}))
    except ValueError as exc:  # the file alone is valid, so a flag made it fail
        raise ValueError(f"{', '.join(map(PipelineConfig.FLAGS.get, overrides))}: {exc}") from None


def config_to_json(cfg: PipelineConfig, keys=tuple(PipelineConfig.DEFAULTS)) -> bytes:
    doc = {name: getattr(cfg, name) for name in keys}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


class ManifestEntry(NamedTuple):
    path: str
    label: Optional[str]
    split: str  # "train" | "test"


class Manifest:
    __slots__ = ("entries", "base_dir")

    def __init__(self, entries=(), base_dir=Path()):
        self.entries, self.base_dir = list(entries), base_dir
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate image paths in manifest")
        for e in self.entries:
            if e.label is not None and e.label not in CLASSES:
                raise ValueError(f"unknown label {e.label!r} for {e.path}")
            if e.split not in ("train", "test"):
                raise ValueError(f"unknown split {e.split!r} for {e.path}")

    def __eq__(self, other):
        return type(other) is Manifest and (self.entries, self.base_dir) == (other.entries, other.base_dir)

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.base_dir / entry.path


MANIFEST_HEADER = "path,label,split"


def read_manifest(path) -> Manifest:
    def parse(data):
        rows = ([s.strip() for s in fields] for _, fields in csv_rows(data, MANIFEST_HEADER))
        entries = [ManifestEntry(p, label or None, split) for p, label, split in rows]
        return Manifest(entries, Path(path).parent)

    return read_input(path, parse)


def write_manifest(manifest: Manifest) -> bytes:
    return csv_bytes(MANIFEST_HEADER, ((e.path, e.label or "", e.split) for e in manifest.entries))
