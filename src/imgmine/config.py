"""Pipeline configuration and dataset manifests."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .segment import CLASSES, csv_lines, csv_text


class ConfigError(ValueError):
    pass


class ManifestError(ValueError):
    pass


class ModelError(ValueError):
    """Model persistence / compatibility failure."""


# The settings that turn an image into a transaction. A model records them,
# so classify extracts exactly as the model's training data was extracted.
EXTRACTION_KEYS = ("sigma", "canny_low", "canny_high", "equalize", "min_area")
# The Gaussian kernels take 6*sigma+1 samples; far below this bound they
# already span any image the pipeline is meant for.
MAX_SIGMA = 100.0


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
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
                raise ConfigError(f"config value {name}={value!r} has the wrong type")
            if numeric and not abs(value) <= sys.float_info.max:  # NaN compares false
                raise ConfigError(f"config value {name}={value!r} is not finite")
        if not 0 < self.minsup <= 1:
            raise ConfigError("minsup must lie in (0, 1]")
        if not 0 < self.minconf <= 1:
            raise ConfigError("minconf must lie in (0, 1]")
        if not 0 < self.sigma <= MAX_SIGMA:
            raise ConfigError(f"sigma must lie in (0, {MAX_SIGMA:g}]")
        if self.min_area < 1:
            raise ConfigError("min_area must be >= 1")
        if (self.canny_low is None) != (self.canny_high is None):
            raise ConfigError("set both canny_low and canny_high or neither")
        if self.canny_low is not None and not 0 <= self.canny_low <= self.canny_high:
            raise ConfigError("need 0 <= canny_low <= canny_high")

    def __eq__(self, other):
        return type(other) is PipelineConfig and all(
            getattr(self, k) == getattr(other, k) for k in self.DEFAULTS)


def load_config(path=None, overrides=None) -> PipelineConfig:
    """Config file (flat JSON keys) with CLI overrides layered on top; a bad value's error
    names the file, or the flags that override it."""
    values = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"bad config JSON in {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        values.update(doc)
    source = f"config {path}"
    try:
        cfg = PipelineConfig(**values)  # the file is checked on its own before a flag overrides it
        if overrides:
            source = ", ".join(PipelineConfig.FLAGS[key] for key in overrides)
            cfg = PipelineConfig(**values | overrides)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg


def config_to_json(cfg: PipelineConfig, keys=tuple(PipelineConfig.DEFAULTS)) -> str:
    doc = {name: getattr(cfg, name) for name in keys}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
            raise ManifestError("duplicate image paths in manifest")
        for e in self.entries:
            if e.label is not None and e.label not in CLASSES:
                raise ManifestError(f"unknown label {e.label!r} for {e.path}")
            if e.split not in ("train", "test"):
                raise ManifestError(f"unknown split {e.split!r} for {e.path}")

    def __eq__(self, other):
        return type(other) is Manifest and (self.entries, self.base_dir) == (other.entries, other.base_dir)

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.base_dir / entry.path


MANIFEST_HEADER = "path,label,split"


def read_manifest(path) -> Manifest:
    path = Path(path)
    text = path.read_text()
    entries = []
    for lineno, line, parts in csv_lines(text):
        if lineno == 1 and line.strip() == MANIFEST_HEADER:
            continue
        if len(parts) != 3:
            raise ManifestError(f"{path}:{lineno}: expected 'path,label,split'")
        p, label, split = (s.strip() for s in parts)
        entries.append(ManifestEntry(path=p, label=label or None, split=split))
    return Manifest(entries=entries, base_dir=path.parent)


def write_manifest(manifest: Manifest) -> str:
    return csv_text(MANIFEST_HEADER, ((e.path, e.label or "", e.split) for e in manifest.entries))
