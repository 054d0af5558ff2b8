"""Seeded synthetic scan corpus: a desk-scale stand-in for a clinical dataset.

Three classes: normal scans carry only a smooth textured background, benign
scans add one smooth low-contrast disk, malignant scans add one irregular
high-contrast speckled blob.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import Manifest, ManifestEntry, PipelineConfig, config_to_json, write_manifest
from .edge import conv1d_replicate, gaussian_kernels
from .prep import GrayImage
from .raster import write_pgm
from .segment import CLASSES

IMAGE_SIZE = 64


@lru_cache(maxsize=8)
def _fields(size):
    """(pixel coordinates 0..size-1, the background's ramp), read-only, once per size."""
    axis = np.arange(size, dtype=np.float64)
    ramp = 110.0 + 55.0 * (axis[:, None] + axis) / (2 * size - 2) - 27.5
    for a in (axis, ramp):
        a.setflags(write=False)
    return axis, ramp


def _background(rng, size):
    """Smooth wide-range background: ramp + low-frequency waves + faint noise."""
    axis, ramp = _fields(size)
    phase1, phase2 = rng.uniform(0, 2 * np.pi, size=2)
    # The waves are separable: one sin row and one cos column, broadcast over the ramp.
    base = (
        ramp
        + 18.0 * np.sin(2 * np.pi * axis / size + phase1)
        + 14.0 * np.cos(2 * np.pi * axis[:, None] / size + phase2)
    )
    noise = rng.normal(0.0, 2.0, size=(size, size))
    k = gaussian_kernels(1.0)[0]
    noise = conv1d_replicate(conv1d_replicate(noise, k, axis=1), k, axis=0)
    return base + noise


def _disk_mask(size, cy, cx, radius, wobble=0.0, rng=None):
    axis = _fields(size)[0]
    dy, dx = axis[:, None] - cy, axis - cx
    r = np.hypot(dy, dx)
    if wobble > 0:
        theta = np.arctan2(dy, dx)
        k1, k2 = rng.integers(2, 5), rng.integers(5, 9)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        radius = radius * (1.0 + wobble * np.sin(k1 * theta + p1) + 0.5 * wobble * np.sin(k2 * theta + p2))
    return r <= radius


def _render(rng, label, size=IMAGE_SIZE) -> GrayImage:
    img = _background(rng, size)
    if label != "normal":
        cy = rng.uniform(size * 0.35, size * 0.65)
        cx = rng.uniform(size * 0.35, size * 0.65)
        if label == "benign":
            mask = _disk_mask(size, cy, cx, rng.uniform(9.0, 12.0))
            img[mask] = 205.0 + rng.normal(0.0, 1.5, size=int(mask.sum()))
        else:  # malignant
            mask = _disk_mask(size, cy, cx, rng.uniform(9.0, 13.0), wobble=0.25, rng=rng)
            img[mask] = 242.0 + rng.normal(0.0, 16.0, size=int(mask.sum()))
    return GrayImage(np.clip(np.rint(img), 0, 255).astype(np.uint8))


# Tuned for median-filtered renders of this corpus. Equalization is off:
# rank-based remapping collapses the empty intensity gap between the
# background's top and the lesions, erasing exactly the edges mined here.
def corpus_config(seed: int) -> PipelineConfig:
    return PipelineConfig(canny_low=5.0, canny_high=9.0, equalize=False, seed=seed)


def generate_corpus(out_dir, seed: int = 42, per_class: int = 20, train_frac: float = 0.7):
    """Write PGMs, manifest.csv and a tuned config.json; fully seed-determined."""
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_train = int(round(per_class * train_frac))
    entries = []
    for label in CLASSES:
        for idx in range(per_class):
            img = _render(rng, label)
            rel = f"images/{label}_{idx:03d}.pgm"
            (out_dir / rel).write_bytes(write_pgm(img))
            split = "train" if idx < n_train else "test"
            entries.append(ManifestEntry(path=rel, label=label, split=split))
    manifest = Manifest(entries=entries, base_dir=out_dir)
    (out_dir / "manifest.csv").write_text(write_manifest(manifest))
    (out_dir / "config.json").write_text(config_to_json(corpus_config(seed)))
    return manifest
