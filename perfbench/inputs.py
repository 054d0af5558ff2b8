"""Seeded input generators for the workloads that do not use `imgmine synth`.

large256 images come from a renderer of the benchmark's own, so a refactor
of imgmine.synth cannot change the workload. TDB workloads come from a
class-profile transaction generator whose item codes are built with
imgmine.segment.encode_item, the program's own item format.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

CLASSES = ("normal", "benign", "malignant")
TRAIN_FRAC = 0.7

# large256 uses the shipped corpus's tuning: absolute Canny thresholds, no
# equalization, and the default minsup and minconf written out.
IMAGE_CONFIG = {"canny_low": 5.0, "canny_high": 9.0, "equalize": False, "minsup": 0.10, "minconf": 0.97}


def file_digests(root: Path) -> dict:
    """sha256 of every file under root, keyed by its POSIX path relative to root."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def combined_digest(digests: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}\0{digests[name]}\n".encode())
    return h.hexdigest()


# --- large256: the benchmark's own image renderer ---------------------------


def _smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    t = np.arange(-3, 4, dtype=np.float64)
    k = np.exp(-(t * t) / (2 * sigma * sigma))
    k /= k.sum()
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (3, 3)
        win = np.lib.stride_tricks.sliding_window_view(np.pad(a, pad, mode="edge"), 7, axis=axis)
        a = win @ k
    return a


def render_scan(rng: np.random.Generator, label: str, size: int) -> np.ndarray:
    """Ramp-and-wave background with faint smoothed noise; abnormal scans get one lesion.

    Benign lesions are smooth bright disks; malignant ones are brighter,
    speckled and have a wobbling rim. Lesion radii scale with the image.
    """
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    img = (
        82.5
        + 55.0 * (x + y) / (2 * size - 2)
        + 18.0 * np.sin(2 * np.pi * x / size + p1)
        + 14.0 * np.cos(2 * np.pi * y / size + p2)
        + _smooth(rng.normal(0.0, 2.0, size=(size, size)), 1.0)
    )
    if label != "normal":
        scale = size / 64.0
        cy, cx = rng.uniform(size * 0.35, size * 0.65, size=2)
        dy, dx = y - cy, x - cx
        r = np.hypot(dy, dx)
        if label == "benign":
            mask = r <= rng.uniform(9.0, 12.0) * scale
            img[mask] = 205.0 + rng.normal(0.0, 1.5, size=int(mask.sum()))
        else:
            theta = np.arctan2(dy, dx)
            k1, k2 = rng.integers(2, 5), rng.integers(5, 9)
            q1, q2 = rng.uniform(0, 2 * np.pi, size=2)
            rim = rng.uniform(9.0, 13.0) * scale * (
                1.0 + 0.25 * np.sin(k1 * theta + q1) + 0.125 * np.sin(k2 * theta + q2)
            )
            mask = r <= rim
            img[mask] = 242.0 + rng.normal(0.0, 16.0, size=int(mask.sum()))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def write_image_corpus(dest: Path, seed: int, per_class: int, size: int) -> None:
    """images/*.pgm, manifest.csv and config.json, all determined by seed."""
    (dest / "images").mkdir(parents=True)
    rng = np.random.default_rng(seed)
    n_train = round(per_class * TRAIN_FRAC)
    rows = ["path,label,split"]
    for label in CLASSES:
        for idx in range(per_class):
            pixels = render_scan(rng, label, size)
            rel = f"images/{label}_{idx:03d}.pgm"
            header = f"P5\n{size} {size}\n255\n".encode("ascii")
            (dest / rel).write_bytes(header + pixels.tobytes())
            rows.append(f"{rel},{label},{'train' if idx < n_train else 'test'}")
    (dest / "manifest.csv").write_text("\n".join(rows) + "\n")
    config = dict(IMAGE_CONFIG, seed=seed)
    (dest / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


# --- TDB workloads: class-profile transactions ------------------------------

# Typical fine bin (1..4) of each of the six features, per class; normal sits
# two bins from both abnormal classes, so held-out accuracy stays steady from
# seed to seed. Every
# region departs from its class profile in exactly DEVIATIONS features, and
# the regions of one transaction depart in disjoint features, so a
# one-region transaction always holds 6 items and a two-region one
# 6 + 2 * DEVIATIONS. Fixing the item count keeps the miner's work steady
# from seed to seed.
PROFILE = {
    "normal": (1, 1, 1, 4, 4, 1),
    "benign": (3, 3, 3, 2, 2, 3),
    "malignant": (4, 4, 4, 1, 1, 4),
}
DEVIATIONS = 2


def transaction_items(rng: random.Random, label: str, n_regions: int, encode_item) -> list:
    departing = rng.sample(range(len(PROFILE[label])), DEVIATIONS * n_regions)
    items = set()
    for r in range(n_regions):
        dev = departing[r * DEVIATIONS : (r + 1) * DEVIATIONS]
        for f, typical in enumerate(PROFILE[label]):
            fine = typical
            if f in dev:
                fine = rng.choice([b for b in (1, 2, 3, 4) if b != typical])
            items.add(encode_item(f + 1, fine))
    return sorted(items)


def transactions(seed: int, stream: str, n: int, max_regions: int, encode_item) -> list:
    """(tid, label, items) rows; classes and region counts cycle so each class gets
    the same share of every region count."""
    rng = random.Random(f"{stream}:{seed}")
    rows = []
    for i in range(n):
        label = CLASSES[i % len(CLASSES)]
        n_regions = 1 + (i // len(CLASSES)) % max_regions
        rows.append((f"{stream}{i:05d}", label, transaction_items(rng, label, n_regions, encode_item)))
    return rows


def _tdb_csv(rows, with_labels: bool) -> str:
    lines = ["tid,label,items"]
    for tid, label, items in rows:
        lines.append(f"{tid},{label if with_labels else ''},{';'.join(map(str, items))}")
    return "\n".join(lines) + "\n"


def write_tdb_inputs(dest: Path, seed: int, workload, encode_item) -> None:
    """train.csv (labelled), heldout.csv (unlabelled), heldout_labels.csv, config.json."""
    dest.mkdir(parents=True)
    train = transactions(seed, "t", workload.n_train, workload.max_regions, encode_item)
    heldout = transactions(seed, "h", workload.n_heldout, workload.max_regions, encode_item)
    (dest / "train.csv").write_text(_tdb_csv(train, with_labels=True))
    (dest / "heldout.csv").write_text(_tdb_csv(heldout, with_labels=False))
    labels = ["tid,label"] + [f"{tid},{label}" for tid, label, _ in heldout]
    (dest / "heldout_labels.csv").write_text("\n".join(labels) + "\n")
    config = {"minsup": workload.minsup, "minconf": workload.minconf, "seed": seed}
    (dest / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
