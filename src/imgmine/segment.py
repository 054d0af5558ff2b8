"""Object extraction, texture features, hierarchical item encoding, transaction DB I/O."""

from __future__ import annotations

import csv
import io
import math
import numbers
from typing import NamedTuple, Optional

# numpy and prep are imported inside the pixel functions below (extract_regions,
# glcm_features): mine, train --tdb, classify --tdb and evaluate import this
# module for its item codes and TDB I/O, and must not pay numpy's import.

CLASSES = ("normal", "benign", "malignant")
CLASS_ITEMS = {name: 901 + i for i, name in enumerate(CLASSES)}
ITEM_CLASSES = {v: k for k, v in CLASS_ITEMS.items()}
NO_OBJECT_ITEM = 999  # sentinel for images with no extracted regions

GLCM_LEVELS = 8


class Region(NamedTuple):
    """8-connected pixel component; coords is an (n, 2) array of (y, x) in raster order."""

    coords: object  # a numpy array; see the note on numpy above
    bbox: tuple  # (ymin, xmin, ymax, xmax)

    @property
    def area(self):
        return self.coords.shape[0]


class FeatureVector(NamedTuple):
    area: float
    mean_intensity: float
    glcm_contrast: float
    glcm_energy: float
    glcm_homogeneity: float
    glcm_entropy: float

    def value(self, name):
        return getattr(self, name)


FEATURE_NAMES = FeatureVector._fields


class Transaction:
    __slots__ = ("tid", "items", "label")

    def __init__(self, tid: str, items, label: Optional[str] = None):
        items = tuple(items)  # Python or numpy integers; never a bool, a float or a str
        if not all((type(i) is int or isinstance(i, numbers.Integral) and not isinstance(i, bool)) and i > 0
                   for i in items):  # type() first: the ABC check costs several times more
            raise ValueError("items must be positive integers")
        items = tuple(sorted(set(map(int, items))))
        if label is not None and label not in CLASSES:
            raise ValueError(f"unknown class label {label!r}")
        self.tid, self.items, self.label = tid, items, label

    def __eq__(self, other):
        return type(other) is Transaction and (self.tid, self.items, self.label) == (
            other.tid, other.items, other.label)


class TransactionDB:
    __slots__ = ("transactions",)

    def __init__(self, transactions=()):
        self.transactions = list(transactions)
        tids = [t.tid for t in self.transactions]
        if len(set(tids)) != len(tids):
            raise ValueError("duplicate tids in transaction database")

    def __eq__(self, other):
        return type(other) is TransactionDB and self.transactions == other.transactions

    def __len__(self):
        return len(self.transactions)


def extract_regions(edges, img, min_area: int = 25):
    """Close gaps (one 3x3 dilation), fill holes, label 8-connected components of an EdgeMap.

    Components smaller than min_area are dropped; the result is ordered by
    (bounding-box top-left corner, area) so extraction is deterministic.
    The stages run on the edge box widened by the dilation's reach: background
    outside it reaches the border in a straight line, and raster order is kept.
    Of a stack, one such list per plane, cropped to the union of the planes' boxes,
    which holds each plane's own box, so the same argument holds for every plane.
    """
    import numpy as np
    from .prep import BinaryImage, bounding_box, dilate, fill_holes, label_components, square3
    if edges.bits.shape != img.pixels.shape:
        raise ValueError("edge map and image dimensions differ")
    planes = edges.bits.reshape(-1, edges.height, edges.width)
    per_plane = [[] for _ in planes]
    box = bounding_box(planes, 1)
    if box is not None:
        crop = BinaryImage(planes[box])
        labels = label_components(fill_holes(dilate(crop, square3()).bits), 8).ravel()
        pixels = np.argsort(labels, kind="stable")  # by component, raster order within each
        sizes = np.bincount(labels)
        for stop, size in zip(np.cumsum(sizes)[1:], sizes[1:]):
            if size >= min_area:
                ys, xs = np.divmod(pixels[stop - size : stop], crop.width)  # ys over the stacked rows
                plane = int(ys[0]) // crop.height  # a component lies in one plane
                ys, xs = ys + (box[1].start - plane * crop.height), xs + box[2].start
                bbox = (int(ys[0]), int(xs.min()), int(ys[-1]), int(xs.max()))
                region = Region(coords=np.stack([ys, xs], axis=1).astype(np.int64), bbox=bbox)
                per_plane[plane].append(region)
    for regions in per_plane:
        regions.sort(key=lambda r: (r.bbox[0], r.bbox[1], r.area))
    return per_plane if edges.bits.ndim > 2 else per_plane[0]


def glcm_features(img, region: Region) -> FeatureVector:
    """Area, mean intensity and four co-occurrence statistics for one region of a GrayImage.

    Intensities are quantized to 8 levels; the co-occurrence matrix is the
    symmetric horizontal-offset matrix over in-region pixel pairs.
    """
    import numpy as np
    ys, xs = region.coords[:, 0], region.coords[:, 1]
    vals = img.pixels[ys, xs]
    levels = (vals.astype(np.int32) * GLCM_LEVELS) // 256
    # In raster order, (y, x) and (y, x + 1) are consecutive coords when both are in the region.
    pair = (ys[1:] == ys[:-1]) & (xs[1:] == xs[:-1] + 1)
    i, j = levels[:-1][pair], levels[1:][pair]
    if not i.size:
        raise ValueError("GLCM undefined: no horizontally adjacent pixel pair in region")
    counts = np.bincount(i * GLCM_LEVELS + j, minlength=GLCM_LEVELS**2).reshape(GLCM_LEVELS, -1)
    counts = (counts + counts.T).astype(np.float64)  # symmetric: each pair both ways
    p = counts / counts.sum()
    level_gap = np.arange(GLCM_LEVELS).reshape(-1, 1) - np.arange(GLCM_LEVELS)  # i - j per cell
    contrast = float((level_gap**2 * p).sum())
    energy = float((p * p).sum())
    homogeneity = float((p / (1.0 + np.abs(level_gap))).sum())
    nz = p[p > 0]
    entropy = float(-(nz * np.log2(nz)).sum())
    return FeatureVector(
        area=float(region.area),
        mean_intensity=float(vals.astype(np.float64).mean()),
        glcm_contrast=contrast,
        glcm_energy=energy,
        glcm_homogeneity=homogeneity,
        glcm_entropy=max(0.0, entropy),  # +0.0, never -0.0, for a single-level region
    )


class QuantizationModel:
    """Per-feature (min, max) ranges learned from the training corpus."""

    __slots__ = ("ranges",)

    def __init__(self, ranges=None):
        self.ranges = {} if ranges is None else ranges  # feature name -> (min, max)

    def __eq__(self, other):
        return type(other) is QuantizationModel and self.ranges == other.ranges

    @classmethod
    def fit(cls, fvs) -> "QuantizationModel":
        fvs = list(fvs)
        ranges = {}
        for name in FEATURE_NAMES:
            vals = [fv.value(name) for fv in fvs]
            if vals:
                ranges[name] = (min(vals), max(vals))
        return cls(ranges=ranges)

    def to_dict(self):
        return {name: [lo, hi] for name, (lo, hi) in self.ranges.items()}

    @classmethod
    def from_dict(cls, d):
        """What fit writes: {}, or finite [min, max] with min <= max for each of FEATURE_NAMES."""
        try:
            ranges = {name: (float(lo), float(hi)) for name, (lo, hi) in d.items()}
            numeric = all(type(v) in (int, float) for bounds in d.values() for v in bounds)
        except (AttributeError, OverflowError, TypeError, ValueError):
            numeric = False
        if not numeric or (ranges and set(ranges) != set(FEATURE_NAMES)) or not all(
            -math.inf < lo <= hi < math.inf for lo, hi in ranges.values()
        ):
            raise ValueError(f"quantization must be {{}} or map each of {list(FEATURE_NAMES)} "
                             "to a finite [min, max]")
        return cls(ranges=ranges)


def _fine_bin(value: float, lo: float, hi: float) -> int:
    """Equal-width bin 1..4 over [lo, hi], clamped; the top bin is right-closed."""
    if hi <= lo:
        return 1
    if value >= hi:
        return 4
    if value <= lo:
        return 1
    return 1 + int(4 * (value - lo) / (hi - lo))


def encode_item(feature_index: int, fine: int) -> int:
    """3-digit code: feature digit, coarse half (1..2), fine position within it (1..2)."""
    coarse = 1 if fine <= 2 else 2
    return 100 * feature_index + 10 * coarse + (fine - 2 * (coarse - 1))


def decode_item(code: int):
    """Inverse of encode_item: (feature_index, coarse, fine 1..4)."""
    feature, coarse, pos = code // 100, (code // 10) % 10, code % 10
    if not (1 <= feature <= len(FEATURE_NAMES) and coarse in (1, 2) and pos in (1, 2)):
        raise ValueError(f"not a feature item code: {code}")
    return feature, coarse, pos + 2 * (coarse - 1)


def coarse_item(code: int) -> int:
    """Collapse a fine item to its coarse-level code; non-feature items pass through."""
    try:
        feature, coarse, _ = decode_item(code)
    except ValueError:
        return code
    return 100 * feature + 10 * coarse


def quantize(fv: FeatureVector, qm: QuantizationModel):
    """Map each feature value to its hierarchical item code."""
    items = set()
    for idx, name in enumerate(FEATURE_NAMES, start=1):
        if name not in qm.ranges:
            raise ValueError(f"quantization model missing range for {name!r}")
        lo, hi = qm.ranges[name]
        items.add(encode_item(idx, _fine_bin(fv.value(name), lo, hi)))
    return items


def image_to_transaction(
    fvs, qm: QuantizationModel, tid: str, label: Optional[str] = None
) -> Transaction:
    """One transaction per image: the union of its regions' quantized codes."""
    items = set()
    for fv in fvs:
        items |= quantize(fv, qm)
    return Transaction(tid=tid, items=tuple(sorted(items or {NO_OBJECT_ITEM})), label=label)


def csv_rows(data: bytes, header: str):
    """(line number, CSV fields) of each non-blank line of UTF-8 data, a leading byte-order
    mark dropped; line 1 is skipped when it is the header, and every other row must have
    the header's field count. A quoted field may hold commas."""
    width = header.count(",") + 1
    for lineno, line in enumerate(data.decode("utf-8-sig").splitlines(), start=1):
        if line.strip() and not (lineno == 1 and line.strip() == header):
            fields = next(csv.reader([line]))
            if len(fields) != width:
                raise ValueError(f"line {lineno}: expected {header!r}")
            yield lineno, fields


def csv_bytes(header: str, rows) -> bytes:
    """The header line, then one CSV line per row, as UTF-8; a field holding a comma is quoted."""
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


TDB_HEADER = "tid,label,items"


def write_tdb_csv(db: TransactionDB) -> bytes:
    rows = ((t.tid, t.label or "", ";".join(str(i) for i in t.items)) for t in db.transactions)
    return csv_bytes(TDB_HEADER, rows)


def _item(token: str) -> int:
    """One item as write_tdb_csv writes it: ASCII decimal digits. A leading minus still
    reads, so that Transaction rejects the item as not positive; int()'s other forms (a
    plus sign, an underscore, a space, non-ASCII digits) do not."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(token)
    return int(token)


def read_tdb_csv(data: bytes) -> TransactionDB:
    transactions = []
    seen = set()
    for lineno, (tid, label, items_str) in csv_rows(data, TDB_HEADER):
        if tid in seen:
            raise ValueError(f"line {lineno}: duplicate tid {tid!r}")
        seen.add(tid)
        try:
            items = tuple(_item(s) for s in items_str.split(";") if s)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric item in {items_str!r}") from None
        reserved = [i for i in items if i in ITEM_CLASSES]
        if reserved:
            raise ValueError(f"line {lineno}: item {reserved[0]} is a reserved class code")
        try:
            transactions.append(Transaction(tid=tid, items=items, label=label or None))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return TransactionDB(transactions=transactions)
