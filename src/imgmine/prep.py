"""Pixel arrays and kernels: equalization, median filter, morphology, labelling, hole fill."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class GrayImage:
    """8-bit grayscale image, row-major, origin top-left (x = column, y = row)."""

    def __init__(self, pixels):
        a = np.asarray(pixels)
        if a.ndim != 2:
            raise ValueError("pixels must be a 2D array")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("image dimensions must be >= 1")
        if a.dtype != np.uint8:
            if np.any((a < 0) | (a > 255)):
                raise ValueError("intensities must lie in [0, 255]")
            a = a.astype(np.uint8)
        self.pixels = a
        self.pixels.setflags(write=False)

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]

    def __eq__(self, other):
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


class BinaryImage:
    """Boolean foreground mask with the same geometry conventions as GrayImage."""

    def __init__(self, bits):
        a = np.asarray(bits, dtype=bool)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("mask must be 2D with dimensions >= 1")
        self.bits = a
        self.bits.setflags(write=False)

    @property
    def width(self):
        return self.bits.shape[1]

    @property
    def height(self):
        return self.bits.shape[0]

    def __eq__(self, other):
        return isinstance(other, BinaryImage) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"BinaryImage({self.width}x{self.height})"


# Final Canny output is just a binary mask.
EdgeMap = BinaryImage


@lru_cache(maxsize=256)
def border_index(n: int, half: int) -> np.ndarray:
    """Read-only indices -half..n+half-1 clipped to 0..n-1: the gather of edge replication."""
    index = np.clip(np.arange(-half, n + half), 0, n - 1)
    index.setflags(write=False)
    return index


def replicate_border(a: np.ndarray, half: int, axis: int) -> np.ndarray:
    """a widened by `half` copies of its first and last slice along axis (edge replication)."""
    return a.take(border_index(a.shape[axis], half), axis=axis)


def bounding_box(bits: np.ndarray, margin: int = 0):
    """Slices of the smallest box holding every True cell, widened by margin; None if none is."""
    rows, cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(bits.any(axis=0))
    if not rows.size:
        return None
    return tuple(slice(max(i[0] - margin, 0), i[-1] + 1 + margin) for i in (rows, cols))


def label_components(bits, connectivity: int) -> np.ndarray:
    """Label the 4- or 8-connected components of a boolean mask (int32, 0 = background).

    Components are numbered 1.. in raster order of their first pixel. Two-pass
    run labelling: find the row runs, join the runs of adjacent rows that touch
    with union-find, then paint each run with its component's number.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    bits = np.asarray(bits, dtype=bool)
    h, w = bits.shape
    framed = np.zeros((h, w + 2), dtype=np.int8)
    framed[:, 1:-1] = bits
    step = np.diff(framed, axis=1)
    row, start = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]  # exclusive
    # Run b touches the runs of the row above whose columns overlap its own,
    # widened by one column on each side under 8-connectivity. Those runs are
    # contiguous in raster order; keys row * (w + 2) + column keep rows apart.
    k, span = int(connectivity == 8), w + 2
    first = np.searchsorted(row * span + end, (row - 1) * span + start - k, side="right")
    count = np.maximum(np.searchsorted(row * span + start, (row - 1) * span + end + k) - first, 0)
    b = np.repeat(np.arange(len(row)), count)
    a = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(b))
    # Union-find with every root the smallest run of its tree, which is the
    # component's first run in raster order.
    parent = np.arange(len(row))
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while (parent[parent] != parent).any():
            parent = parent[parent]
    number = np.cumsum(parent == np.arange(len(row)), dtype=np.int32)[parent]
    labels = np.zeros(h * w, dtype=np.int32)
    labels[bits.ravel()] = np.repeat(number, end - start)
    return labels.reshape(h, w)


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background pockets not reachable from the border (4-connected background)."""
    pockets = label_components(~mask, 4)
    reached = np.zeros(pockets.max() + 1, dtype=bool)
    reached[np.concatenate([pockets[0], pockets[-1], pockets[:, 0], pockets[:, -1]])] = True
    return mask | ~reached[pockets]


def histogram(img: GrayImage) -> np.ndarray:
    """256-bin intensity histogram; bins[v] = count of pixels with intensity v."""
    return np.bincount(img.pixels.ravel(), minlength=256).astype(np.int64)


# Nothing in the package calls this; perfbench/trace.py spans it by name (SPANNED),
# so `perfbench/run.py --trace 1` needs it.
def align_peak(img: GrayImage, avg) -> GrayImage:
    """Shift all intensities so the image's histogram peak lands on the average's peak."""
    avg = np.asarray(avg)
    if avg.sum() <= 0:
        raise ValueError("average histogram is empty")
    delta = int(np.argmax(avg)) - int(np.argmax(histogram(img)))  # smallest peak intensity
    if delta == 0:
        return img
    shifted = np.clip(img.pixels.astype(np.int32) + delta, 0, 255)
    return GrayImage(shifted.astype(np.uint8))


def equalize(img: GrayImage) -> GrayImage:
    """Histogram equalization: v -> round(255 * CDF(v)), round half up."""
    counts = histogram(img)
    cdf = np.cumsum(counts) / counts.sum()
    lut = np.floor(255.0 * cdf + 0.5).astype(np.uint8)
    return GrayImage(lut[img.pixels])


def _median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def median3x3(img: GrayImage) -> GrayImage:
    """3x3 median filter with edge replication at the borders.

    Each vertical triple is sorted once, for the three windows that share it. The
    median of nine is then the median of the largest column minimum, the median
    of the column medians and the smallest column maximum.
    """
    h, w = img.pixels.shape
    p = replicate_border(replicate_border(img.pixels, 1, 0), 1, 1)
    top, mid, bottom = p[:h], p[1 : h + 1], p[2:]
    lo, hi = np.minimum(top, mid), np.maximum(top, mid)
    triples = np.minimum(lo, bottom), np.maximum(lo, np.minimum(hi, bottom)), np.maximum(hi, bottom)
    (a0, a1, a2), medians, (c0, c1, c2) = ([t[:, i : i + w] for i in range(3)] for t in triples)
    low = np.maximum(np.maximum(a0, a1), a2)
    high = np.minimum(np.minimum(c0, c1), c2)
    return GrayImage(_median3(low, _median3(*medians), high))


class StructuringElement:
    """Odd-sized binary probe with its origin at the center cell."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        a = np.asarray(bits, dtype=bool)
        if a.ndim != 2 or a.shape[0] % 2 == 0 or a.shape[1] % 2 == 0:
            raise ValueError("structuring element must be 2D with odd dimensions")
        if not a[a.shape[0] // 2, a.shape[1] // 2]:
            raise ValueError("structuring element origin must be a member")
        self.bits = a

    def __eq__(self, other):
        return type(other) is StructuringElement and np.array_equal(self.bits, other.bits)


def square3() -> StructuringElement:
    return StructuringElement(np.ones((3, 3), dtype=bool))


def _translates(a: BinaryImage, bits: np.ndarray):
    """One view per member (i, j) of bits: p reads the mask at p + (i, j) - origin, 0 off-image."""
    h, w = a.bits.shape
    ry, rx = bits.shape[0] // 2, bits.shape[1] // 2
    p = np.zeros((h + 2 * ry, w + 2 * rx), dtype=bool)
    p[ry : ry + h, rx : rx + w] = a.bits
    return [p[i : i + h, j : j + w] for i, j in zip(*np.nonzero(bits))]


def erode(a: BinaryImage, b: StructuringElement) -> BinaryImage:
    """Keep p iff every member of b translated to p lands on foreground."""
    return BinaryImage(np.logical_and.reduce(_translates(a, b.bits)))


def dilate(a: BinaryImage, b: StructuringElement) -> BinaryImage:
    """Keep p iff some reflected member of b translated to p hits foreground."""
    return BinaryImage(np.logical_or.reduce(_translates(a, b.bits[::-1, ::-1])))


def open_(a: BinaryImage, b: StructuringElement) -> BinaryImage:
    """Morphological opening: erosion followed by dilation."""
    return dilate(erode(a, b), b)
