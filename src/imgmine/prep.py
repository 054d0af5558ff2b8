"""Preprocessing: equalization, median filter, binary morphology."""

from __future__ import annotations

import numpy as np

from .raster import BinaryImage, GrayImage, replicate_border, threshold


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


# Paeth's median-of-9 network (Graphics Gems, 1990), in Devillard's opt_med9 order: each
# pair (i, j) leaves the smaller value in i and the larger in j; value 4 ends as the median.
_MEDIAN9 = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8), (0, 3),
    (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2),
)


def median3x3(img: GrayImage) -> GrayImage:
    """3x3 median filter with edge replication at the borders."""
    h, w = img.pixels.shape
    p = replicate_border(replicate_border(img.pixels, 1, 0), 1, 1)
    v = [p[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)]
    for i, j in _MEDIAN9:
        v[i], v[j] = np.minimum(v[i], v[j]), np.maximum(v[i], v[j])
    return GrayImage(v[4])


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


def otsu_threshold(img: GrayImage) -> int:
    """Otsu's threshold maximizing between-class variance (smallest argmax on ties)."""
    counts = histogram(img).astype(np.float64)
    total = counts.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(counts)
    m0 = np.cumsum(counts * levels)
    mean_all = m0[-1] / total
    w1 = total - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (m0[-1] - m0) / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
    var[np.isnan(var)] = -1.0
    # threshold t separates [0, t-1] from [t, 255]
    return int(np.argmax(var[:-1])) + 1


def opening_mask(img: GrayImage, se: StructuringElement | None = None) -> BinaryImage:
    """Otsu-threshold the image and open the mask; removes small foreground objects."""
    if se is None:
        se = square3()
    return open_(threshold(img, otsu_threshold(img)), se)
