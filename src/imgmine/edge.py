"""Canny edge detection built from scratch, plus the Manhattan chamfer transform."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .prep import EdgeMap, GrayImage, bounding_box, label_components, replicate_border


class GradientField(NamedTuple):
    gx: np.ndarray
    gy: np.ndarray
    mag: np.ndarray


FLAT_MAGNITUDE = 1e-9


@lru_cache(maxsize=64)
def gaussian_kernels(sigma: float):
    """(smoothing, derivative) 1D kernels of half-width ceil(3*sigma), read-only and cached.

    The smoothing kernel is the sampled Gaussian normalized to sum 1; the derivative
    kernel is the derivative-of-Gaussian samples scaled by the same normalizer.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    half = math.ceil(3 * sigma)
    t = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(t * t) / (2 * sigma * sigma))
    kernels = (g / g.sum(), (-t / (sigma * sigma)) * g / g.sum())
    for k in kernels:
        k.setflags(write=False)
    return kernels


def conv1d_replicate(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """'Same'-size 1D convolution along an axis with replicated borders."""
    win = sliding_window_view(replicate_border(a, len(kernel) // 2, axis), len(kernel), axis)
    return win @ kernel[::-1]  # convolution == correlation with reversed kernel


def gradients(img: GrayImage, sigma: float) -> GradientField:
    """Separable derivative-of-Gaussian gradients (x = column, y = row), euclidean magnitude."""
    g, d = gaussian_kernels(sigma)
    # Both row passes read one border gather and window view, built as conv1d_replicate
    # would. On a stack every array is large, so no more than four are alive at once.
    a = replicate_border(img.pixels, len(g) // 2, -1).astype(np.float64)
    win = sliding_window_view(a, len(g), -1)
    gx = conv1d_replicate(win @ d[::-1], g, axis=-2)
    gy = win @ g[::-1]
    del a, win
    gy = conv1d_replicate(gy, d, axis=-2)
    mag = np.square(gx)
    mag += np.square(gy)
    np.sqrt(mag, out=mag)
    # On a flat patch the derivative is zero only up to float rounding (~1e-13
    # for 8-bit input); snap that residue to an exact 0 so it is never an edge.
    mag[mag < FLAT_MAGNITUDE] = 0.0
    return GradientField(gx=gx, gy=gy, mag=mag)


# Direction bin (0, 45, 90, 135 degrees) -> the two neighbor offsets (dx, dy) along
# the gradient. The vertical/anti-diagonal pairs follow the gradient geometry for
# the 90-degree and 135-degree bins.
_NEIGHBORS = (
    ((-1, 0), (1, 0)),
    ((-1, -1), (1, 1)),
    ((0, -1), (0, 1)),
    ((-1, 1), (1, -1)),
)
_TAN_22_5, _TAN_67_5 = math.tan(math.radians(22.5)), math.tan(math.radians(67.5))


def _direction_bins(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Index into _NEIGHBORS per pixel: the count of slope bounds |gy| / |gx| passes,
    and 3 for a diagonal whose signs differ. One scratch array holds each bound."""
    ay, bound = np.abs(gy), np.abs(gx)
    bound *= _TAN_22_5
    bins = (ay > bound).view(np.int8)
    np.abs(gx, out=bound)
    bound *= _TAN_67_5
    bins += ay > bound
    bins[(bins == 1) & ((gx < 0) != (gy < 0))] = 3
    return bins


def non_max_suppress(field: GradientField) -> np.ndarray:
    """Zero every pixel whose along-gradient neighbor is strictly greater in magnitude."""
    mag = field.mag
    bins = _direction_bins(field.gx, field.gy)
    h, w = mag.shape[-2:]
    padded = np.zeros(mag.shape[:-2] + (h + 2, w + 2))  # off-image neighbors count as 0
    padded[..., 1:-1, 1:-1] = mag
    keep = np.ones(mag.shape, dtype=bool)
    for b, ((dx1, dy1), (dx2, dy2)) in enumerate(_NEIGHBORS):
        n1 = padded[..., 1 + dy1 : 1 + dy1 + h, 1 + dx1 : 1 + dx1 + w]
        n2 = padded[..., 1 + dy2 : 1 + dy2 + h, 1 + dx2 : 1 + dx2 + w]
        keep &= (bins != b) | ((n1 <= mag) & (n2 <= mag))
    return np.where(keep, mag, 0.0)


def hysteresis(nms: np.ndarray, low: float, high: float) -> EdgeMap:
    """Dual-threshold edge tracking: strong pixels seed 8-connected growth through weak ones.

    A pixel with zero magnitude is never an edge, so a flat image has none
    even under 0/0 thresholds. Of a stack, each plane may have its own pair:
    low and high then broadcast against it, with shape (planes, 1, 1).
    """
    if np.any(low > high):
        raise ValueError("need low <= high")
    weak = (nms >= low) & (nms > 0)
    if not (weak & (nms < high)).any():  # every weak pixel is strong, so seeds its component
        return EdgeMap(weak)
    box = bounding_box(weak)  # every 8-component of weak pixels lies inside it
    labels = label_components(weak[box], 8)
    seeded = np.zeros(labels.max() + 1, dtype=bool)
    seeded[labels[weak[box] & (nms[box] >= high)]] = True
    edges = np.zeros(nms.shape, dtype=bool)
    edges[box] = seeded[labels]
    return EdgeMap(edges)


def chamfer_manhattan(edges: EdgeMap) -> np.ndarray:
    """Per-pixel L1 distance to the nearest edge pixel.

    L1 distance is separable: forward and backward min passes along the rows,
    then along the columns, give it exactly, one numpy step per column or row.
    """
    if not edges.bits.any():
        raise ValueError("chamfer distance undefined: no edge pixels")
    h, w = edges.bits.shape
    d = np.where(edges.bits, 0, h + w + 1).astype(np.int64)
    for lines in (d.T, d):  # along x (d.T[i] is column i), then along y
        for i in range(1, len(lines)):
            np.minimum(lines[i], lines[i - 1] + 1, out=lines[i])
        for i in range(len(lines) - 2, -1, -1):
            np.minimum(lines[i], lines[i + 1] + 1, out=lines[i])
    return d
