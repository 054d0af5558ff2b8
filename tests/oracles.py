"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's FP-tree / separable-filter
code paths: supports come from exhaustive subset enumeration, convolutions
from direct O(n^2 k^2) summation, medians from sorting each neighbourhood,
erosion and dilation from testing each member at each pixel, non-maximum
suppression from a per-pixel if/else over the direction bins,
distances from all-pairs minimization,
connected components from a pixel-by-pixel flood fill.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


def support_count(transactions, itemset):
    s = set(itemset)
    return sum(1 for t in transactions if s <= set(t))


def frequent_family(transactions, minsup_count):
    """All frequent itemsets with supports, by exhaustive enumeration."""
    items = sorted({i for t in transactions for i in t})
    singles = [i for i in items if support_count(transactions, [i]) >= minsup_count]
    fam = {}
    for r in range(1, len(singles) + 1):
        found = False
        for combo in combinations(singles, r):
            sup = support_count(transactions, combo)
            if sup >= minsup_count:
                fam[frozenset(combo)] = sup
                found = True
        if not found:
            break  # downward closure: no larger frequent set exists
    return fam


def maximal_sets(family):
    sets = list(family)
    return {s for s in sets if not any(s < t for t in sets)}


def brute_rules(transactions_with_class, class_items, minsup, minconf):
    """All X -> c rules by direct counting over every candidate antecedent."""
    n = len(transactions_with_class)
    feature_items = sorted(
        {i for t in transactions_with_class for i in t} - set(class_items)
    )
    rules = set()
    for r in range(1, len(feature_items) + 1):
        for combo in combinations(feature_items, r):
            base = support_count(transactions_with_class, combo)
            if base == 0:
                continue
            for c in class_items:
                joint = support_count(transactions_with_class, combo + (c,))
                if joint == 0:
                    continue
                if Fraction(joint, n) >= minsup and Fraction(joint, base) >= minconf:
                    rules.add((frozenset(combo), c, joint))
    return rules


def conv2d_clamped(a, kernel):
    """Direct 2D convolution with replicate (clamped-index) borders."""
    h, w = a.shape
    kh, kw = kernel.shape
    hy, hx = kh // 2, kw // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    yy = min(max(y - (i - hy), 0), h - 1)
                    xx = min(max(x - (j - hx), 0), w - 1)
                    acc += kernel[i, j] * a[yy, xx]
            out[y, x] = acc
    return out


def median3x3_brute(pixels):
    """Middle of the sorted 3x3 neighbourhood, borders replicated by clamping indices."""
    h, w = pixels.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            window = sorted(
                int(pixels[min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)])
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
            )
            out[y, x] = window[4]
    return out


def _members(se):
    cy, cx = se.shape[0] // 2, se.shape[1] // 2
    return [(i - cy, j - cx) for i in range(se.shape[0]) for j in range(se.shape[1]) if se[i, j]]


def erode_brute(mask, se):
    """p survives iff every member b of se lands on foreground at p + b; off-image is background."""
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            out[y, x] = all(
                0 <= y + dy < h and 0 <= x + dx < w and mask[y + dy, x + dx]
                for dy, dx in _members(se)
            )
    return out


def dilate_brute(mask, se):
    """p is set iff some member b of se has foreground at p - b; off-image is background."""
    h, w = mask.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            out[y, x] = any(
                0 <= y - dy < h and 0 <= x - dx < w and mask[y - dy, x - dx]
                for dy, dx in _members(se)
            )
    return out


def nms_brute(mag, theta):
    """Per pixel: bin theta by if/else, zero it if either along-gradient neighbour is larger."""
    h, w = mag.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            t = theta[y, x]
            if t <= 22.5 or t > 157.5:
                dy, dx = 0, 1
            elif t <= 67.5:
                dy, dx = 1, 1
            elif t <= 112.5:
                dy, dx = 1, 0
            else:
                dy, dx = -1, 1
            around = [mag[y + s * dy, x + s * dx] if 0 <= y + s * dy < h and 0 <= x + s * dx < w
                      else 0.0 for s in (-1, 1)]
            out[y, x] = mag[y, x] if max(around) <= mag[y, x] else 0.0
    return out


def chamfer_brute(mask):
    """All-pairs Manhattan distance to the nearest True cell."""
    ys, xs = np.nonzero(mask)
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            out[y, x] = int(np.min(np.abs(ys - y) + np.abs(xs - x)))
    return out


def flood_fill_labels(mask, connectivity):
    """Component labels by stack flood fill, seeded from each unlabelled pixel in raster order."""
    if connectivity == 4:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.int64)
    n = 0
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or out[y, x]:
                continue
            n += 1
            out[y, x] = n
            stack = [(y, x)]
            while stack:
                cy, cx = stack.pop()
                for dy, dx in steps:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not out[ny, nx]:
                        out[ny, nx] = n
                        stack.append((ny, nx))
    return out


def border_masks():
    """(name, mask) cases whose set pixels meet the image edge, where a bounding-box crop is
    clipped; with the degenerate shapes and the all-set and empty masks."""
    h, w = 9, 12
    cases = []
    lines = {
        "top row": (0, slice(3, 8)),
        "bottom row": (h - 1, slice(3, 8)),
        "left column": (slice(2, 7), 0),
        "right column": (slice(2, 7), w - 1),
        "one in from the top": (1, slice(3, 8)),
        "corner block": (slice(0, 3), slice(0, 3)),
    }
    for name, at in lines.items():
        m = np.zeros((h, w), dtype=bool)
        m[at] = True
        cases.append((name, m))
    for y in (0, h - 1):
        for x in (0, w - 1):
            m = np.zeros((h, w), dtype=bool)
            m[y, x] = True
            cases.append((f"corner {y},{x}", m))
    corners = np.zeros((h, w), dtype=bool)
    corners[::h - 1, ::w - 1] = True
    cases.append(("all four corners", corners))
    frame = np.ones((h, w), dtype=bool)
    frame[1:-1, 1:-1] = False
    cases.append(("frame enclosing a hole", frame))
    y, x = np.mgrid[0:h, 0:w]
    arc = np.abs(np.hypot(y, x - w / 2) - 4) < 0.7  # a ring cut by the top row: its hole is open
    cases.append(("ring whose hole touches the border", arc))
    row = np.array([[0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool)
    cases += [("1xN", row), ("Nx1", row.T.copy()), ("1x1 set", np.ones((1, 1), dtype=bool))]
    cases += [("all set", np.ones((h, w), dtype=bool)), ("empty", np.zeros((h, w), dtype=bool))]
    return cases


def glcm_counts_brute(pixels, coords, levels=8):
    """Symmetric horizontal co-occurrence counts, by set lookup of each pixel's right neighbour."""
    member = {(int(y), int(x)) for y, x in coords}
    counts = np.zeros((levels, levels), dtype=np.int64)
    for y, x in member:
        if (y, x + 1) in member:
            i = int(pixels[y, x]) * levels // 256
            j = int(pixels[y, x + 1]) * levels // 256
            counts[i, j] += 1
            counts[j, i] += 1
    return counts


def random_db(rng, max_items=12, max_transactions=30, labeled=False):
    """Seeded random transaction database for oracle-equivalence sweeps."""
    from imgmine.segment import CLASSES, Transaction, TransactionDB

    n_items = int(rng.integers(4, max_items + 1))
    universe = list(range(101, 101 + n_items))
    n_trans = int(rng.integers(4, max_transactions + 1))
    rows = []
    for tid in range(n_trans):
        size = int(rng.integers(1, min(8, n_items) + 1))
        items = tuple(sorted(rng.choice(universe, size=size, replace=False).tolist()))
        label = CLASSES[int(rng.integers(0, 3))] if labeled else None
        rows.append(Transaction(tid=f"{tid:03d}", items=items, label=label))
    return TransactionDB(transactions=rows)
