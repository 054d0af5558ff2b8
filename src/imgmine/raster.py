"""Grayscale raster type and binary PGM (P5) I/O."""

from __future__ import annotations

from functools import lru_cache

# numpy is imported inside each function that uses it: mine, train --tdb,
# classify --tdb and evaluate import this module through segment and cli, and
# must not pay numpy's import.


class PgmError(ValueError):
    """Malformed PGM input; message names the offending byte offset."""


class GrayImage:
    """8-bit grayscale image, row-major, origin top-left (x = column, y = row)."""

    def __init__(self, pixels):
        import numpy as np
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
        import numpy as np
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


class BinaryImage:
    """Boolean foreground mask with the same geometry conventions as GrayImage."""

    def __init__(self, bits):
        import numpy as np
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
        import numpy as np
        return isinstance(other, BinaryImage) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"BinaryImage({self.width}x{self.height})"


# Final Canny output is just a binary mask.
EdgeMap = BinaryImage


def _next_token(data: bytes, pos: int):
    """Skip whitespace and '#' comments, return (token, end_pos)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and data[pos] not in b" \t\r\n":
        pos += 1
    return data[start:pos], pos


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (P5, maxval <= 255) into a GrayImage, values rescaled to 0..255
    (v * 255 / maxval, rounded half up)."""
    import numpy as np
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"bad magic {magic!r} at byte 0 (expected P5)")
    fields = []
    for name in ("width", "height", "maxval"):
        at = pos
        tok, pos = _next_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PgmError(f"non-numeric {name} {tok!r} at byte {at}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height} in header ending at byte {pos}")
    if not 0 < maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval} at byte {pos}")
    pos += 1  # single whitespace byte before the payload
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PgmError(f"truncated pixel data at byte {pos + len(payload)}")
    a = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and (a > maxval).any():
        at = int(np.argmax(a > maxval))
        raise PgmError(f"pixel {a[at]} above maxval {maxval} at byte {pos + at}")
    a = a if maxval == 255 else (a.astype(np.int32) * 255 + maxval // 2) // maxval
    return GrayImage(a.reshape(height, width))


def write_pgm(img: GrayImage) -> bytes:
    """Serialize to canonical binary PGM: 'P5\\n<w> <h>\\n255\\n' + row-major bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


@lru_cache(maxsize=256)
def border_index(n: int, half: int) -> np.ndarray:
    """Read-only indices -half..n+half-1 clipped to 0..n-1: the gather of edge replication."""
    import numpy as np
    index = np.clip(np.arange(-half, n + half), 0, n - 1)
    index.setflags(write=False)
    return index


def replicate_border(a: np.ndarray, half: int, axis: int) -> np.ndarray:
    """a widened by `half` copies of its first and last slice along axis (edge replication)."""
    return a.take(border_index(a.shape[axis], half), axis=axis)


def bounding_box(bits: np.ndarray, margin: int = 0):
    """Slices of the smallest box holding every True cell, widened by margin; None if none is."""
    import numpy as np
    rows, cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(bits.any(axis=0))
    if not rows.size:
        return None
    return tuple(slice(max(i[0] - margin, 0), i[-1] + 1 + margin) for i in (rows, cols))


def threshold(img: GrayImage, t: int) -> BinaryImage:
    """Foreground where pixel >= t."""
    if not 0 <= t <= 255:
        raise ValueError("threshold must lie in [0, 255]")
    return BinaryImage(img.pixels >= t)


def label_components(bits, connectivity: int) -> np.ndarray:
    """Label the 4- or 8-connected components of a boolean mask (int32, 0 = background).

    Components are numbered 1.. in raster order of their first pixel. Two-pass
    run labelling: find the row runs, join the runs of adjacent rows that touch
    with union-find, then paint each run with its component's number.
    """
    import numpy as np
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
