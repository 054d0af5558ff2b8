"""Grayscale raster type and binary PGM (P5) I/O."""

from __future__ import annotations

import numpy as np


class PgmError(ValueError):
    """Malformed PGM input; message names the offending byte offset."""


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

# (dy, dx) offsets of a pixel's 8-connected neighbours.
EIGHT_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


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
    """Parse a binary PGM (P5, maxval <= 255) into a GrayImage."""
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
    a = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayImage(a)


def write_pgm(img: GrayImage) -> bytes:
    """Serialize to canonical binary PGM: 'P5\\n<w> <h>\\n255\\n' + row-major bytes."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def threshold(img: GrayImage, t: int) -> BinaryImage:
    """Foreground where pixel >= t."""
    if not 0 <= t <= 255:
        raise ValueError("threshold must lie in [0, 255]")
    return BinaryImage(img.pixels >= t)
