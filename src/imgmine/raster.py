"""Binary PGM (P5) I/O."""

from __future__ import annotations


class PgmError(ValueError):
    """Malformed PGM input; message names the offending byte offset."""


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
    from .prep import GrayImage
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"bad magic {magic!r} at byte 0 (expected P5)")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():  # ASCII digits only: int() would also take b"+2" and b"1_0"
            raise PgmError(f"non-numeric {name} {tok!r} at byte {pos - len(tok)}")
        fields.append(int(tok))
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
