import numpy as np
import pytest

from imgmine.prep import BinaryImage, GrayImage, label_components
from imgmine.raster import PgmError, read_pgm, write_pgm

from oracles import flood_fill_labels


def test_read_pgm_minimal():
    img = read_pgm(b"P5\n2 1\n255\n" + bytes([10, 20]))
    assert (img.width, img.height) == (2, 1)
    assert img.pixels.tolist() == [[10, 20]]


def test_write_pgm_single_pixel():
    assert write_pgm(GrayImage([[0]])) == b"P5\n1 1\n255\n\x00"


def test_write_pgm_payload_length():
    data = write_pgm(GrayImage(np.zeros((2, 3), dtype=np.uint8)))
    assert data == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_round_trip_images():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h, w = rng.integers(1, 20, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        assert read_pgm(write_pgm(img)) == img


def test_round_trip_bytes():
    b = b"P5\n3 2\n255\n" + bytes(range(6))
    assert write_pgm(read_pgm(b)) == b


def test_zero_dimension_rejected():
    with pytest.raises(PgmError):
        read_pgm(b"P5\n0 0\n255\n")


def test_bad_magic_rejected():
    with pytest.raises(PgmError, match="magic"):
        read_pgm(b"P4\n1 1\n255\n\x00")


def test_truncated_payload_names_offset():
    with pytest.raises(PgmError, match="byte"):
        read_pgm(b"P5\n2 2\n255\n\x00")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n+2 2\n255\n" + bytes(4), r"non-numeric width b'\+2' at byte 3"),
        (b"P5\n2 1_0\n255\n" + bytes(20), r"non-numeric height b'1_0' at byte 5"),
        (b"P5\n2 2\n2_55\n" + bytes(4), r"non-numeric maxval b'2_55' at byte 7"),
    ],
    ids=["signed-width", "underscored-height", "underscored-maxval"],
)
def test_header_numbers_are_ascii_decimal_digits_only(data, message):
    with pytest.raises(PgmError, match=message):
        read_pgm(data)


def test_maxval_over_255_rejected():
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_pixel_above_maxval_names_offset():
    # 10 header bytes; the first pixel above maxval 15 is payload byte 2.
    with pytest.raises(PgmError, match=r"200 above maxval 15 at byte 12"):
        read_pgm(b"P5 2 2 15\n" + bytes([15, 0, 200, 16]))
    assert read_pgm(b"P5 2 2 15\n" + bytes([15, 0, 7, 3])).pixels.max() == 255


def test_maxval_below_255_rescales_half_up():
    assert read_pgm(b"P5 4 1 15\n" + bytes([15, 0, 7, 3])).pixels.tolist() == [[255, 0, 119, 51]]
    # 127.5 rounds up to 128 at maxval 2 and at maxval 254.
    assert read_pgm(b"P5 3 1 2\n" + bytes([0, 1, 2])).pixels.tolist() == [[0, 128, 255]]
    assert read_pgm(b"P5 3 1 254\n" + bytes([0, 127, 254])).pixels.tolist() == [[0, 128, 255]]
    assert read_pgm(b"P5 2 1 1\n" + bytes([0, 1])).pixels.tolist() == [[0, 255]]


def test_header_comments_and_whitespace():
    img = read_pgm(b"P5 # comment\n2 1 255\n" + bytes([1, 2]))
    assert img.pixels.tolist() == [[1, 2]]


def test_invariants_enforced():
    with pytest.raises(ValueError):
        GrayImage([[300]])
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        BinaryImage(np.zeros((3,)))


# ---------------------------------------------------------------- labelling


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_components_matches_flood_fill(connectivity):
    rng = np.random.default_rng(31)
    for _ in range(200):
        h, w = (int(v) for v in rng.integers(1, 20, size=2))
        mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        labels = label_components(mask, connectivity)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, flood_fill_labels(mask, connectivity))


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 7)])
def test_label_components_degenerate_masks(connectivity, shape):
    rng = np.random.default_rng(32)
    empty, full = np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)
    assert not label_components(empty, connectivity).any()
    assert (label_components(full, connectivity) == 1).all()
    for _ in range(5):
        mask = rng.random(shape) < 0.5
        assert np.array_equal(
            label_components(mask, connectivity), flood_fill_labels(mask, connectivity)
        )


@pytest.mark.parametrize("connectivity", [4, 8])
def test_label_components_matches_scipy(connectivity):
    ndimage = pytest.importorskip("scipy.ndimage")
    structure = np.ones((3, 3), dtype=bool) if connectivity == 8 else None
    rng = np.random.default_rng(33)
    for _ in range(20):
        mask = rng.random((48, 40)) < rng.uniform(0.2, 0.8)
        expected, _ = ndimage.label(mask, structure=structure)
        assert np.array_equal(label_components(mask, connectivity), expected)


def test_label_components_connectivity():
    diagonal = np.eye(3, dtype=bool)
    assert (label_components(diagonal, 8) == diagonal).all()
    assert label_components(diagonal, 4).tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    with pytest.raises(ValueError, match="connectivity"):
        label_components(diagonal, 6)
