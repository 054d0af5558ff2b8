import numpy as np
import pytest

from imgmine.prep import (
    BinaryImage,
    GrayImage,
    StructuringElement,
    align_peak,
    dilate,
    equalize,
    erode,
    histogram,
    median3x3,
    open_,
    square3,
)

from oracles import dilate_brute, erode_brute, median3x3_brute


def gi(a):
    return GrayImage(np.asarray(a, dtype=np.uint8))


def bi(a):
    return BinaryImage(np.asarray(a, dtype=bool))


def rand_mask(rng, shape=(12, 12)):
    return bi(rng.random(shape) < 0.5)


# ---------------------------------------------------------------- histograms


def test_histogram_constant():
    h = histogram(gi(np.full((3, 3), 7)))
    assert h[7] == 9 and h.sum() == 9


def test_histogram_counts():
    h = histogram(gi([[0, 0, 255]]))
    assert h[0] == 2 and h[255] == 1


def test_histogram_sums_to_pixel_count():
    rng = np.random.default_rng(0)
    for _ in range(5):
        img = gi(rng.integers(0, 256, size=(7, 9)))
        assert histogram(img).sum() == 63


# ---------------------------------------------------------------- align_peak


def test_align_peak_identity():
    img = gi([[3, 3, 9]])
    assert align_peak(img, histogram(img)) == img


def test_align_peak_shifts_to_average_peak():
    rng = np.random.default_rng(1)
    img = gi(np.clip(rng.normal(100, 5, size=(32, 32)), 0, 200))
    assert np.argmax(histogram(img)) != 120
    avg = np.zeros(256)
    avg[120] = 10
    shifted = align_peak(img, avg)
    assert np.argmax(histogram(shifted)) == 120


def test_align_peak_clamps():
    img = gi(np.full((4, 4), 200))
    avg = np.zeros(256)
    avg[255] = 1
    assert align_peak(img, avg) == gi(np.full((4, 4), 255))


# ------------------------------------------------------------------ equalize


def test_equalize_constant_maps_to_255():
    assert equalize(gi(np.full((2, 2), 42))) == gi(np.full((2, 2), 255))


def test_equalize_two_level():
    img = gi([[0, 0, 255, 255]])
    assert sorted(set(equalize(img).pixels.ravel().tolist())) == [128, 255]


def test_equalize_preserves_order():
    rng = np.random.default_rng(2)
    img = gi(rng.integers(0, 256, size=(16, 16)))
    out = equalize(img).pixels.astype(int)
    src = img.pixels.astype(int)
    flat_src, flat_out = src.ravel(), out.ravel()
    for _ in range(200):
        i, j = rng.integers(0, flat_src.size, size=2)
        if flat_src[i] < flat_src[j]:
            assert flat_out[i] <= flat_out[j]


# ------------------------------------------------------------------- median


def test_median_constant():
    assert median3x3(gi(np.full((5, 5), 7))) == gi(np.full((5, 5), 7))


def test_median_removes_impulse():
    img = gi([[0, 0, 0], [0, 255, 0], [0, 0, 0]])
    assert median3x3(img).pixels[1, 1] == 0


def test_median_center_of_1_to_9():
    img = gi([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert median3x3(img).pixels[1, 1] == 5


def test_median_values_come_from_neighborhood():
    rng = np.random.default_rng(3)
    img = gi(rng.integers(0, 256, size=(8, 8)))
    out = median3x3(img).pixels
    p = np.pad(img.pixels, 1, mode="edge")
    for y in range(8):
        for x in range(8):
            assert out[y, x] in p[y : y + 3, x : x + 3]


def test_median_matches_sorted_neighbourhood_oracle():
    rng = np.random.default_rng(4)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (2, 2), (3, 5)] + [(12, 12)] * 5
    images = [rng.integers(0, 256, size=shape) for shape in shapes + [(64, 64)] * 2]
    # Mostly ties: a comparison network must still pick the middle value.
    for values in ((0, 255), (0, 1, 2)):
        images += [rng.choice(values, size=shape) for shape in shapes + [(64, 64)] * 2]
    for img in images:
        assert np.array_equal(median3x3(gi(img)).pixels, median3x3_brute(img))


# --------------------------------------------------------------- morphology


def solid(n, m=None):
    m = m or n
    return bi(np.ones((n, m)))


def test_erode_square():
    a = bi(np.pad(np.ones((5, 5), dtype=bool), 2))
    out = erode(a, square3())
    assert out.bits.sum() == 9
    assert out.bits[3:6, 3:6].all()


def test_erode_single_pixel_vanishes():
    a = np.zeros((5, 5), dtype=bool)
    a[2, 2] = True
    assert not erode(bi(a), square3()).bits.any()


def test_erosion_anti_extensive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rand_mask(rng)
        assert not (erode(a, square3()).bits & ~a.bits).any()


def test_dilate_empty_stays_empty():
    assert not dilate(bi(np.zeros((4, 4))), square3()).bits.any()


def test_dilate_single_pixel_to_square():
    a = np.zeros((5, 5), dtype=bool)
    a[2, 2] = True
    out = dilate(bi(a), square3())
    assert out.bits.sum() == 9 and out.bits[1:4, 1:4].all()


def test_dilation_extensive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rand_mask(rng)
        assert not (a.bits & ~dilate(a, square3()).bits).any()


# Off-centre members catch a translate taken with the wrong sign.
@pytest.mark.parametrize(
    "bits",
    [
        np.ones((3, 3)),
        [[0, 1, 1]],
        [[1], [1], [0]],
        [[1, 0, 0, 1, 0], [0, 0, 1, 0, 1], [1, 1, 0, 0, 0]],
    ],
)
def test_morphology_matches_per_pixel_oracle(bits):
    se = StructuringElement(np.asarray(bits, dtype=bool))
    rng = np.random.default_rng(8)
    for shape in [(1, 1), (1, 7), (7, 1), (2, 2)] + [(9, 13)] * 12:
        mask = rng.random(shape) < rng.uniform(0.2, 0.9)
        assert np.array_equal(erode(bi(mask), se).bits, erode_brute(mask, se.bits))
        assert np.array_equal(dilate(bi(mask), se).bits, dilate_brute(mask, se.bits))


def test_open_square_fixed_point():
    a = bi(np.pad(np.ones((5, 5), dtype=bool), 1))
    assert open_(a, square3()) == a


def test_open_removes_isolated_pixel():
    a = np.zeros((7, 7), dtype=bool)
    a[3, 3] = True
    assert not open_(bi(a), square3()).bits.any()


def test_open_laws():
    rng = np.random.default_rng(6)
    se = square3()
    for _ in range(100):
        a = rand_mask(rng)
        opened = open_(a, se)
        # anti-extensive
        assert not (opened.bits & ~a.bits).any()
        # idempotent
        assert open_(opened, se) == opened
        # increasing
        bigger = bi(a.bits | rand_mask(rng).bits)
        assert not (opened.bits & ~open_(bigger, se).bits).any()


def test_structuring_element_validation():
    with pytest.raises(ValueError):
        StructuringElement(np.ones((2, 3), dtype=bool))
    hollow = np.ones((3, 3), dtype=bool)
    hollow[1, 1] = False
    with pytest.raises(ValueError):
        StructuringElement(hollow)
