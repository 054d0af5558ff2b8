import math

import numpy as np
import pytest

from imgmine.config import ConfigError, PipelineConfig
from imgmine.edge import (
    GradientField,
    chamfer_manhattan,
    gaussian_kernels,
    gradients,
    hysteresis,
    non_max_suppress,
)
from imgmine.pipeline import (
    RELATIVE_HIGH_FRAC,
    RELATIVE_LOW_FRAC,
    detect_edges,
    image_feature_vectors,
    image_transaction,
)
from imgmine.prep import BinaryImage, GrayImage, border_index
from imgmine.segment import NO_OBJECT_ITEM, QuantizationModel

from oracles import border_masks, chamfer_brute, conv2d_clamped, flood_fill_labels, nms_brute


def gi(a):
    return GrayImage(np.asarray(a, dtype=np.uint8))


def ramp_step(h=20, w=20, left=0, right=255):
    """Vertical step with a single intermediate column, so the gradient peak is unique."""
    a = np.full((h, w), left)
    mid = w // 2
    a[:, mid] = (left + right) // 2
    a[:, mid + 1 :] = right
    return gi(a)


# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize("sigma", [0.6, 1.0, 1.4, 2.5])
def test_gaussian_kernel_normalized_and_symmetric(sigma):
    k = gaussian_kernels(sigma)[0]
    assert abs(k.sum() - 1.0) < 1e-12
    assert np.allclose(k, k[::-1])


def test_gaussian_kernel_length():
    assert [len(k) for k in gaussian_kernels(1.0)] == [7, 7]


def test_kernel_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernels(0)
    with pytest.raises(ValueError):
        gaussian_kernels(-1)


# ---------------------------------------------------------------- gradients


def test_gradients_constant_image():
    f = gradients(gi(np.full((9, 9), 88)), 1.4)
    assert np.abs(f.gx).max() < 1e-9
    assert np.abs(f.gy).max() < 1e-9
    assert np.abs(f.mag).max() < 1e-9


def test_gradients_vertical_step():
    h, w = 16, 16
    a = np.zeros((h, w))
    a[:, w // 2 :] = 255
    f = gradients(gi(a), 1.0)
    interior = f.gx[4:-4]
    assert np.argmax(np.abs(interior[0])) in (w // 2 - 1, w // 2)
    assert np.abs(f.gy[4:-4, 4:-4]).max() < 1e-9


def test_separable_equals_full_2d():
    rng = np.random.default_rng(11)
    g, d = gaussian_kernels(1.0)
    kx = np.outer(g, d)  # y-smoothing rows, x-derivative columns
    ky = np.outer(d, g)
    for _ in range(3):
        img = gi(rng.integers(0, 256, size=(16, 16)))
        f = gradients(img, 1.0)
        a = img.pixels.astype(float)
        assert np.abs(f.gx - conv2d_clamped(a, kx)).max() < 1e-6
        assert np.abs(f.gy - conv2d_clamped(a, ky)).max() < 1e-6


def test_exact_magnitude_consistent():
    rng = np.random.default_rng(13)
    f = gradients(gi(rng.integers(0, 256, size=(10, 10))), 1.0)
    assert np.abs(f.mag - np.hypot(f.gx, f.gy)).max() < 1e-9


# ---------------------------------------------------------------------- nms


def test_nms_plateau_retained():
    field = gradients(gi(np.full((8, 8), 10)), 1.0)
    plateau = type(field)(gx=np.ones((8, 8)), gy=np.zeros((8, 8)), mag=np.full((8, 8), 5.0))
    assert (non_max_suppress(plateau) == 5.0).all()


def test_nms_keeps_ridge():
    mag = np.zeros((5, 5))
    mag[:, 2] = 10.0
    field_cls = type(gradients(gi(np.zeros((5, 5))), 1.0))
    f = field_cls(gx=np.ones((5, 5)), gy=np.zeros((5, 5)), mag=mag)
    out = non_max_suppress(f)
    assert (out[:, 2] == 10.0).all() and out.sum() == 50.0


# Direction bin -> the (dx, dy) offset of one of its two along-gradient neighbours.
BIN_NEIGHBOR = {0: (1, 0), 45: (1, 1), 90: (0, 1), 135: (1, -1)}
TAN_22_5, TAN_67_5 = math.tan(math.radians(22.5)), math.tan(math.radians(67.5))


def nms_bin(gx, gy):
    """The bin NMS gives a pixel of gradient (gx, gy): the neighbour pair that can zero it."""
    suppressed_by = []
    for b, (dx, dy) in BIN_NEIGHBOR.items():
        mag = np.zeros((3, 3))
        mag[1, 1], mag[1 + dy, 1 + dx] = 5.0, 9.0
        f = GradientField(gx=np.full((3, 3), gx), gy=np.full((3, 3), gy), mag=mag)
        if non_max_suppress(f)[1, 1] == 0.0:
            suppressed_by.append(b)
    assert len(suppressed_by) == 1, suppressed_by
    return suppressed_by[0]


def unit(theta):
    r = math.radians(theta)
    return math.cos(r), math.sin(r)


# Off a bound the gradient is the unit vector at theta; on one, |gy| is exactly
# the bound times |gx|. A tie with tan 22.5 bins 0 and a tie with tan 67.5 bins
# diagonal, whatever the signs: at 112.5 and 157.5 degrees too.
@pytest.mark.parametrize(
    "gx, gy, expected_bin",
    [pytest.param(*unit(t), b, id=f"{t}-{b}") for t, b in (
        (0.0, 0), (22.6, 45), (45.0, 45), (67.6, 90), (90.0, 90), (112.6, 135), (135.0, 135),
        (157.6, 0), (179.9, 0))]
    + [pytest.param(1.0, TAN_22_5, 0, id="22.5-0"), pytest.param(1.0, TAN_67_5, 45, id="67.5-45"),
       pytest.param(-1.0, TAN_67_5, 135, id="112.5-135"),
       pytest.param(-1.0, TAN_22_5, 0, id="157.5-0")],
)
def test_nms_direction_bin_boundaries(gx, gy, expected_bin):
    """The centre is suppressed only by a stronger neighbour in its gradient's bin.

    The opposite gradient (-gx, -gy) lies on the same line and bins the same.
    """
    assert nms_bin(gx, gy) == expected_bin
    assert nms_bin(-gx, -gy) == expected_bin


@pytest.mark.parametrize("bound", ["22.5", "67.5"])
@pytest.mark.parametrize("sx, sy", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
def test_nms_direction_bin_flips_at_the_bound(bound, sx, sy):
    """One ulp either side of tan 22.5 and tan 67.5 (|gx| = 1) lands in the bins either side."""
    t = {"22.5": TAN_22_5, "67.5": TAN_67_5}[bound]
    diagonal = 45 if sx == sy else 135
    below, above = {"22.5": (0, diagonal), "67.5": (diagonal, 90)}[bound]
    assert nms_bin(sx, sy * math.nextafter(t, -math.inf)) == below
    assert nms_bin(sx, sy * t) == below
    assert nms_bin(sx, sy * math.nextafter(t, math.inf)) == above


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("other", [1.0, -1.0])
def test_nms_direction_bin_of_a_signed_zero_component(zero, other):
    assert nms_bin(other, zero) == 0
    assert nms_bin(zero, other) == 90
    assert nms_bin(zero, zero) == 0


def folded_theta(gx, gy):
    """Per pixel, the gradient angle folded into [0, 180) as math.atan2 gives it."""
    theta = np.vectorize(lambda x, y: math.degrees(math.atan2(y, x)) % 180.0)(gx, gy)
    theta[theta == 180.0] = 0.0
    return theta


def test_nms_matches_per_pixel_oracle():
    rng = np.random.default_rng(19)
    for _ in range(30):
        shape = tuple(int(v) for v in rng.integers(1, 14, size=2))
        mag = rng.integers(0, 4, size=shape).astype(float)  # ties between neighbours are common
        # Integer components: no ratio comes near tan 22.5 or tan 67.5.
        gx, gy = rng.integers(-6, 7, size=(2, *shape)).astype(float)
        f = GradientField(gx=gx, gy=gy, mag=mag)
        assert np.array_equal(non_max_suppress(f), nms_brute(mag, folded_theta(gx, gy)))


@pytest.mark.parametrize("sigma", [0.5, 1.4, 3.0])
def test_nms_of_image_gradients_matches_per_pixel_oracle(sigma):
    rng = np.random.default_rng(12)
    for _ in range(3):
        f = gradients(gi(rng.integers(0, 256, size=(12, 12))), sigma)
        assert np.array_equal(non_max_suppress(f), nms_brute(f.mag, folded_theta(f.gx, f.gy)))


def test_nms_step_one_pixel_per_row():
    f = gradients(ramp_step(), 1.0)
    out = non_max_suppress(f)
    survivors = out[4:-4] > 1e-9
    assert (survivors.sum(axis=1) == 1).all()


# --------------------------------------------------------------- hysteresis


def test_hysteresis_all_strong():
    nms = np.full((4, 4), 9.0)
    assert hysteresis(nms, 1.0, 5.0).bits.all()


def test_hysteresis_isolated_weak_rejected():
    nms = np.zeros((5, 5))
    nms[2, 2] = 3.0
    assert not hysteresis(nms, 1.0, 5.0).bits.any()


def test_hysteresis_chain_kept():
    nms = np.zeros((3, 5))
    nms[1, 1], nms[1, 2], nms[0, 3] = 9.0, 3.0, 3.0  # strong-weak-weak, 8-connected
    out = hysteresis(nms, 1.0, 5.0)
    assert out.bits[1, 1] and out.bits[1, 2] and out.bits[0, 3]


def test_hysteresis_kept_pixels_traceable():
    rng = np.random.default_rng(15)
    nms = rng.uniform(0, 10, size=(16, 16))
    low, high = 3.0, 7.0
    out = hysteresis(nms, low, high).bits
    assert (nms[out] >= low).all()
    # every kept pixel reaches a strong pixel through kept pixels
    strong = nms >= high
    reach = strong & out
    changed = True
    while changed:
        grown = reach.copy()
        grown[1:, :] |= reach[:-1, :]
        grown[:-1, :] |= reach[1:, :]
        grown[:, 1:] |= reach[:, :-1]
        grown[:, :-1] |= reach[:, 1:]
        grown[1:, 1:] |= reach[:-1, :-1]
        grown[:-1, :-1] |= reach[1:, 1:]
        grown[1:, :-1] |= reach[:-1, 1:]
        grown[:-1, 1:] |= reach[1:, :-1]
        grown &= out
        changed = (grown != reach).any()
        reach = grown
    assert (reach == out).all()


def test_hysteresis_matches_flood_fill_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        shape = tuple(int(v) for v in rng.integers(1, 24, size=2))
        nms = rng.uniform(0, 10, size=shape) * (rng.random(shape) < 0.6)
        low, high = 3.0, 7.0
        components = flood_fill_labels(nms >= low, 8)
        seeded = set(components[nms >= high].tolist())
        expected = np.isin(components, sorted(seeded - {0}))
        assert np.array_equal(hysteresis(nms, low, high).bits, expected)


@pytest.mark.parametrize("name, mask", border_masks(), ids=[name for name, _ in border_masks()])
def test_hysteresis_at_the_crop_edges_matches_flood_fill_oracle(name, mask):
    y, x = np.indices(mask.shape)
    nms = np.where(mask, np.where((y + 2 * x) % 5 == 0, 9.0, 4.0), 0.0)  # weak, some strong
    nms[~mask & ((y + x) % 7 == 3)] = 2.0  # below low: never an edge
    components = flood_fill_labels(mask, 8)
    seeded = set(components[nms >= 7.0].tolist()) - {0}
    expected = np.isin(components, sorted(seeded))
    assert np.array_equal(hysteresis(nms, 3.0, 7.0).bits, expected)


def hysteresis_oracle(nms, low, high):
    components = flood_fill_labels((nms >= low) & (nms > 0), 8)
    seeded = set(components[nms >= high].tolist()) - {0}
    return np.isin(components, sorted(seeded))


def strong_block_with(pixel, value):
    """A strong 3x3 block at rows/cols 1..3 of a 7x7 map, plus one more pixel."""
    nms = np.zeros((7, 7))
    nms[1:4, 1:4] = 9.0
    nms[pixel] = value
    return nms


@pytest.mark.parametrize(
    "nms, low, high, kept",
    [
        (strong_block_with((5, 5), 8.0), 3.0, 7.0, 10),  # every weak pixel is strong
        (strong_block_with((4, 4), 4.0), 3.0, 7.0, 10),  # weak-only pixel joins the block
        (strong_block_with((5, 5), 4.0), 3.0, 7.0, 9),  # weak-only pixel stands apart
        (strong_block_with((5, 5), 4.0), 4.0, 4.0, 10),  # low == high: every weak pixel strong
    ],
    ids=["all-weak-strong", "weak-joins", "weak-apart", "low-equals-high"],
)
def test_hysteresis_fast_path_cases_match_flood_fill_oracle(nms, low, high, kept):
    out = hysteresis(nms, low, high).bits
    assert np.array_equal(out, hysteresis_oracle(nms, low, high))
    assert out.sum() == kept


def test_hysteresis_where_every_weak_pixel_is_strong_matches_flood_fill_oracle():
    rng = np.random.default_rng(20)
    for _ in range(30):
        shape = tuple(int(v) for v in rng.integers(1, 24, size=2))
        nms = rng.uniform(0, 10, size=shape) * (rng.random(shape) < 0.6)
        least_weak = float(nms[nms >= 5.0].min(initial=10.0))  # high at the smallest weak value
        for low, high in ((5.0, 5.0), (0.0, 0.0), (5.0, least_weak)):
            out = hysteresis(nms, low, high).bits
            assert np.array_equal(out, hysteresis_oracle(nms, low, high))
            assert np.array_equal(out, (nms >= low) & (nms > 0))


def test_hysteresis_rejects_low_above_high_even_without_weak_pixels():
    with pytest.raises(ValueError, match="low <= high"):
        hysteresis(np.zeros((3, 3)), 2.0, 1.0)


def test_cached_kernels_and_border_index_are_read_only():
    cached = (*gaussian_kernels(1.4), border_index(64, 5))
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert gaussian_kernels(1.4)[0] is cached[0] and border_index(64, 5) is cached[2]
    assert border_index(4, 2).tolist() == [0, 0, 0, 1, 2, 3, 3, 3]


# ------------------------------------------------------------------ chamfer


def test_chamfer_point_values():
    mask = np.zeros((4, 6), dtype=bool)
    mask[0, 0] = True
    d = chamfer_manhattan(BinaryImage(mask))
    assert d[0, 0] == 0
    assert d[3, 2] == 5  # |2-0| + |3-0|


def test_chamfer_requires_edge_pixel():
    with pytest.raises(ValueError):
        chamfer_manhattan(BinaryImage(np.zeros((3, 3), dtype=bool)))


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(16)
    shapes = [(16, 16)] * 10 + [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1)] * 2
    for shape in shapes:
        mask = rng.random(shape) < 0.08
        if not mask.any():
            mask[shape[0] // 2, shape[1] // 2] = True
        d = chamfer_manhattan(BinaryImage(mask))
        assert np.array_equal(d, chamfer_brute(mask))
        # Lipschitz property on the 4-neighborhood
        assert (np.abs(np.diff(d, axis=0)) <= 1).all()
        assert (np.abs(np.diff(d, axis=1)) <= 1).all()


# -------------------------------------------------------------------- canny


def canny_config(sigma, low, high):
    return PipelineConfig(sigma=sigma, canny_low=low, canny_high=high)


def test_canny_constant_image_empty():
    cfg = canny_config(1.0, 1.0, 2.0)
    assert not detect_edges(gi(np.full((16, 16), 50)), cfg).bits.any()


def test_canny_flat_image_has_no_edges_or_objects():
    flat = gi(np.full((32, 32), 50))
    cfg = PipelineConfig()  # relative thresholds: 0/0 on a flat image
    assert not detect_edges(flat, cfg).bits.any()
    assert image_feature_vectors(flat, cfg) == []
    t = image_transaction(flat, cfg, QuantizationModel(), tid="flat")
    assert t.items == (NO_OBJECT_ITEM,)


def canny_chain(img, cfg):
    """detect_edges spelled out as gradients, NMS and hysteresis, with no shortcut."""
    field = gradients(img, cfg.sigma)
    low, high = cfg.canny_low, cfg.canny_high
    if low is None:
        m = float(field.mag.max())
        low, high = RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m
    return hysteresis(non_max_suppress(field), low, high)


@pytest.mark.parametrize(
    "pixels",
    [np.full((16, 16), 50), np.full((1, 1), 7), np.arange(9).reshape(1, 9) * 30, [[0, 255, 0, 255, 9]]],
    ids=["flat", "1x1", "1x9-ramp", "1x5-spikes"],
)
@pytest.mark.parametrize("low, high", [(None, None), (0.0, 0.0), (1.0, 2.0)])
def test_detect_edges_matches_the_canny_chain_on_degenerate_images(pixels, low, high):
    img, cfg = gi(pixels), PipelineConfig(sigma=1.0, canny_low=low, canny_high=high)
    assert detect_edges(img, cfg) == canny_chain(img, cfg)


def test_detect_edges_below_low_and_exactly_at_low():
    img = gi(np.random.default_rng(21).integers(0, 256, size=(20, 20)))
    m = float(gradients(img, 1.4).mag.max())
    below = PipelineConfig(canny_low=m * 1.01, canny_high=m * 2)
    assert not detect_edges(img, below).bits.any()
    assert detect_edges(img, below) == canny_chain(img, below)
    at = PipelineConfig(canny_low=m, canny_high=m)  # the largest magnitude is an edge
    edges = detect_edges(img, at)
    assert edges.bits.sum() >= 1
    assert edges == canny_chain(img, at)


def test_canny_disk_ring():
    size, r = 48, 14
    y, x = np.mgrid[0:size, 0:size]
    c = size / 2 - 0.5
    img = gi(np.where((y - c) ** 2 + (x - c) ** 2 <= r * r, 200, 0))
    edges = detect_edges(img, canny_config(1.4, 5.0, 20.0)).bits
    ys, xs = np.nonzero(edges)
    assert len(ys) > 0
    radii = np.hypot(ys - c, xs - c)
    assert (np.abs(radii - r) <= 2.0).all()
    # single 8-connected component
    seen = np.zeros_like(edges)
    stack = [(ys[0], xs[0])]
    seen[ys[0], xs[0]] = True
    while stack:
        cy, cx = stack.pop()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = cy + dy, cx + dx
                if 0 <= ny < size and 0 <= nx < size and edges[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
    assert (seen == edges).all()


def test_canny_invariant_under_brightness_shift():
    rng = np.random.default_rng(17)
    base = rng.integers(40, 200, size=(20, 20))
    cfg = canny_config(1.0, 3.0, 8.0)
    a = detect_edges(gi(base), cfg)
    b = detect_edges(gi(base + 10), cfg)
    assert a == b


def test_canny_params_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(sigma=0)
    with pytest.raises(ConfigError):
        canny_config(1.4, 5.0, 2.0)
