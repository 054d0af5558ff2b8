import math

import numpy as np
import pytest

from imgmine.prep import BinaryImage, GrayImage, dilate, fill_holes, square3
from imgmine.segment import (
    FEATURE_NAMES,
    NO_OBJECT_ITEM,
    FeatureVector,
    QuantizationModel,
    Region,
    Transaction,
    TransactionDB,
    coarse_item,
    decode_item,
    encode_item,
    extract_regions,
    glcm_features,
    image_to_transaction,
    quantize,
    read_tdb_csv,
    write_tdb_csv,
)

from oracles import border_masks, flood_fill_labels, glcm_counts_brute


def gi(a):
    return GrayImage(np.asarray(a, dtype=np.uint8))


def ring_mask(size, cy, cx, r):
    y, x = np.mgrid[0:size, 0:size]
    d = np.hypot(y - cy, x - cx)
    return np.abs(d - r) < 0.7


def flat(size, v=100):
    return gi(np.full((size, size), v))


def make_qm(**overrides):
    ranges = {name: (0.0, 1.0) for name in FEATURE_NAMES}
    ranges.update(overrides)
    return QuantizationModel(ranges=ranges)


def make_fv(**overrides):
    vals = dict.fromkeys(FEATURE_NAMES, 0.0)
    vals.update(overrides)
    return FeatureVector(**vals)


# ------------------------------------------------------------------ regions


def test_extract_regions_empty():
    edges = BinaryImage(np.zeros((8, 8), dtype=bool))
    assert extract_regions(edges, flat(8)) == []


def test_extract_regions_filled_ring():
    size, r = 128, 48
    edges = BinaryImage(ring_mask(size, size / 2, size / 2, r))
    regions = extract_regions(edges, flat(size), min_area=25)
    assert len(regions) == 1
    assert abs(regions[0].area - math.pi * r * r) <= 0.10 * math.pi * r * r


def test_extract_regions_ordering():
    size = 96
    edges = BinaryImage(ring_mask(size, 64, 70, 12) | ring_mask(size, 24, 20, 12))
    regions = extract_regions(edges, flat(size), min_area=25)
    assert len(regions) == 2
    assert regions[0].bbox[0] < regions[1].bbox[0]


def test_extract_regions_min_area_filter():
    edges = np.zeros((16, 16), dtype=bool)
    edges[2, 2] = True  # dilates to 9 px, below the default threshold
    assert extract_regions(BinaryImage(edges), flat(16), min_area=25) == []


def test_extract_regions_deterministic():
    rng = np.random.default_rng(21)
    edges = BinaryImage(rng.random((32, 32)) < 0.15)
    img = flat(32)
    a = extract_regions(edges, img, min_area=5)
    b = extract_regions(edges, img, min_area=5)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.coords, rb.coords)


def oracle_fill_holes(mask):
    """Fill every 4-connected background component that has no pixel on the border."""
    background = flood_fill_labels(~mask, 4)
    h, w = mask.shape
    out = mask.copy()
    for n in range(1, background.max() + 1):
        ys, xs = np.nonzero(background == n)
        if not ((ys == 0) | (ys == h - 1) | (xs == 0) | (xs == w - 1)).any():
            out[ys, xs] = True
    return out


def oracle_regions(edges, min_area):
    """(coords in raster order, bbox) per kept 8-component, in extract_regions order."""
    labels = flood_fill_labels(oracle_fill_holes(dilate(edges, square3()).bits), 8)
    regions = []
    for n in range(1, labels.max() + 1):
        coords = sorted(zip(*np.nonzero(labels == n)))
        if len(coords) >= min_area:
            ys, xs = [y for y, _ in coords], [x for _, x in coords]
            bbox = (min(ys), min(xs), max(ys), max(xs))
            regions.append(([[int(y), int(x)] for y, x in coords], bbox))
    regions.sort(key=lambda r: (r[1][0], r[1][1], len(r[0])))
    return regions


def test_fill_holes_matches_flood_fill_oracle():
    rng = np.random.default_rng(24)
    for _ in range(60):
        shape = tuple(int(v) for v in rng.integers(1, 20, size=2))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        assert np.array_equal(fill_holes(mask), oracle_fill_holes(mask))


def test_extract_regions_matches_flood_fill_oracle():
    rng = np.random.default_rng(25)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(4, 33, size=2))
        edges = BinaryImage(rng.random(shape) < rng.uniform(0.02, 0.2))
        min_area = int(rng.choice([1, 5, 25]))
        img = gi(rng.integers(0, 256, size=shape))
        got = [(r.coords.tolist(), r.bbox) for r in extract_regions(edges, img, min_area)]
        assert got == oracle_regions(edges, min_area)


@pytest.mark.parametrize("name, mask", border_masks(), ids=[name for name, _ in border_masks()])
@pytest.mark.parametrize("min_area", [1, 5])
def test_extract_regions_at_the_crop_edges_matches_flood_fill_oracle(name, mask, min_area):
    edges = BinaryImage(mask)
    img = gi(np.arange(mask.size).reshape(mask.shape) % 256)
    got = [(r.coords.tolist(), r.bbox) for r in extract_regions(edges, img, min_area)]
    assert got == oracle_regions(edges, min_area)


def test_extract_regions_dimension_mismatch():
    with pytest.raises(ValueError):
        extract_regions(BinaryImage(np.zeros((4, 4), dtype=bool)), flat(5))


# --------------------------------------------------------------------- glcm


def region_of(mask):
    coords = np.array(sorted(zip(*np.nonzero(mask))), dtype=np.int64)
    return Region(
        coords=coords,
        bbox=(
            int(coords[:, 0].min()),
            int(coords[:, 1].min()),
            int(coords[:, 0].max()),
            int(coords[:, 1].max()),
        ),
    )


def test_glcm_constant_region():
    img = flat(6, v=80)
    fv = glcm_features(img, region_of(np.ones((6, 6), dtype=bool)))
    assert fv.glcm_contrast == 0.0
    assert fv.glcm_energy == 1.0
    assert fv.glcm_homogeneity == 1.0
    assert fv.glcm_entropy == 0.0
    assert math.copysign(1.0, fv.glcm_entropy) == 1.0  # +0.0, not -0.0
    assert fv.mean_intensity == 80.0
    assert fv.area == 36.0


def test_glcm_alternating_strip():
    img = gi([[0, 255, 0, 255]])
    mask = np.ones((1, 4), dtype=bool)
    fv = glcm_features(img, region_of(mask))
    assert fv.glcm_contrast == pytest.approx(49.0)
    assert fv.glcm_energy == pytest.approx(0.5)
    assert fv.glcm_entropy == pytest.approx(1.0)
    assert fv.glcm_homogeneity == pytest.approx(2 * 0.5 / 8)


def test_glcm_entropy_bound():
    rng = np.random.default_rng(22)
    for _ in range(10):
        img = gi(rng.integers(0, 256, size=(8, 8)))
        fv = glcm_features(img, region_of(np.ones((8, 8), dtype=bool)))
        assert 0.0 <= fv.glcm_entropy <= 6.0  # log2(64)
        assert 0.0 < fv.glcm_energy <= 1.0
        assert 0.0 < fv.glcm_homogeneity <= 1.0


def test_glcm_matches_brute_force_pair_counts():
    rng = np.random.default_rng(26)
    for k in range(44):
        # the last cases put a 12x12 patch far from the origin of a 64x80 image
        y0, x0 = (0, 0) if k < 40 else (int(rng.integers(30, 52)), int(rng.integers(40, 68)))
        pixels = rng.integers(0, 256, size=(64, 80) if k >= 40 else (12, 12))
        patch = np.zeros(pixels.shape, dtype=bool)
        patch[y0 : y0 + 12, x0 : x0 + 12] = rng.random((12, 12)) < 0.6
        region = region_of(flood_fill_labels(patch, 8) == 1)
        counts = glcm_counts_brute(pixels, region.coords)
        if counts.sum() == 0:
            with pytest.raises(ValueError, match="GLCM"):
                glcm_features(gi(pixels), region)
            continue
        p = counts / counts.sum()
        cells = [(i, j) for i in range(8) for j in range(8)]
        fv = glcm_features(gi(pixels), region)
        assert fv.glcm_contrast == pytest.approx(sum((i - j) ** 2 * p[i, j] for i, j in cells))
        assert fv.glcm_energy == pytest.approx(sum(p[i, j] ** 2 for i, j in cells))
        assert fv.glcm_homogeneity == pytest.approx(
            sum(p[i, j] / (1 + abs(i - j)) for i, j in cells)
        )
        assert fv.glcm_entropy == pytest.approx(
            -sum(p[i, j] * math.log2(p[i, j]) for i, j in cells if p[i, j] > 0), abs=1e-12
        )
        assert fv.area == region.area


def test_glcm_empty_region_raises():
    with pytest.raises(ValueError):
        glcm_features(flat(4), Region(np.zeros((0, 2), dtype=np.int64), (0, 0, 0, 0)))


def test_glcm_vertical_strip_undefined():
    mask = np.zeros((4, 4), dtype=bool)
    mask[:, 1] = True  # no horizontally adjacent pair
    with pytest.raises(ValueError, match="GLCM"):
        glcm_features(flat(4), region_of(mask))


# ------------------------------------------------------------- item codes


def test_encode_decode_round_trip():
    for feature in range(1, 7):
        for fine in range(1, 5):
            code = encode_item(feature, fine)
            assert decode_item(code) == (feature, 1 if fine <= 2 else 2, fine)


def test_coarse_item():
    assert coarse_item(encode_item(3, 1)) == 310
    assert coarse_item(encode_item(3, 4)) == 320
    assert coarse_item(NO_OBJECT_ITEM) == NO_OBJECT_ITEM
    assert coarse_item(901) == 901


# ----------------------------------------------------------------- quantize


def test_quantize_boundaries():
    qm = make_qm(area=(10.0, 20.0))
    low = quantize(make_fv(area=10.0), qm)
    high = quantize(make_fv(area=20.0), qm)
    assert 111 in low
    assert 122 in high


def test_quantize_60_percent_of_range():
    qm = make_qm(area=(0.0, 100.0))
    assert 121 in quantize(make_fv(area=60.0), qm)


def test_quantize_clamps_out_of_range():
    qm = make_qm(area=(10.0, 20.0))
    assert 111 in quantize(make_fv(area=-5.0), qm)
    assert 122 in quantize(make_fv(area=999.0), qm)


def test_quantize_missing_range_errors():
    qm = QuantizationModel(ranges={"area": (0.0, 1.0)})
    with pytest.raises(ValueError, match="missing range"):
        quantize(make_fv(), qm)


def test_quantization_model_round_trip():
    qm = make_qm(area=(1.5, 9.25))
    assert QuantizationModel.from_dict(qm.to_dict()).ranges == qm.ranges


# ------------------------------------------------------------- transactions


def region_fvs(img, edges):
    return [glcm_features(img, r) for r in extract_regions(edges, img)]


def test_image_to_transaction_no_regions():
    t = image_to_transaction([], make_qm(), tid="t0")
    assert t.items == (NO_OBJECT_ITEM,)


def test_image_to_transaction_single_region():
    size = 96
    img = flat(size)
    fvs = region_fvs(img, BinaryImage(ring_mask(size, 48, 48, 30)))
    qm = make_qm(area=(0.0, 5000.0), mean_intensity=(0.0, 255.0))
    t = image_to_transaction(fvs, qm, tid="t1", label="benign")
    assert len(t.items) == 6  # one code per feature
    assert list(t.items) == sorted(set(t.items))
    assert t.label == "benign"


def test_image_to_transaction_duplicate_regions_collapse():
    size = 96
    img = flat(size)
    two = region_fvs(img, BinaryImage(ring_mask(size, 64, 70, 12) | ring_mask(size, 24, 20, 12)))
    one = region_fvs(img, BinaryImage(ring_mask(size, 24, 20, 12)))
    assert len(two) == 2 and len(one) == 1
    qm = make_qm(area=(0.0, 5000.0), mean_intensity=(0.0, 255.0))
    t_two = image_to_transaction(two, qm, tid="a")
    t_one = image_to_transaction(one, qm, tid="b")
    assert t_two.items == t_one.items


def test_transaction_items_sorted_unique():
    t = Transaction(tid="x", items=(222, 111, 111))
    assert t.items == (111, 222)


# ------------------------------------------------------------------ TDB CSV


def test_read_tdb_sample_row():
    data = b"tid,label,items\n001,benign,111;121;211;221\n"
    db = read_tdb_csv(data)
    assert db.transactions[0].tid == "001"
    assert db.transactions[0].items == (111, 121, 211, 221)
    assert db.transactions[0].label == "benign"


def test_tdb_round_trip():
    db = TransactionDB(
        transactions=[
            Transaction(tid="001", items=(1, 2, 3), label="normal"),
            Transaction(tid="002", items=(9,)),
        ]
    )
    assert read_tdb_csv(write_tdb_csv(db)).transactions == db.transactions
    assert write_tdb_csv(read_tdb_csv(write_tdb_csv(db))) == write_tdb_csv(db)


def test_tdb_duplicate_tid():
    with pytest.raises(ValueError, match="line 2"):
        read_tdb_csv(b"001,,1\n001,,2\n")


def test_tdb_non_numeric_item():
    with pytest.raises(ValueError, match="line 1"):
        read_tdb_csv(b"001,,1;x;3\n")
