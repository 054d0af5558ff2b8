"""A stack of same-size images gives every stage's bytes that each image gives alone.

Each stage runs once on a stack and once on each of its planes, over the
stage-pin images (every size, sigma, equalize setting and threshold kind) and
the crop-edge masks of the oracles. Labels of a stack number each plane's
components after those of the planes before it.
"""

import numpy as np
import pytest

from imgmine.config import PipelineConfig
from imgmine.edge import gradients, hysteresis, non_max_suppress
from imgmine.pipeline import (
    RELATIVE_HIGH_FRAC,
    RELATIVE_LOW_FRAC,
    STACK_PIXELS,
    detect_edges,
    image_feature_vectors,
    preprocess_image,
)
from imgmine.prep import BinaryImage, GrayImage, dilate, fill_holes, label_components, square3
from imgmine.segment import extract_regions

from oracles import border_masks
from test_stage_digests import SIGMAS, THRESHOLDS, stage_images


def same(stacked, alone):
    """Equal dtype, shape and bytes: a float that differs in its last bit, or in its sign, fails."""
    stacked, alone = np.asarray(stacked), np.asarray(alone)
    assert (stacked.dtype, stacked.shape) == (alone.dtype, alone.shape)
    assert stacked.tobytes() == alone.tobytes()


def regions_of(regions):
    return [(r.coords.dtype, r.coords.shape, r.coords.tobytes(), r.bbox) for r in regions]


def with_variants(planes):
    """The planes, each followed by its mirror image and its inverse: no size is left alone."""
    out = []
    for p in planes:
        out += [p, p[:, ::-1], ~p if p.dtype == bool else 255 - p]
    return np.stack(out)


def stacks_of(images):
    """One stack per image size: every image of that size, or one image and its variants.

    An image above the stack budget, which the extractor runs alone, gets one variant.
    """
    sizes = {}
    for img in images:
        sizes.setdefault(img.pixels.shape, []).append(img.pixels)
    stacks = [np.stack(planes) if len(planes) > 1 else with_variants(planes) for planes in sizes.values()]
    return [s[:2] if s[0].size > STACK_PIXELS else s for s in stacks]


def assert_labels_per_plane(stacked, planes, connectivity):
    offset = 0
    for k, plane in enumerate(planes):
        alone = label_components(plane, connectivity)
        same(stacked[k], np.where(alone > 0, alone + offset, 0).astype(np.int32))
        offset += int(alone.max())


def assert_mask_stages_per_plane(masks, min_area=1):
    """Dilation, hole fill, both labellings and extract_regions of a mask stack, plane by plane."""
    stack = BinaryImage(masks)
    img = GrayImage(np.arange(masks.size).reshape(masks.shape) % 256)
    dilated = dilate(stack, square3()).bits
    filled = fill_holes(masks)
    regions = extract_regions(stack, img, min_area)
    assert len(regions) == len(masks)
    for k, mask in enumerate(masks):
        same(dilated[k], dilate(BinaryImage(mask), square3()).bits)
        same(filled[k], fill_holes(mask))
        assert regions_of(regions[k]) == regions_of(
            extract_regions(BinaryImage(mask), GrayImage(img.pixels[k]), min_area))
    for connectivity in (4, 8):
        assert_labels_per_plane(label_components(masks, connectivity), masks, connectivity)


@pytest.fixture(scope="module")
def image_stacks(tmp_path_factory):
    return stacks_of(stage_images(tmp_path_factory.mktemp("synth")))


@pytest.mark.parametrize("equalize", [True, False])
def test_pixel_stages_of_a_stack_match_each_image_alone(image_stacks, equalize):
    for pixels in image_stacks:
        pre = preprocess_image(GrayImage(pixels), PipelineConfig(equalize=equalize))
        alone = [preprocess_image(GrayImage(p), PipelineConfig(equalize=equalize)) for p in pixels]
        for k, a in enumerate(alone):
            same(pre.pixels[k], a.pixels)
        for sigma in SIGMAS:
            field = gradients(pre, sigma)
            nms = non_max_suppress(field)
            m = field.mag.max(axis=(-2, -1), keepdims=True)
            edges = hysteresis(nms, RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m)
            detected = [detect_edges(pre, PipelineConfig(sigma=sigma, canny_low=low, canny_high=high))
                        for low, high in THRESHOLDS]
            regions = extract_regions(edges, pre, min_area=1)
            for k, a in enumerate(alone):
                field_k = gradients(a, sigma)
                for stacked, one in zip(field, field_k):
                    same(stacked[k], one)
                nms_k = non_max_suppress(field_k)
                same(nms[k], nms_k)
                mk = float(field_k.mag.max())
                edges_k = hysteresis(nms_k, RELATIVE_LOW_FRAC * mk, RELATIVE_HIGH_FRAC * mk)
                same(edges.bits[k], edges_k.bits)
                for (low, high), d in zip(THRESHOLDS, detected):
                    cfg = PipelineConfig(sigma=sigma, canny_low=low, canny_high=high)
                    same(d.bits[k], detect_edges(a, cfg).bits)
                assert regions_of(regions[k]) == regions_of(extract_regions(edges_k, a, min_area=1))
            assert_mask_stages_per_plane(edges.bits)


def test_image_feature_vectors_of_a_list_match_each_image_alone(tmp_path):
    images = stage_images(tmp_path)
    images += [GrayImage(p) for p in with_variants([img.pixels for img in images[:6]])]
    for equalize in (True, False):
        cfg = PipelineConfig(sigma=1.0, canny_low=5.0, canny_high=9.0, equalize=equalize, min_area=5)
        together = image_feature_vectors(images, cfg)
        assert together == [image_feature_vectors([img], cfg)[0] for img in images]
        assert any(together)


def test_mask_stages_of_a_stack_match_each_mask_alone():
    sizes = {}
    for _, mask in border_masks():
        sizes.setdefault(mask.shape, []).append(mask)
    for masks in sizes.values():
        for min_area in (1, 5):
            assert_mask_stages_per_plane(with_variants(masks), min_area)


def test_foreground_that_meets_across_planes_stays_apart():
    """Plane k's last row and plane k+1's first row are set in the same columns."""
    masks = np.zeros((4, 5, 7), dtype=bool)
    masks[:, -1, 1:6] = True
    masks[:, 0, 1:6] = True
    masks[1, :, 3] = True  # joins plane 1's two rows: one component there, two elsewhere
    masks[2, 1:-1, 1:6] = True  # plane 2 is one solid block
    assert_mask_stages_per_plane(masks)
    for connectivity in (4, 8):
        labels = label_components(masks, connectivity)
        assert [len(np.unique(plane[plane > 0])) for plane in labels] == [2, 1, 1, 2]
    regions = extract_regions(BinaryImage(masks), GrayImage(np.zeros(masks.shape)), min_area=1)
    assert [len(r) for r in regions] == [2, 1, 1, 2]
