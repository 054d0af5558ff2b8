"""sha256 pins of each per-image pixel stage, byte for byte.

The digests were recorded before the median network and the pad-free
borders replaced np.median and np.pad, the glcm_features one before the
region stages were cropped to the edge box, and the detect_edges one before
it returned an empty map early and hysteresis skipped labelling, so a kernel
rewrite that moves one low bit of one intermediate array fails here. Each
stage's digest covers every input image under every sigma and both equalize
settings; detect_edges also covers both threshold kinds.
"""

import hashlib

import numpy as np
import pytest

from imgmine.config import PipelineConfig
from imgmine.edge import gradients, hysteresis, non_max_suppress
from imgmine.pipeline import RELATIVE_HIGH_FRAC, RELATIVE_LOW_FRAC, detect_edges, preprocess_image
from imgmine.prep import GrayImage
from imgmine.raster import read_pgm
from imgmine.segment import FEATURE_NAMES, extract_regions, glcm_features
from imgmine.synth import generate_corpus

# 12.0 gives a 73-sample kernel, wider than every image here but the 512 one.
SIGMAS = (0.5, 1.4, 3.0, 12.0)

PINNED = {
    "median3x3": "a50eb140d7f8c1cbad5297dee49c60dc306fea42b402237cae19f24090c7e270",
    "mag": "fa2ff9ff62ddb1937a7abd94883dd783bd41954ce0fb1e62145e393b10e60cbb",
    "non_max_suppress": "7de69ebc613f531aa43313cffacbeca2b2c1ebc497d0e8b1aa53b67401885f5d",
    "hysteresis": "2d7493af11368a3d4cc18dc444fed986555b92577224f1f50cc5ecf99cc8a334",
    "extract_regions": "a1f690f633b299308fa0a965e1f217667f294a3b06c7c42e2df0d39f0b6a18c4",
    "glcm_features": "809e61596b26ffcd076c0941a0f3dad19723c103783caacaef024c65bba3a73b",
    "detect_edges": "c329f76f794b234ea061dfcaf6d54b65f2a24f986499934a24f68d34d325f2ca",
}

# detect_edges under the synth corpus's absolute thresholds and the relative defaults.
THRESHOLDS = ((5.0, 9.0), (None, None))


def stage_images(tmp_path):
    manifest = generate_corpus(tmp_path, seed=7, per_class=2)
    images = [read_pgm(manifest.resolve(e).read_bytes()) for e in manifest.entries]
    rng = np.random.default_rng(2024)
    images += [GrayImage(rng.integers(0, 256, size=(64, 64))) for _ in range(3)]
    images += [GrayImage(rng.integers(0, 256, size=s)) for s in ((1, 1), (1, 9), (2, 2), (3, 5))]
    images.append(GrayImage((np.indices((64, 64)).sum(axis=0) % 2) * 255))
    images.append(GrayImage(rng.integers(0, 256, size=(512, 512))))
    return images


def feed(digest, a):
    digest.update(f"{a.dtype.str}{a.shape}".encode("ascii"))
    digest.update(np.ascontiguousarray(a).tobytes())


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = {name: hashlib.sha256() for name in PINNED}
    for img in stage_images(tmp_path_factory.mktemp("synth")):
        for equalize in (True, False):
            pre = preprocess_image(img, PipelineConfig(equalize=equalize))
            feed(out["median3x3"], pre.pixels)
            for sigma in SIGMAS:
                field = gradients(pre, sigma)
                feed(out["mag"], field.mag)
                nms = non_max_suppress(field)
                feed(out["non_max_suppress"], nms)
                m = float(field.mag.max())
                edges = hysteresis(nms, RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m)
                feed(out["hysteresis"], edges.bits)
                for region in extract_regions(edges, pre, min_area=1):
                    feed(out["extract_regions"], region.coords)
                    try:
                        fv = glcm_features(pre, region)
                    except ValueError:
                        continue  # no horizontal pair: the pipeline drops the region too
                    feed(out["glcm_features"], np.array([fv.value(n) for n in FEATURE_NAMES]))
                for low, high in THRESHOLDS:
                    cfg = PipelineConfig(sigma=sigma, canny_low=low, canny_high=high)
                    feed(out["detect_edges"], detect_edges(pre, cfg).bits)
    return {name: d.hexdigest() for name, d in out.items()}


@pytest.mark.parametrize("stage", sorted(PINNED))
def test_pixel_stage_bytes_are_pinned(digests, stage):
    assert digests[stage] == PINNED[stage]
