"""Shared per-image pipeline stages used by the CLI subcommands."""

from __future__ import annotations

from .config import PipelineConfig
from .edge import gradients, hysteresis, non_max_suppress
from .prep import equalize, median3x3
from .raster import EdgeMap, GrayImage
from .segment import (
    QuantizationModel,
    Transaction,
    extract_regions,
    glcm_features,
    image_to_transaction,
)

RELATIVE_LOW_FRAC = 0.1
RELATIVE_HIGH_FRAC = 0.25


def preprocess_image(img: GrayImage, cfg: PipelineConfig) -> GrayImage:
    """equalize (unless the config turns it off) -> median."""
    return median3x3(equalize(img) if cfg.equalize else img)


def detect_edges(img: GrayImage, cfg: PipelineConfig) -> EdgeMap:
    """Canny with configured absolute thresholds, or per-image relative defaults."""
    field = gradients(img, cfg.sigma)
    if cfg.canny_low is not None:
        low, high = cfg.canny_low, cfg.canny_high
    else:
        m = float(field.mag.max())
        low, high = RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m
    return hysteresis(non_max_suppress(field), low, high)


def image_feature_vectors(img: GrayImage, cfg: PipelineConfig):
    """Preprocess, detect edges and return the per-region feature vectors."""
    pre = preprocess_image(img, cfg)
    edges = detect_edges(pre, cfg)
    fvs = []
    for region in extract_regions(edges, pre, min_area=cfg.min_area):
        try:
            fvs.append(glcm_features(pre, region))
        except ValueError:
            continue  # region too thin for a co-occurrence pair
    return fvs


def image_transaction(
    img: GrayImage, cfg: PipelineConfig, qm: QuantizationModel, tid: str
) -> Transaction:
    return image_to_transaction(image_feature_vectors(img, cfg), qm, tid)
