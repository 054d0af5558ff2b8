"""Shared per-image pipeline stages used by the CLI subcommands."""

from __future__ import annotations

from .config import PipelineConfig
from .edge import gradients, hysteresis, non_max_suppress
from .prep import align_peak, equalize, median3x3
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


def preprocess_image(img: GrayImage, cfg: PipelineConfig, avg_hist=None) -> GrayImage:
    """equalize -> peak alignment (when an average histogram is given) -> median."""
    out = img
    if cfg.equalize:
        out = equalize(out)
    if avg_hist is not None:
        out = align_peak(out, avg_hist)
    return median3x3(out)


def detect_edges(img: GrayImage, cfg: PipelineConfig) -> EdgeMap:
    """Canny with configured absolute thresholds, or per-image relative defaults."""
    field = gradients(img, cfg.sigma, cfg.magnitude_mode)
    if cfg.canny_low is not None:
        low, high = cfg.canny_low, cfg.canny_high
    else:
        m = float(field.mag.max())
        low, high = RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m
    return hysteresis(non_max_suppress(field), low, high)


def image_feature_vectors(img: GrayImage, cfg: PipelineConfig, avg_hist=None):
    """Preprocess, detect edges and return the per-region feature vectors."""
    pre = preprocess_image(img, cfg, avg_hist)
    edges = detect_edges(pre, cfg)
    fvs = []
    for region in extract_regions(edges, pre, min_area=cfg.min_area):
        try:
            fvs.append(glcm_features(pre, region))
        except ValueError:
            continue  # region too thin for a co-occurrence pair
    return fvs


def image_transaction(
    img: GrayImage,
    cfg: PipelineConfig,
    qm: QuantizationModel,
    tid: str,
    label=None,
    avg_hist=None,
) -> Transaction:
    fvs = image_feature_vectors(img, cfg, avg_hist)
    return image_to_transaction(fvs, qm, tid, label=label)
