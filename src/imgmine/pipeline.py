"""Shared per-image pipeline stages used by the CLI subcommands."""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

from .config import PipelineConfig
from .edge import gradients, hysteresis, non_max_suppress
from .prep import EdgeMap, GrayImage, equalize, median3x3
from .segment import (
    QuantizationModel,
    Transaction,
    extract_regions,
    glcm_features,
    image_to_transaction,
)

RELATIVE_LOW_FRAC = 0.1
RELATIVE_HIGH_FRAC = 0.25


def preprocess_stages(img: GrayImage, cfg: PipelineConfig):
    """(equalized, median): equalize unless the config turns it off, then the median."""
    equalized = equalize(img) if cfg.equalize else img
    return equalized, median3x3(equalized)


def preprocess_image(img: GrayImage, cfg: PipelineConfig) -> GrayImage:
    return preprocess_stages(img, cfg)[1]


def detect_edges(img: GrayImage, cfg: PipelineConfig) -> EdgeMap:
    """Canny with configured absolute thresholds, or per-image relative defaults."""
    field = gradients(img, cfg.sigma)
    m = float(field.mag.max())
    if cfg.canny_low is not None:
        low, high = cfg.canny_low, cfg.canny_high
    else:
        low, high = RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m
    if m < low or m == 0:  # NMS keeps a magnitude or writes 0, so no pixel can be weak
        return EdgeMap(np.zeros(field.mag.shape, dtype=bool))
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


def _attempt(fn, job):
    """(fn(job), None), or (None, the exception it raised)."""
    try:
        return fn(job), None
    except Exception as exc:
        return None, exc


def map_images(fn, jobs):
    """fn over jobs, in job order, each as (result, None) or (None, exception).

    With at least two jobs and two CPUs to run on, one forked helper computes
    every other job and sends its outcomes back as one pickle while this
    process computes the rest. The images are independent, so the order of
    the outcomes is the only thing to keep. A helper that fails in any way
    (killed, an outcome that does not pickle) has its jobs computed here
    instead, and so do all jobs when no process can be started: the outcomes
    never depend on it.
    """
    jobs = list(jobs)
    if len(jobs) < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [_attempt(fn, job) for job in jobs]
    # A bare fork, not a spawned pool: a spawned worker imports numpy again
    # (over 100 ms), and this process runs no other Python thread; OpenBLAS
    # stops and restarts its own pool around a fork.
    theirs = jobs[1::2]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        return [_attempt(fn, job) for job in jobs]
    if pid == 0:  # the helper: never returns, and runs no exit handler of the parent's
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump([_attempt(fn, job) for job in theirs], out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as results:
        try:
            outcomes = [_attempt(fn, job) for job in jobs[0::2]]
            data = results.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    # The helper exits 0 only once every outcome is written.
    received = pickle.loads(data) if status == 0 else [_attempt(fn, job) for job in theirs]
    merged = [None] * len(jobs)
    merged[0::2], merged[1::2] = outcomes, received
    return merged
