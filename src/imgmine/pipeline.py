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
# image_feature_vectors runs images of one size in stacks of at most this many pixels:
# eight 64 x 64 images. A larger image runs alone.
STACK_PIXELS = 2**15
# extract_each reads and extracts this many images at a time: one full stack at 64 px.
JOB_IMAGES = STACK_PIXELS // 64**2


def preprocess_stages(img: GrayImage, cfg: PipelineConfig):
    """(equalized, median): equalize unless the config turns it off, then the median."""
    equalized = equalize(img) if cfg.equalize else img
    return equalized, median3x3(equalized)


def preprocess_image(img: GrayImage, cfg: PipelineConfig) -> GrayImage:
    return preprocess_stages(img, cfg)[1]


def detect_edges(img: GrayImage, cfg: PipelineConfig) -> EdgeMap:
    """Canny with configured absolute thresholds, or per-image relative defaults."""
    field = gradients(img, cfg.sigma)
    m = field.mag.max(axis=(-2, -1), keepdims=True)  # one maximum per image of a stack
    if cfg.canny_low is not None:
        low, high = cfg.canny_low, cfg.canny_high
    else:
        low, high = RELATIVE_LOW_FRAC * m, RELATIVE_HIGH_FRAC * m
    if not ((m >= low) & (m > 0)).any():  # NMS keeps a magnitude or writes 0, so no pixel can be weak
        return EdgeMap(np.zeros(field.mag.shape, dtype=bool))
    return hysteresis(non_max_suppress(field), low, high)


def image_feature_vectors(images, cfg: PipelineConfig):
    """Per image, the feature vectors of its regions: preprocess, detect edges, extract.

    Images of one size run together, as stacks of at most STACK_PIXELS pixels; every
    stage gives each image of a stack the bytes it gives that image alone.
    """
    out = [None] * len(images)
    sizes = {}
    for i, img in enumerate(images):
        sizes.setdefault(img.pixels.shape, []).append(i)
    for (h, w), same in sizes.items():
        n = max(STACK_PIXELS // (h * w), 1)
        for stack in (same[k : k + n] for k in range(0, len(same), n)):
            pre = preprocess_image(GrayImage(np.stack([images[i].pixels for i in stack])), cfg)
            planes = extract_regions(detect_edges(pre, cfg), pre, min_area=cfg.min_area)
            for i, plane, regions in zip(stack, pre.pixels, planes):
                plane, fvs = GrayImage(plane), []
                for region in regions:
                    try:
                        fvs.append(glcm_features(plane, region))
                    except ValueError:
                        continue  # region too thin for a co-occurrence pair
                out[i] = fvs
    return out


def image_transaction(fvs, qm: QuantizationModel, tid: str) -> Transaction:
    """One classified image's transaction, from its feature vectors.

    A call of its own per classified image, so that perfbench's trace counts them.
    """
    return image_to_transaction(fvs, qm, tid)


def _attempt(fn, job):
    """(fn(job), None), or (None, the exception it raised)."""
    try:
        return fn(job), None
    except Exception as exc:
        return None, exc


def extract_each(read, jobs, cfg: PipelineConfig):
    """(feature vectors, None) or (None, the exception) per job, in job order.

    The jobs run JOB_IMAGES at a time: each job's image is read(job), and the
    images of those jobs that read are extracted together by
    image_feature_vectors; an error there is every such job's.
    """
    out = []
    for k in range(0, len(jobs), JOB_IMAGES):
        images = [_attempt(read, job) for job in jobs[k : k + JOB_IMAGES]]
        readable = [img for img, e in images if e is None]
        fvs, exc = _attempt(lambda ok: image_feature_vectors(ok, cfg), readable)
        if exc is not None:
            out += [(None, exc if e is None else e) for _, e in images]
        else:
            each = iter(fvs)
            out += [(next(each), None) if e is None else (None, e) for _, e in images]
    return out


def map_images(run, jobs):
    """The outcomes of run over jobs, in job order; run(some jobs) gives one per job.

    run is called on jobs[0::2] and on jobs[1::2], wherever it runs, so the jobs it
    sees together never depend on the CPUs. With two CPUs to run on, one forked
    helper computes the second half and sends its outcomes back as one pickle while
    this process computes the first. The images are independent, so the order of
    the outcomes is the only thing to keep. A helper that fails in any way (killed,
    an outcome that does not pickle) has its half computed here instead, and so does
    every job when no process can be started: the outcomes never depend on it.
    """
    jobs = list(jobs)
    ours, theirs = jobs[0::2], jobs[1::2]
    merged = [None] * len(jobs)
    if not theirs or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        merged[0::2], merged[1::2] = run(ours), run(theirs)
        return merged
    # A bare fork, not a spawned pool: a spawned worker imports numpy again
    # (over 100 ms), and this process runs no other Python thread; OpenBLAS
    # stops and restarts its own pool around a fork.
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        merged[0::2], merged[1::2] = run(ours), run(theirs)
        return merged
    if pid == 0:  # the helper: never returns, and runs no exit handler of the parent's
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(run(theirs), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as results:
        try:
            merged[0::2] = run(ours)
            data = results.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    # The helper exits 0 only once every outcome is written.
    merged[1::2] = pickle.loads(data) if status == 0 else run(theirs)
    return merged
