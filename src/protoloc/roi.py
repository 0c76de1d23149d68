"""RoIAlign feature extraction with its exact adjoint.

A box proposed in image coordinates is scaled into feature-map coordinates
without quantization and split into a regular grid of bins; each bin
averages bilinear samples at regular sub-bin centers, and the RoI feature
is the mean over bins. Bilinear sampling is separable, so that mean is the
weighted sum ay^T FM ax of per-row and per-column cell weights, and the
adjoint is outer(ay, ax) times the incoming gradient. Training and
evaluation average a class's RoI features into its refined representation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .encoder import CacheMismatch
from .kernels import ShapeError, _corner_weights


@dataclass(frozen=True)
class RoiConfig:
    grid: int = 3       # output bins per axis
    samples: int = 2    # sample points per bin axis

    def __post_init__(self):
        for name in ("grid", "samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _check_box(box, image_h, image_w):
    y0, x0, y1, x1 = box
    if not (0 <= y0 <= y1 < image_h and 0 <= x0 <= x1 < image_w):
        raise ShapeError(f"box {tuple(box)} outside image extents {(image_h, image_w)}")


def _sample_axis(lo: float, hi: float, grid: int, samples: int) -> np.ndarray:
    """grid*samples sample coordinates: regular sub-bin centers in [lo, hi)."""
    bin_len = (hi - lo) / grid
    g = np.arange(grid, dtype=np.float64)[:, None]
    s = np.arange(samples, dtype=np.float64)[None, :]
    return (lo + g * bin_len + (s + 0.5) * (bin_len / samples)).ravel()


@functools.lru_cache(maxsize=4096)
def _cell_weights(p0: int, p1: int, n: int, size: int, cfg: RoiConfig) -> np.ndarray:
    """Mean bilinear weight per cell of an n-cell axis over the samples in the
    pixel span [p0, p1+1) of a size-pixel image axis, scaled by n/size; the
    -0.5 shift maps the continuous frame onto cell centers. Cached per int
    span and read-only."""
    v = _sample_axis(p0 * n / size, (p1 + 1) * n / size, cfg.grid, cfg.samples) - 0.5
    i0, i1, w = _corner_weights(v, n)
    weights = (np.bincount(i0, weights=1.0 - w, minlength=n)
               + np.bincount(i1, weights=w, minlength=n)) / v.size
    weights.flags.writeable = False
    return weights


def _roi_weights(fm, box, image_extents, cfg: RoiConfig):
    """Row and column cell weights (ay, ax) of the inclusive pixel box on fm."""
    if fm.ndim != 3:
        raise ShapeError(f"expected h x w x D feature map, got shape {fm.shape}")
    _check_box(box, *image_extents)
    (y0, x0, y1, x1), (image_h, image_w) = map(int, box), map(int, image_extents)
    return (_cell_weights(y0, y1, fm.shape[0], image_h, cfg),
            _cell_weights(x0, x1, fm.shape[1], image_w, cfg))


def roi_feature(fm, box, image_extents, cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """Mean over the grid x grid bins of bin-averaged bilinear samples."""
    fm = np.asarray(fm, dtype=np.float64)
    ay, ax = _roi_weights(fm, box, image_extents, cfg)
    return np.einsum("i,ijd,j->d", ay, fm, ax)


def roi_feature_vjp(fm, box, image_extents, cfg: RoiConfig, grad_vector) -> np.ndarray:
    """Gradient of roi_feature . grad_vector w.r.t. fm; boxes get none."""
    fm = np.asarray(fm, dtype=np.float64)
    grad_vector = np.asarray(grad_vector, dtype=np.float64)
    ay, ax = _roi_weights(fm, box, image_extents, cfg)
    if grad_vector.shape != fm.shape[2:]:
        raise CacheMismatch(f"grad shape {grad_vector.shape} != {fm.shape[2:]}")
    return np.outer(ay, ax)[:, :, None] * grad_vector
