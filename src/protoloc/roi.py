"""RoIAlign feature extraction with its exact adjoint, over (N, h, w, D) maps.

A box proposed in image coordinates is scaled into feature-map coordinates
without quantization and split into a regular grid of bins; each bin
averages bilinear samples at regular sub-bin centers, and the RoI feature is
the mean over bins. Bilinear sampling is separable, so that mean is the
weighted sum ay^T FM ax of per-row and per-column cell weights, and the
adjoint is outer(ay, ax) times the incoming gradient; each row of a stack is
bitwise the one-map form (a two-step einsum or a broadcast sum is not). A
class's refined representation is the mean of its supports' RoI features.
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


@functools.lru_cache(maxsize=4096)
def _cell_weights(p0: int, p1: int, n: int, size: int, cfg: RoiConfig) -> np.ndarray:
    """Mean bilinear weight per cell of an n-cell axis over the samples in the
    pixel span [p0, p1+1) of a size-pixel image axis, scaled by n/size: the
    regular sub-bin centers of grid bins, shifted by -0.5 onto cell centers.
    Cached per int span and read-only."""
    lo, hi = p0 * n / size, (p1 + 1) * n / size
    bin_len = (hi - lo) / cfg.grid
    g = np.arange(cfg.grid, dtype=np.float64)[:, None]
    s = np.arange(cfg.samples, dtype=np.float64)[None, :]
    v = (lo + g * bin_len + (s + 0.5) * (bin_len / cfg.samples)).ravel() - 0.5
    i0, i1, w = _corner_weights(v, n)
    weights = (np.bincount(i0, weights=1.0 - w, minlength=n)
               + np.bincount(i1, weights=w, minlength=n)) / v.size
    weights.flags.writeable = False
    return weights


def _roi_weights(fms, boxes, image_extents, cfg: RoiConfig):
    """(N, h) row and (N, w) column cell weights of each map's row of the
    (N, 4) inclusive pixel boxes, read from the cache once every box is checked."""
    boxes = np.asarray(boxes)
    if fms.ndim != 4 or boxes.shape != (fms.shape[0], 4) or boxes.dtype.kind not in "iu":
        raise ShapeError(f"maps {fms.shape} and {boxes.dtype} boxes {boxes.shape} are not "
                         f"an (N, h, w, D) stack and its (N, 4) integer boxes")
    image_h, image_w = size = [int(v) for v in image_extents]
    lo, hi = boxes[:, :2], boxes[:, 2:]
    bad = np.flatnonzero(~((0 <= lo) & (lo <= hi) & (hi < size)).all(axis=1))
    if bad.size:
        raise ShapeError(f"box row {bad[0]} {tuple(boxes[bad[0]].tolist())} "
                         f"outside image extents {(image_h, image_w)}")
    (h, w), rows = fms.shape[1:3], boxes.tolist()
    return (np.array([_cell_weights(y0, y1, h, image_h, cfg) for y0, _, y1, _ in rows]),
            np.array([_cell_weights(x0, x1, w, image_w, cfg) for _, x0, _, x1 in rows]))


def roi_feature(fms, boxes, image_extents, cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """(N, D) means over the grid x grid bins of bin-averaged bilinear
    samples, of each (N, h, w, D) map in its row of the (N, 4) boxes."""
    fms = np.asarray(fms, dtype=np.float64)
    ay, ax = _roi_weights(fms, boxes, image_extents, cfg)
    return np.einsum("ni,nijd,nj->nd", ay, fms, ax)


def roi_feature_vjp(fms, boxes, image_extents, cfg: RoiConfig, grads) -> np.ndarray:
    """Gradient of the sum of roi_feature's rows dotted with the (N, D) grads,
    w.r.t. the (N, h, w, D) maps; boxes get none."""
    fms, grads = np.asarray(fms, dtype=np.float64), np.asarray(grads, dtype=np.float64)
    ay, ax = _roi_weights(fms, boxes, image_extents, cfg)
    if grads.shape != (fms.shape[0], fms.shape[3]):
        raise CacheMismatch(f"grads shape {grads.shape} != {(fms.shape[0], fms.shape[3])}")
    return (ay[:, :, None] * ax[:, None, :])[..., None] * grads[:, None, None, :]
