"""RoIAlign feature extraction with its exact adjoint, over (N, h, w, D) maps.

A box proposed in image coordinates is scaled into feature-map coordinates
without quantization and split into a regular grid of bins; each bin
averages bilinear samples at regular sub-bin centers, and the RoI feature is
the mean over bins. Bilinear sampling is separable, so that mean is the
weighted sum ay^T FM ax of per-row and per-column cell weights; each row of
a stack is bitwise the one-map form (a two-step einsum or a broadcast sum is
not). The adjoint, outer(ay, ax) times the incoming gradient, takes the
weights the forward call returned and reads no map or box. The bins per
axis (``grid``) and samples per bin axis (``samples``) are plain ints: the
run config's ``roi.grid`` and ``roi.samples``, which only it checks.
"""

from __future__ import annotations

import functools

import numpy as np

from .encoder import CacheMismatch
from .kernels import ShapeError, _corner_weights


@functools.lru_cache(maxsize=4096)
def _cell_weights(p0: int, p1: int, n: int, size: int, grid: int, samples: int) -> np.ndarray:
    """Mean bilinear weight per cell of an n-cell axis over the samples in the
    pixel span [p0, p1+1) of a size-pixel image axis, scaled by n/size: the
    regular sub-bin centers of grid bins, shifted by -0.5 onto cell centers.
    Cached per int span and read-only."""
    lo, hi = p0 * n / size, (p1 + 1) * n / size
    bin_len = (hi - lo) / grid
    g = np.arange(grid, dtype=np.float64)[:, None]
    s = np.arange(samples, dtype=np.float64)[None, :]
    v = (lo + g * bin_len + (s + 0.5) * (bin_len / samples)).ravel() - 0.5
    i0, i1, w = _corner_weights(v, n)
    weights = (np.bincount(i0, weights=1.0 - w, minlength=n)
               + np.bincount(i1, weights=w, minlength=n)) / v.size
    weights.flags.writeable = False
    return weights


def roi_feature(fms, boxes, image_extents, grid: int, samples: int):
    """(N, D) means over the grid x grid bins of bin-averaged bilinear samples
    of each (N, h, w, D) map in its row of the (N, 4) inclusive pixel boxes,
    and the maps' (N, h) row and (N, w) column cell weights (ay, ax), read
    from the cache once every box is checked."""
    fms, boxes = np.asarray(fms, dtype=np.float64), np.asarray(boxes)
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
    ay = np.array([_cell_weights(y0, y1, h, image_h, grid, samples) for y0, _, y1, _ in rows])
    ax = np.array([_cell_weights(x0, x1, w, image_w, grid, samples) for _, x0, _, x1 in rows])
    return np.einsum("ni,nijd,nj->nd", ay, fms, ax), (ay, ax)


def roi_feature_vjp(weights, grads) -> np.ndarray:
    """Gradient of the sum of roi_feature's rows dotted with the (N, D) grads,
    w.r.t. the (N, h, w, D) maps, from the (ay, ax) weights that call returned."""
    (ay, ax), grads = weights, np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2 or len(grads) != len(ay):
        raise CacheMismatch(f"grads shape {grads.shape} is not ({len(ay)}, D)")
    return (ay[:, :, None] * ax[:, None, :])[..., None] * grads[:, None, None, :]
