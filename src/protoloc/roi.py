"""RoIAlign feature extraction with its exact adjoint.

A box proposed in image coordinates is scaled into feature-map coordinates
without quantization, split into a regular grid of bins, and each bin is
averaged over bilinear samples taken at regular sub-bin centers. The mean
over bins is the RoI feature vector. Training and evaluation average a
class's RoI features into its refined representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import CacheMismatch
from .kernels import ShapeError, _corner_weights
from .localization import BoundingBox


@dataclass(frozen=True)
class RoiConfig:
    grid: int = 3       # output bins per axis
    samples: int = 2    # sample points per bin axis

    def __post_init__(self):
        if self.grid < 1 or self.samples < 1:
            raise ValueError(f"grid and samples must be >= 1, got {self}")


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


def _sample_grid(fm_hw, box, image_extents, cfg: RoiConfig):
    """Continuous sampling coordinates in the feature map's cell-center frame.

    The inclusive pixel box converts to the half-open continuous box
    [y0, y1+1) x [x0, x1+1); image coordinates scale into feature
    coordinates by (h/H, w/W); the half-pixel shift maps the continuous
    frame onto integer cell centers.
    """
    h, w = fm_hw
    image_h, image_w = image_extents
    y0, x0, y1, x1 = box
    ys = _sample_axis(y0 * h / image_h, (y1 + 1) * h / image_h, cfg.grid, cfg.samples) - 0.5
    xs = _sample_axis(x0 * w / image_w, (x1 + 1) * w / image_w, cfg.grid, cfg.samples) - 0.5
    return ys, xs


def roi_align(fm: np.ndarray, box, image_extents, cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """Pool the box into a grid x grid x D tensor of bin-averaged bilinear samples."""
    fm = np.asarray(fm, dtype=np.float64)
    if fm.ndim != 3:
        raise ShapeError(f"expected h x w x D feature map, got shape {fm.shape}")
    h, w, d = fm.shape
    _check_box(box, *image_extents)
    ys, xs = _sample_grid((h, w), box, image_extents, cfg)
    yi0, yi1, wy = _corner_weights(ys, h)
    xi0, xi1, wx = _corner_weights(xs, w)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    vals = ((1.0 - wy) * (1.0 - wx) * fm[np.ix_(yi0, xi0)]
            + (1.0 - wy) * wx * fm[np.ix_(yi0, xi1)]
            + wy * (1.0 - wx) * fm[np.ix_(yi1, xi0)]
            + wy * wx * fm[np.ix_(yi1, xi1)])
    g, s = cfg.grid, cfg.samples
    return vals.reshape(g, s, g, s, d).mean(axis=(1, 3))


def roi_align_vjp(fm, box, image_extents, cfg: RoiConfig, grad_output) -> np.ndarray:
    """Scatter bin gradients back through the bilinear sample weights onto fm.

    Box coordinates receive no gradient.
    """
    fm = np.asarray(fm, dtype=np.float64)
    h, w, d = fm.shape
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != (cfg.grid, cfg.grid, d):
        raise CacheMismatch(
            f"grad shape {grad_output.shape} != {(cfg.grid, cfg.grid, d)}")
    _check_box(box, *image_extents)
    ys, xs = _sample_grid((h, w), box, image_extents, cfg)
    yi0, yi1, wy = _corner_weights(ys, h)
    xi0, xi1, wx = _corner_weights(xs, w)
    # each sample point in bin (gy, gx) receives grad_output[gy, gx] / samples^2
    g, s = cfg.grid, cfg.samples
    gpt = np.repeat(np.repeat(grad_output, s, axis=0), s, axis=1) / (s * s)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    grad_fm = np.zeros((h, w, d))
    np.add.at(grad_fm, np.ix_(yi0, xi0), (1.0 - wy) * (1.0 - wx) * gpt)
    np.add.at(grad_fm, np.ix_(yi0, xi1), (1.0 - wy) * wx * gpt)
    np.add.at(grad_fm, np.ix_(yi1, xi0), wy * (1.0 - wx) * gpt)
    np.add.at(grad_fm, np.ix_(yi1, xi1), wy * wx * gpt)
    return grad_fm


def roi_feature(fm, box, image_extents, cfg: RoiConfig = RoiConfig()) -> np.ndarray:
    """Mean over the grid x grid bins of roi_align: the RoI feature vector."""
    return roi_align(fm, box, image_extents, cfg).mean(axis=(0, 1))


def roi_feature_vjp(fm, box, image_extents, cfg: RoiConfig, grad_vector) -> np.ndarray:
    grad_vector = np.asarray(grad_vector, dtype=np.float64)
    bins = np.broadcast_to(grad_vector / (cfg.grid * cfg.grid),
                           (cfg.grid, cfg.grid, grad_vector.shape[0]))
    return roi_align_vjp(fm, box, image_extents, cfg, bins)

