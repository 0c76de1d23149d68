"""Dense float64 numeric kernels with exact adjoint (backward) passes.

Spatial layout is height x width x channels throughout. Every operation is
a pure function over numpy arrays and is deterministic: identical inputs
produce bit-identical outputs. The convolution, pooling and global-average
kernels take a batch with a leading N axis, the shape the encoder and the
episode code run them at; a single image is a batch of one.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def _conv_geometry(h, w, k, stride, pad):
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"pad must be >= 0, got {pad}")
    if k > h + 2 * pad or k > w + 2 * pad:
        raise ShapeError(f"kernel {k} exceeds padded extent ({h}+2*{pad}, {w}+2*{pad})")
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    return out_h, out_w


def _im2col(x_pad: np.ndarray, k: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Window view (N, out_h, out_w, k, k, C) over the padded input."""
    n, hp, wp, c = x_pad.shape
    sn, sh, sw, sc = x_pad.strides
    shape = (n, out_h, out_w, k, k, c)
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    return np.lib.stride_tricks.as_strided(x_pad, shape=shape, strides=strides)


def _check_conv_args(x, kernels, bias):
    if x.ndim != 4:
        raise ShapeError(f"expected N x H x W x C input, got shape {x.shape}")
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise ShapeError(f"expected k x k x Cin x Cout kernels, got shape {kernels.shape}")
    if kernels.shape[2] != x.shape[3]:
        raise ShapeError(
            f"kernel input channels {kernels.shape[2]} != input channels {x.shape[3]}")
    if bias.shape != (kernels.shape[3],):
        raise ShapeError(f"bias shape {bias.shape} != ({kernels.shape[3]},)")


def conv2d_batch(x, kernels, bias, stride=1, pad=0):
    """2-D convolution (cross-correlation) over a batch, zero padding:
    N x H x W x Cin -> N x H' x W' x Cout, H' = (H + 2*pad - k) // stride + 1."""
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    _check_conv_args(x, kernels, bias)
    n, h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    out_h, out_w = _conv_geometry(h, w, k, stride, pad)
    xp = _pad_hw(x, pad)
    cols = _im2col(xp, k, stride, out_h, out_w).reshape(n * out_h * out_w, k * k * cin)
    out = cols @ kernels.reshape(k * k * cin, cout) + bias
    return out.reshape(n, out_h, out_w, cout)


def conv2d_vjp_batch(x, kernels, stride, pad, grad_out, cols=None):
    """Adjoint of conv2d_batch: returns (grad_x, grad_kernels, grad_bias).

    grad_bias sums over the batch. `cols` may pass the forward's im2col
    buffer to skip recomputing it.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    n, h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    out_h, out_w = _conv_geometry(h, w, k, stride, pad)
    if grad_out.shape != (n, out_h, out_w, cout):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != {(n, out_h, out_w, cout)}")

    if cols is None:
        xp = _pad_hw(x, pad)
        cols = _im2col(xp, k, stride, out_h, out_w).reshape(n * out_h * out_w, k * k * cin)
    g = grad_out.reshape(n * out_h * out_w, cout)

    grad_bias = g.sum(axis=0)
    grad_kernels = (cols.T @ g).reshape(k, k, cin, cout)

    gcols = (g @ kernels.reshape(k * k * cin, cout).T)
    gcols = gcols.reshape(n, out_h, out_w, k, k, cin)
    hp, wp = h + 2 * pad, w + 2 * pad
    grad_xp = np.zeros((n, hp, wp, cin))
    for a in range(k):
        for b in range(k):
            grad_xp[:, a:a + out_h * stride:stride,
                    b:b + out_w * stride:stride, :] += gcols[:, :, :, a, b, :]
    grad_x = grad_xp[:, pad:pad + h, pad:pad + w, :] if pad else grad_xp
    return grad_x, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu(t):
    return np.maximum(np.asarray(t, dtype=np.float64), 0.0)


def relu_vjp(t, g):
    """Pass g where t > 0; subgradient at exactly 0 is defined as 0."""
    t = np.asarray(t, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if t.shape != g.shape:
        raise ShapeError(f"relu_vjp shapes differ: {t.shape} vs {g.shape}")
    return np.where(t > 0.0, g, 0.0)


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def _pool_windows(x, window):
    n, h, w, c = x.shape
    if h % window or w % window:
        raise ShapeError(f"extents {(h, w)} not divisible by pool window {window}")
    h2, w2 = h // window, w // window
    win = x.reshape(n, h2, window, w2, window, c)
    # window cells in row-major scan order on axis 3
    return win.transpose(0, 1, 3, 2, 4, 5).reshape(n, h2, w2, window * window, c)


def maxpool2d_batch(x, window=2):
    """Per-window max over non-overlapping window x window blocks."""
    x = np.asarray(x, dtype=np.float64)
    return _pool_windows(x, window).max(axis=3)


def maxpool2d_vjp_batch(x, grad_out, window=2):
    """Routes gradient to each window's argmax cell (first in scan order on ties)."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    win = _pool_windows(x, window)
    n, h2, w2, ww, c = win.shape
    if grad_out.shape != (n, h2, w2, c):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, h2, w2, c)}")
    # argmax returns the first max in scan order, which fixes tie routing
    idx = win.argmax(axis=3)
    grad_win = np.zeros_like(win)
    np.put_along_axis(grad_win, idx[:, :, :, None, :], grad_out[:, :, :, None, :], axis=3)
    grad_x = grad_win.reshape(n, h2, w2, window, window, c)
    grad_x = grad_x.transpose(0, 1, 3, 2, 4, 5).reshape(x.shape)
    return grad_x


# ---------------------------------------------------------------------------
# Global average pooling
# ---------------------------------------------------------------------------

def global_avg_pool_batch(fms):
    """Per-channel mean over all spatial positions: N x h x w x D -> N x D."""
    return np.asarray(fms, dtype=np.float64).mean(axis=(1, 2))


def gap_vjp_batch(fms_shape, g):
    """Spread each row of g / (h*w) uniformly over its spatial grid."""
    n, h, w, d = fms_shape
    g = np.asarray(g, dtype=np.float64)
    return np.broadcast_to((g / (h * w))[:, None, None, :], (n, h, w, d)).copy()


# ---------------------------------------------------------------------------
# Bilinear resize and RoIAlign corner weights
# ---------------------------------------------------------------------------

def _axis_weights(src: int, dst: int):
    """Half-pixel-center source coordinates for a dst-length axis, clamped."""
    s = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    s = np.clip(s, 0.0, src - 1.0)
    i0 = np.clip(np.floor(s).astype(np.int64), 0, max(src - 2, 0))
    w = s - i0
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, w


def bilinear_resize(m, out_h: int, out_w: int):
    """Resize an h x w map with the half-pixel-center convention.

    Source coordinate for output row y is (y + 0.5) * h / out_h - 0.5,
    clamped to [0, h - 1]; same for columns. Same-size resize is an exact
    identity.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected 2-D map, got shape {m.shape}")
    h, w = m.shape
    ri0, ri1, rw = _axis_weights(h, out_h)
    ci0, ci1, cw = _axis_weights(w, out_w)
    top = m[np.ix_(ri0, ci0)] * (1.0 - cw) + m[np.ix_(ri0, ci1)] * cw
    bot = m[np.ix_(ri1, ci0)] * (1.0 - cw) + m[np.ix_(ri1, ci1)] * cw
    return top * (1.0 - rw)[:, None] + bot * rw[:, None]


def _corner_weights(v, n: int):
    """Clamped floor/ceil indices and blend weight for coordinate(s) v on an n-cell axis."""
    vc = np.clip(v, 0.0, float(n - 1))
    i0 = np.clip(np.floor(vc).astype(np.int64), 0, max(n - 2, 0))
    w = vc - i0
    i1 = np.minimum(i0 + 1, n - 1)
    return i0, i1, w
