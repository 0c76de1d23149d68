"""Dense float64 numeric kernels with exact adjoint (backward) passes.

Spatial layout is height x width x channels throughout. Every operation is
a pure function over numpy arrays and is deterministic: identical inputs
produce bit-identical outputs. The convolution, pooling and global-average
kernels take a batch with a leading N axis, the shape the encoder and the
episode code run them at; a single image is a batch of one. The convolution
adjoint is one matmul per kernel tap on a strided view of the padded input,
scatter-added into the input gradient (skipped on request); it builds no
im2col columns. Max pooling and its adjoint share one helper, the
window x window strided views of the input. Their elementwise max is the
pooled map. The adjoint is that of relu on the pooled map, the encoder's
block output: it routes each gradient against that cached output, so the
backward pass recomputes no window max and runs no separate relu pass.
Bilinear resize takes a stack of planes and shares one clamped
corner-weight helper with RoIAlign.
"""

from __future__ import annotations

import functools

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


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
    out = cols @ kernels.reshape(k * k * cin, cout)
    out += bias  # in place: the same elementwise add, one output-sized buffer fewer
    return out.reshape(n, out_h, out_w, cout)


def conv2d_vjp_batch(x, kernels, stride, pad, grad_out, need_input_grad=True):
    """Adjoint of conv2d_batch: returns (grad_x, grad_kernels, grad_bias).

    grad_bias sums over the batch; grad_x is None unless need_input_grad.
    Kernel tap (a, b) meets the strided view xp[:, a::stride, b::stride] of the
    padded input: view^T @ grad_out is its weight gradient, and grad_out @ W[a, b]^T
    is scatter-added into the view's cells of the padded input gradient.
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

    g = grad_out.reshape(n * out_h * out_w, cout)
    grad_bias = g.sum(axis=0)
    xp = _pad_hw(x, pad)
    grad_kernels = np.empty_like(kernels)
    gxp = np.zeros_like(xp) if need_input_grad else None
    for a in range(k):
        for b in range(k):
            cells = np.s_[:, a:a + stride * out_h:stride, b:b + stride * out_w:stride]
            grad_kernels[a, b] = xp[cells].reshape(-1, cin).T @ g
            if need_input_grad:
                gxp[cells] += (g @ kernels[a, b].T).reshape(n, out_h, out_w, cin)
    grad_x = gxp[:, pad:pad + h, pad:pad + w] if need_input_grad else None
    return grad_x, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def _window_views(x, window):
    """The window x window strided views x[:, a::window, b::window], in row-major scan order."""
    _, h, w, _ = x.shape
    if h % window or w % window:
        raise ShapeError(f"extents {(h, w)} not divisible by pool window {window}")
    return [x[:, a::window, b::window] for a in range(window) for b in range(window)]


def maxpool2d_batch(x, window=2):
    """Per-window max over non-overlapping window x window blocks."""
    return functools.reduce(np.maximum, _window_views(np.asarray(x, dtype=np.float64), window))


def maxpool2d_vjp_batch(x, out, grad_out, window=2):
    """Adjoint of relu(maxpool2d_batch(x)) given its output out; recomputes no window max.

    Where out > 0 it is the window max, and the window's gradient goes to its
    first cell in scan order equal to out. Every other cell gets +0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(out, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    views = _window_views(x, window)
    if out.shape != views[0].shape or grad_out.shape != out.shape:
        raise ShapeError(f"out {out.shape} and grad_out {grad_out.shape} "
                         f"must both fit pooled shape {views[0].shape}")
    grad_x = np.empty_like(x)   # the views tile x, so every cell is written below
    unrouted = out > 0.0
    for i, view in enumerate(views):
        hit = unrouted & (view == out)
        grad_x[:, i // window::window, i % window::window] = np.where(hit, grad_out, 0.0)
        unrouted &= ~hit
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

def _corner_weights(v, n: int):
    """Clamped floor/ceil indices and blend weight for coordinate(s) v on an n-cell axis."""
    vc = np.clip(v, 0.0, float(n - 1))
    i0 = np.clip(np.floor(vc).astype(np.int64), 0, max(n - 2, 0))
    w = vc - i0
    i1 = np.minimum(i0 + 1, n - 1)
    return i0, i1, w


@functools.lru_cache(maxsize=64)
def _resize_axis(n: int, out: int):
    """Read-only (i0, i1, w) of the half-pixel-center resize of an n-cell axis to out cells."""
    arrays = _corner_weights((np.arange(out) + 0.5) * (n / out) - 0.5, n)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def bilinear_resize(m, out_h: int, out_w: int):
    """Resize each h x w plane of an (..., h, w) stack with the half-pixel-center convention.

    Source coordinate for output row y is (y + 0.5) * h / out_h - 0.5,
    clamped to [0, h - 1]; same for columns. Same-size resize is an exact
    identity. Columns are blended first, then rows: the same products and
    sums, in the same order, as gathering the four corners per pixel. Every
    step is elementwise, so each plane of a stack is bitwise its own resize.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ShapeError(f"expected (..., h, w) map, got shape {m.shape}")
    h, w = m.shape[-2:]
    ri0, ri1, rw = _resize_axis(h, out_h)
    ci0, ci1, cw = _resize_axis(w, out_w)
    cols = m[..., ci0] * (1.0 - cw) + m[..., ci1] * cw
    return cols[..., ri0, :] * (1.0 - rw)[:, None] + cols[..., ri1, :] * rw[:, None]
