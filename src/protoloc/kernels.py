"""Dense float64 numeric kernels with exact adjoint (backward) passes.

Spatial layout is height x width x channels throughout. Every operation is
a pure function over numpy arrays and is deterministic: identical inputs
produce bit-identical outputs. The convolution, pooling and global-average
kernels take a batch with a leading N axis, the shape the encoder and the
episode code run them at; a single image is a batch of one. Every kernel
takes float64 arrays (and uint8 switches) in the one block geometry
EncoderArch fixes (an odd kernel, extents divisible by 2 per pooled block)
and checks none of it: EncoderArch, EncoderParams, forward_batch and
backward_batch do before a kernel runs, and propose_boxes before it
resizes. The convolution is same-size: stride 1, an odd square kernel,
zero padding k // 2. Its adjoint is one matmul per kernel tap on that
tap's shifted view of the padded input, added into the input gradient
(skipped on request); it builds no im2col columns. Max pooling is 2 x 2 over four strided views of the windows.
maxpool2d_switches returns relu of the pooled map, the encoder's block
output, and a one-byte switch per window: the scan index of its first
cell equal to a positive output, else 4 (a max of 0 or below, or NaN).
The training forward keeps the switches, not the conv output; the adjoint
reads only them and routes each window's gradient to its switch cell.
Bilinear resize takes a stack of planes and shares one clamped
corner-weight helper with RoIAlign.
"""

from __future__ import annotations

import functools

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation: raised by
    EncoderParams, forward_batch, sgd_step, propose_boxes and roi_feature."""


class CacheMismatch(ValueError):
    """Backward called with a cache that does not match the forward call."""


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _pad_same(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad height and width by k // 2 on each side."""
    p = k // 2
    if p == 0:
        return x
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x
    return xp


def _im2col(x_pad: np.ndarray, k: int) -> np.ndarray:
    """Window view (N, H, W, k, k, C) over the padded input, H = its height - k + 1."""
    n, hp, wp, c = x_pad.shape
    sn, sh, sw, sc = x_pad.strides
    shape = (n, hp - k + 1, wp - k + 1, k, k, c)
    strides = (sn, sh, sw, sh, sw, sc)
    return np.lib.stride_tricks.as_strided(x_pad, shape=shape, strides=strides)


def conv2d_batch(x, kernels, bias):
    """Same-size 2-D convolution (cross-correlation) over a batch, stride 1 and
    zero padding k // 2: N x H x W x Cin -> N x H x W x Cout."""
    n, h, w, cin = x.shape
    k, cout = kernels.shape[0], kernels.shape[3]
    cols = _im2col(_pad_same(x, k), k).reshape(n * h * w, k * k * cin)
    out = cols @ kernels.reshape(k * k * cin, cout)
    out += bias  # in place: the same elementwise add, one output-sized buffer fewer
    return out.reshape(n, h, w, cout)


def conv2d_vjp_batch(x, kernels, grad_out, need_input_grad=True):
    """Adjoint of conv2d_batch: returns (grad_x, grad_kernels, grad_bias).

    grad_bias sums over the batch; grad_x is None unless need_input_grad.
    Kernel tap (a, b) meets the shifted view xp[:, a:a + H, b:b + W] of the
    padded input: view^T @ grad_out is its weight gradient, and grad_out @ W[a, b]^T
    is added into the view's cells of the padded input gradient.
    """
    n, h, w, cin = x.shape
    k, cout = kernels.shape[0], kernels.shape[3]
    g = grad_out.reshape(n * h * w, cout)
    grad_bias = g.sum(axis=0)
    xp = _pad_same(x, k)
    grad_kernels = np.empty_like(kernels)
    gxp = np.zeros_like(xp) if need_input_grad else None
    for a in range(k):
        for b in range(k):
            cells = np.s_[:, a:a + h, b:b + w]
            grad_kernels[a, b] = xp[cells].reshape(-1, cin).T @ g
            if need_input_grad:
                gxp[cells] += (g @ kernels[a, b].T).reshape(n, h, w, cin)
    p = k // 2
    grad_x = gxp[:, p:p + h, p:p + w] if need_input_grad else None
    return grad_x, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# Max pooling
# ---------------------------------------------------------------------------

def _window_views(x):
    """The four strided views x[:, a::2, b::2] of the 2 x 2 windows, in row-major scan order."""
    return [x[:, a::2, b::2] for a in (0, 1) for b in (0, 1)]


def maxpool2d_batch(x):
    """Per-window max over non-overlapping 2 x 2 blocks."""
    return functools.reduce(np.maximum, _window_views(x))


def maxpool2d_switches(x):
    """(relu(maxpool2d_batch(x)), uint8 switch): the count of each window's leading
    cells unequal to its output, or 4 where the output is not > 0 (routes nothing)."""
    out = maxpool2d_batch(x)
    np.maximum(out, 0.0, out=out)
    v0, v1, v2, _ = _window_views(x)
    miss = v0 != out
    switch = miss.astype(np.uint8)
    miss &= v1 != out
    switch += miss
    miss &= v2 != out
    switch += miss
    switch[~(out > 0.0)] = 4
    return out, switch


def maxpool2d_vjp_batch(switch, grad_out):
    """Adjoint of relu(maxpool2d_batch(x)) given maxpool2d_switches' switch: each
    window's gradient goes to its switch cell (none for 4), every other cell gets +0.0."""
    grad_x = np.empty(np.multiply(grad_out.shape, (1, 2, 2, 1)))   # the views tile it
    for j, grad_view in enumerate(_window_views(grad_x)):
        grad_view[...] = np.where(switch == j, grad_out, 0.0)
    return grad_x


# ---------------------------------------------------------------------------
# Global average pooling
# ---------------------------------------------------------------------------

def global_avg_pool_batch(fms):
    """Per-channel mean over all spatial positions: N x h x w x D -> N x D."""
    return fms.mean(axis=(1, 2))


def gap_vjp_batch(fms_shape, g):
    """Spread each row of g / (h*w) uniformly over its spatial grid."""
    n, h, w, d = fms_shape
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
    identity. Columns are blended first, then rows, in place on the two
    gathered row sets: the same products and sums, in the same order, as
    gathering the four corners per pixel. Every step is elementwise, so
    each plane of a stack is bitwise its own resize.
    """
    h, w = m.shape[-2:]
    ri0, ri1, rw = _resize_axis(h, out_h)
    ci0, ci1, cw = _resize_axis(w, out_w)
    cols = m[..., ci0] * (1.0 - cw) + m[..., ci1] * cw
    out, bottom = cols.take(ri0, axis=-2), cols.take(ri1, axis=-2)
    out *= (1.0 - rw)[:, None]
    bottom *= rw[:, None]
    out += bottom
    return out
