"""Convolutional embedding network with a manual backward pass.

The network is a stack of conv(stride 1, pad (k-1)/2) -> relu -> maxpool(2)
blocks. The final block's post-pool activation is the feature map; global
average pooling of that map is the embedding. Parameters live in a single
flat float64 vector with a deterministic layout, which keeps checkpoints
and finite-difference checks simple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .kernels import ShapeError
from .tns_io import read_tns, write_tns


class CacheMismatch(ValueError):
    """Backward called with a cache that does not match the forward call."""


@dataclass(frozen=True)
class EncoderArch:
    blocks: int = 3
    channels: tuple = (8, 16, 32)
    kernel: int = 3
    input_size: int = 32
    input_channels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if len(self.channels) != self.blocks:
            raise ValueError(f"channels {self.channels} must list {self.blocks} entries")
        if any(c < 1 for c in self.channels):
            raise ValueError("channel counts must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.input_size % (2 ** self.blocks):
            raise ValueError(
                f"input_size {self.input_size} not divisible by 2^{self.blocks}")

    @property
    def feature_hw(self) -> int:
        return self.input_size // (2 ** self.blocks)

    @property
    def embed_dim(self) -> int:
        return self.channels[-1]

    @property
    def pad(self) -> int:
        return (self.kernel - 1) // 2

    def to_dict(self) -> dict:
        return {
            "blocks": self.blocks,
            "channels": list(self.channels),
            "kernel": self.kernel,
            "input_size": self.input_size,
            "input_channels": self.input_channels,
        }

    @staticmethod
    def from_dict(d: dict) -> "EncoderArch":
        return EncoderArch(
            blocks=int(d["blocks"]),
            channels=tuple(d["channels"]),
            kernel=int(d["kernel"]),
            input_size=int(d["input_size"]),
            input_channels=int(d["input_channels"]),
        )


def param_layout(arch: EncoderArch):
    """Stable (offset, shape) table: per block, kernels then bias."""
    layout = []
    offset = 0
    cin = arch.input_channels
    k = arch.kernel
    for cout in arch.channels:
        kshape = (k, k, cin, cout)
        layout.append(("kernels", offset, kshape))
        offset += k * k * cin * cout
        layout.append(("bias", offset, (cout,)))
        offset += cout
        cin = cout
    return layout, offset


def param_count(arch: EncoderArch) -> int:
    return param_layout(arch)[1]


@dataclass
class EncoderParams:
    """Flat float64 parameter vector plus the architecture that shapes it."""
    arch: EncoderArch
    flat: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1 or self.flat.size != param_count(self.arch):
            raise ShapeError(
                f"flat vector length {self.flat.size} != {param_count(self.arch)}")

    def block_views(self):
        """Per-block (kernels, bias) views into the flat vector (no copies)."""
        layout, _ = param_layout(self.arch)
        views = []
        for i in range(0, len(layout), 2):
            _, koff, kshape = layout[i]
            _, boff, bshape = layout[i + 1]
            w = self.flat[koff:koff + int(np.prod(kshape))].reshape(kshape)
            b = self.flat[boff:boff + bshape[0]]
            views.append((w, b))
        return views


def init_params(arch: EncoderArch, seed: int) -> EncoderParams:
    """He-uniform kernels: uniform(-a, a) with a = sqrt(6 / (k*k*Cin)); biases 0."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(param_count(arch))
    layout, _ = param_layout(arch)
    for kind, offset, shape in layout:
        if kind == "kernels":
            k, _, cin, _ = shape
            a = np.sqrt(6.0 / (k * k * cin))
            n = int(np.prod(shape))
            flat[offset:offset + n] = rng.uniform(-a, a, size=n)
    return EncoderParams(arch, flat)


@dataclass
class ForwardCache:
    """Per-block activations retained for the backward pass of one forward call."""
    arch: EncoderArch
    block_inputs: list       # conv input per block, (N, H, W, Cin)
    pre_relu: list           # conv output per block, (N, H, W, Cout)
    post_relu: list          # relu output (pool input) per block
    fm_shape: tuple          # (N, h, w, D)


def forward_batch(params: EncoderParams, images: np.ndarray, keep_cache: bool = True):
    """Run the block stack over a batch of images: (N, S, S, C) -> (N, h, w, D)."""
    arch = params.arch
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1:] != (arch.input_size, arch.input_size,
                                                arch.input_channels):
        raise ShapeError(
            f"image batch shape {images.shape} does not match arch input "
            f"{(arch.input_size, arch.input_size, arch.input_channels)}")
    x = images
    block_inputs, pre_relu, post_relu = [], [], []
    for w, b in params.block_views():
        pre = kernels.conv2d_batch(x, w, b, stride=1, pad=arch.pad)
        act = kernels.relu(pre)
        if keep_cache:
            block_inputs.append(x)
            pre_relu.append(pre)
            post_relu.append(act)
        x = kernels.maxpool2d_batch(act, window=2)
    cache = ForwardCache(arch, block_inputs, pre_relu, post_relu, x.shape) if keep_cache else None
    return x, cache


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   grad_fms: np.ndarray) -> np.ndarray:
    """Adjoint of forward_batch w.r.t. params; gradients sum over the batch."""
    arch = params.arch
    if cache is None or cache.arch != arch:
        raise CacheMismatch("cache does not match encoder architecture")
    if len(cache.block_inputs) != arch.blocks:
        raise CacheMismatch("cache holds a different number of blocks")
    grad_fms = np.asarray(grad_fms, dtype=np.float64)
    if grad_fms.shape != cache.fm_shape:
        raise CacheMismatch(
            f"grad shape {grad_fms.shape} != cached feature map shape {cache.fm_shape}")

    grad_flat = np.zeros_like(params.flat)
    layout, _ = param_layout(arch)
    views = params.block_views()
    g = grad_fms
    for blk in reversed(range(arch.blocks)):
        w, _ = views[blk]
        g = kernels.maxpool2d_vjp_batch(cache.post_relu[blk], g, window=2)
        g = kernels.relu_vjp(cache.pre_relu[blk], g)
        g, gw, gb = kernels.conv2d_vjp_batch(cache.block_inputs[blk], w,
                                             stride=1, pad=arch.pad, grad_out=g)
        _, koff, kshape = layout[2 * blk]
        _, boff, bshape = layout[2 * blk + 1]
        grad_flat[koff:koff + int(np.prod(kshape))] = gw.ravel()
        grad_flat[boff:boff + bshape[0]] = gb
    return grad_flat


def sgd_step(params: EncoderParams, grads: np.ndarray, lr: float) -> EncoderParams:
    """Pure SGD update: returns params - lr * grads."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.flat.shape:
        raise ShapeError(f"grad length {grads.shape} != params length {params.flat.shape}")
    return EncoderParams(params.arch, params.flat - lr * grads)


def save_checkpoint(path, params: EncoderParams, seed: int) -> None:
    """Write the flat vector as TNS1 plus a JSON sidecar with arch fields and seed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_tns(path, params.flat)
    manifest = {"arch": params.arch.to_dict(), "seed": int(seed)}
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_checkpoint(path):
    """Read a checkpoint pair; returns (EncoderParams, seed)."""
    path = Path(path)
    flat = read_tns(path)
    manifest = json.loads(path.with_suffix(".json").read_text())
    arch = EncoderArch.from_dict(manifest["arch"])
    return EncoderParams(arch, flat), int(manifest["seed"])
