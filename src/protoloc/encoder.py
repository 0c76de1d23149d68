"""Convolutional embedding network with a manual backward pass.

The network is a stack of conv -> maxpool(2 x 2) -> relu blocks. The
convolution keeps the map's size: stride 1 and zero padding k // 2 for the
odd kernel size k that EncoderArch requires. relu is monotone, so a block
equals conv -> relu -> maxpool exactly, with relu on the pooled grid. The
last block's output is the feature map; its global average pool is the
embedding. Parameters live in one flat float64 vector with a deterministic
layout, which keeps checkpoints and finite-difference checks simple.

A batch runs in chunks of CHUNK images: the whole block stack runs over
images[i:i + CHUNK] before the next chunk starts, so a chunk's activations
are still in cache when the next block reads them. A row's feature map
therefore never depends on how many images share its batch. The forward
cache keeps, per chunk, only what the backward pass reads: each block's
input and max-pool switches (one byte per pooled cell, see kernels); a
chunk's map goes straight into the batch's. The backward pass walks the
same chunks in order, makes one max-pool adjoint call per block, routed
by its switches, and never forms the gradient w.r.t. the images. The
parameter gradient is the first chunk's gradient plus each later chunk's,
in chunk order, so a batch of at most CHUNK images sums nothing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .kernels import CacheMismatch, ShapeError
from .tns_io import read_tns, replacing, write_tns


CHUNK = 16   # images per pass of the block stack


@dataclass(frozen=True)
class EncoderArch:
    """Its fields but input_channels are RunConfig's ``arch.*`` keys, defaulted there."""
    blocks: int
    channels: tuple
    kernel: int
    input_size: int
    input_channels: int = 3

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if len(self.channels) != self.blocks:
            raise ValueError(f"channels {self.channels} must list {self.blocks} entries")
        if any(c < 1 for c in self.channels):
            raise ValueError(f"channels {self.channels} must all be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.input_size % (2 ** self.blocks):
            raise ValueError(
                f"input_size {self.input_size} not divisible by 2^{self.blocks}")

    @property
    def embed_dim(self) -> int:
        return self.channels[-1]

    @property
    def map_shape(self) -> tuple:
        """(h, w, D) of one image's feature map."""
        side = self.input_size >> self.blocks
        return side, side, self.embed_dim


def _block_shapes(arch: EncoderArch):
    """(kernel shape, bias length) per block, in the flat vector's order."""
    cins = (arch.input_channels,) + arch.channels[:-1]
    k = arch.kernel
    return [((k, k, cin, cout), cout) for cin, cout in zip(cins, arch.channels)]


def param_count(arch: EncoderArch) -> int:
    return sum(int(np.prod(kshape)) + cout for kshape, cout in _block_shapes(arch))


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
        """Per-block (kernels, bias) views into the flat vector (no copies),
        laid out block by block, kernels then bias."""
        views, offset = [], 0
        for kshape, cout in _block_shapes(self.arch):
            n = int(np.prod(kshape))
            views.append((self.flat[offset:offset + n].reshape(kshape),
                          self.flat[offset + n:offset + n + cout]))
            offset += n + cout
        return views


def init_params(arch: EncoderArch, seed: int) -> EncoderParams:
    """He-uniform kernels: uniform(-a, a) with a = sqrt(6 / (k*k*Cin)); biases 0."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(arch, np.zeros(param_count(arch)))
    for w, _ in params.block_views():
        k, _, cin, _ = w.shape
        a = np.sqrt(6.0 / (k * k * cin))
        w[...] = rng.uniform(-a, a, size=w.shape)
    return params


@dataclass
class ForwardCache:
    """Activations retained for the backward pass of one forward call."""
    arch: EncoderArch
    fm_shape: tuple          # feature map shape of the whole batch, (N, h, w, D)
    chunks: list             # per chunk: (acts, switches), block b's input and switches at b


def forward_batch(params: EncoderParams, images: np.ndarray, keep_cache: bool = True):
    """Run the block stack over a batch of images, CHUNK images at a time:
    (N, S, S, C) -> (N, h, w, D)."""
    arch = params.arch
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[1:] != (arch.input_size, arch.input_size,
                                                arch.input_channels):
        raise ShapeError(
            f"image batch shape {images.shape} does not match arch input "
            f"{(arch.input_size, arch.input_size, arch.input_channels)}")
    fms = np.empty((len(images), *arch.map_shape))
    views = params.block_views()
    chunks = []
    for i in range(0, len(images), CHUNK):
        x = images[i:i + CHUNK]
        acts, switches = [], []
        for w, b in views:
            t = kernels.conv2d_batch(x, w, b)
            if keep_cache:
                acts.append(x)
                x, switch = kernels.maxpool2d_switches(t)
                switches.append(switch)
            else:
                x = np.maximum(kernels.maxpool2d_batch(t), 0.0)
        fms[i:i + CHUNK] = x
        if keep_cache:
            chunks.append((acts, switches))
    return fms, ForwardCache(arch, fms.shape, chunks) if keep_cache else None


def backward_batch(params: EncoderParams, cache: ForwardCache,
                   grad_fms: np.ndarray) -> np.ndarray:
    """Adjoint of forward_batch w.r.t. params; gradients sum over the batch,
    chunk by chunk in order."""
    arch = params.arch
    if cache is None or cache.arch != arch:
        raise CacheMismatch("cache does not match encoder architecture")
    grad_fms = np.asarray(grad_fms, dtype=np.float64)
    if grad_fms.shape != cache.fm_shape:
        raise CacheMismatch(
            f"grad shape {grad_fms.shape} != cached feature map shape {cache.fm_shape}")

    views = params.block_views()
    grad = np.zeros_like(params.flat)   # an empty batch has no chunk
    for c, (acts, switches) in enumerate(cache.chunks):
        g = grad_fms[c * CHUNK:(c + 1) * CHUNK]
        parts = []
        for blk in reversed(range(arch.blocks)):
            g = kernels.maxpool2d_vjp_batch(switches[blk], g)
            g, gw, gb = kernels.conv2d_vjp_batch(acts[blk], views[blk][0], g,
                                                 need_input_grad=blk > 0)
            parts[:0] = [gw.ravel(), gb]
        chunk_grad = np.concatenate(parts)
        # the first chunk's gradient is the total, not added to +0.0, which
        # would turn its -0.0 entries into +0.0
        grad = chunk_grad if c == 0 else grad + chunk_grad
    return grad


def sgd_step(params: EncoderParams, grads: np.ndarray, lr: float) -> EncoderParams:
    """Pure SGD update: returns params - lr * grads."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.flat.shape:
        raise ShapeError(f"grad length {grads.shape} != params length {params.flat.shape}")
    return EncoderParams(params.arch, params.flat - lr * grads)


def checkpoint_sidecar(path) -> Path:
    """The JSON sidecar beside a checkpoint; ValueError if it is the checkpoint."""
    path = Path(path)
    if path.suffix == ".json":
        raise ValueError(f"checkpoint path {path} must not end in .json, its sidecar's suffix")
    return path.with_suffix(".json")


def save_checkpoint(path, params: EncoderParams, seed: int) -> None:
    """Write the flat vector as TNS1 plus a JSON sidecar with arch fields and seed.
    Both go to temporary files first, so a failed write leaves the old pair."""
    sidecar = checkpoint_sidecar(path)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {"arch": asdict(params.arch), "seed": int(seed)}
    with replacing(path) as tmp, replacing(sidecar) as tmp_json:
        write_tns(tmp, params.flat)
        tmp_json.write_text(json.dumps(manifest, indent=2) + "\n")


def load_checkpoint(path):
    """Read a checkpoint pair; returns (EncoderParams, seed). A sidecar that
    does not describe the vector raises a ValueError naming both files."""
    path = Path(path)
    flat = read_tns(path)
    sidecar = checkpoint_sidecar(path)
    try:
        manifest = json.loads(sidecar.read_text())
        return EncoderParams(EncoderArch(**manifest["arch"]), flat), int(manifest["seed"])
    except KeyError as err:
        raise ValueError(f"checkpoint {path}: sidecar {sidecar} lacks {err}") from err
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint {path}: sidecar {sidecar}: {err}") from err
