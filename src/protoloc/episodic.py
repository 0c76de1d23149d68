"""Episodes, the softmax cross-entropy (shared with pretraining), the
distance-logit loss, the nearest-representation classifier, and the
episode loss with exact gradients through the whole episode graph, all as
matrix code: class c's representation is row c.

Logits are negated squared Euclidean distances divided by a temperature;
the base loss is mean cross-entropy against prototypes (per-class means of
support embeddings), the RoI loss is the same form against refined
representations (per-class means of RoI features), and the combined loss
adds them with a balancing weight. Gradients flow through query
embeddings, support embeddings (via the prototype mean) and, in refined
mode, through the RoIAlign sampling weights; proposed box coordinates are
treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import kernels, roi
from .kernels import ShapeError
from .localization import propose_box


class EmptyClass(ValueError):
    """An episode has no classes or no support items per class."""


class NonPositiveTemperature(ValueError):
    pass


class NegativeLambda(ValueError):
    pass


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 64.0
    lambda_roi: float = 1.0   # 1-shot convention; 0.5 is the 5-shot default

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise NonPositiveTemperature(f"temperature must be > 0, got {self.temperature}")
        if self.lambda_roi < 0.0:
            raise NegativeLambda(f"lambda_roi must be >= 0, got {self.lambda_roi}")


@dataclass
class Episode:
    """One N-way K-shot task. Support items are stored grouped by class
    label (class c occupies rows c*K .. (c+1)*K-1)."""
    n_way: int
    k_shot: int
    support_images: np.ndarray   # (N*K, H, W, 3)
    support_labels: np.ndarray   # (N*K,)
    support_boxes: np.ndarray    # (N*K, 4) ground-truth boxes
    query_images: np.ndarray     # (N*Q, H, W, 3)
    query_labels: np.ndarray     # (N*Q,)
    query_boxes: np.ndarray      # (N*Q, 4)
    split: str = ""
    support_ids: np.ndarray | None = None   # (N*K,) split rows the items came from
    query_ids: np.ndarray | None = None     # (N*Q,)

    def __post_init__(self):
        n, k = self.n_way, self.k_shot
        if n < 1 or k < 1:
            raise EmptyClass(f"need n_way >= 1 and k_shot >= 1, got {n}-way {k}-shot")
        self.support_labels = np.asarray(self.support_labels, dtype=np.int64)
        self.query_labels = np.asarray(self.query_labels, dtype=np.int64)
        if self.support_labels.shape != (n * k,):
            raise ShapeError(f"expected {n * k} support labels, got {self.support_labels.shape}")
        expected = np.repeat(np.arange(n), k)
        if not np.array_equal(self.support_labels, expected):
            raise ValueError("support items must be grouped by class label 0..N-1")
        nq = self.query_labels.size
        if nq == 0 or nq % n:
            raise ValueError(f"query count {nq} is not a positive multiple of {n}")
        counts = np.bincount(self.query_labels, minlength=n)
        if not np.all(counts == nq // n):
            raise ValueError("queries must be balanced across classes")

    @property
    def queries_per_class(self) -> int:
        return self.query_labels.size // self.n_way


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy of (Q, N) logits against (Q,) class
    indices. Returns (loss, d loss / d logits)."""
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    rows = np.arange(logits.shape[0])
    loss = float((lse[:, 0] - logits[rows, labels]).mean())
    dlogits = np.exp(logits - lse)
    dlogits[rows, labels] -= 1.0
    dlogits /= logits.shape[0]
    return loss, dlogits


def distance_logit_loss(embeds, labels, reps, temperature):
    """Mean cross-entropy of the distance logit -||e - rep_c||^2 / temperature.

    embeds is (Q, D), labels (Q,) class indices into the rows of reps
    (N, D). Returns (loss, d loss / d embeds, d loss / d reps).
    """
    diff = embeds[:, None, :] - reps[None, :, :]         # (Q, N, D)
    d2 = (diff * diff).sum(axis=2)
    loss, dlogit = softmax_cross_entropy(-d2 / temperature, labels)
    dd2 = -dlogit / temperature                          # dL/d d2, (Q, N)
    dembeds = (dd2[:, :, None] * 2.0 * diff).sum(axis=1)
    dreps = -(dd2[:, :, None] * 2.0 * diff).sum(axis=0)
    return loss, dembeds, dreps


def nearest_class(embeds, reps) -> np.ndarray:
    """Row index of the nearest representation in squared Euclidean
    distance, per query embedding; ties go to the lowest class index."""
    d2 = ((embeds[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def episode_loss_and_gradient(params: enc.EncoderParams, episode: Episode,
                              reps_mode: str, loss_cfg: LossConfig, *,
                              tau: float = 0.5,
                              roi_cfg: roi.RoiConfig = roi.RoiConfig(),
                              connectivity: int = 4):
    """Loss value and its exact parameter gradient for one episode.

    reps_mode "prototype" optimizes the base loss; "refined" optimizes the
    combined loss, proposing boxes at threshold tau and building refined
    representations from RoI features. Box coordinates are stop-gradient:
    only the bilinear sampling weights carry gradient into the feature maps.
    """
    if reps_mode not in ("prototype", "refined"):
        raise ValueError(f"unknown reps_mode {reps_mode!r}")
    arch = params.arch
    n, k = episode.n_way, episode.k_shot
    ns = n * k
    image_hw = (arch.input_size, arch.input_size)

    images = np.concatenate([episode.support_images, episode.query_images], axis=0)
    fms, cache = enc.forward_batch(params, images)
    _, h, w, d = fms.shape
    s_fms = fms[:ns]
    s_emb = kernels.global_avg_pool_batch(s_fms)
    q_emb = kernels.global_avg_pool_batch(fms[ns:])

    protos = s_emb.reshape(n, k, d).mean(axis=1)
    loss_b, dq, dproto = distance_logit_loss(q_emb, episode.query_labels, protos,
                                             loss_cfg.temperature)
    loss = loss_b
    ds_emb = np.repeat(dproto / k, k, axis=0)            # (N*K, D)
    grad_fms = np.empty_like(fms)
    grad_fms[:ns] = kernels.gap_vjp_batch(s_fms.shape, ds_emb)

    if reps_mode == "refined" and loss_cfg.lambda_roi != 0.0:
        lam = loss_cfg.lambda_roi
        boxes = [propose_box(s_fms[i], protos[episode.support_labels[i]],
                             tau, *image_hw, connectivity)
                 for i in range(ns)]
        feats = np.stack([roi.roi_feature(s_fms[i], boxes[i], image_hw, roi_cfg)
                          for i in range(ns)])
        refined = feats.reshape(n, k, d).mean(axis=1)
        loss_r, dq_r, dref = distance_logit_loss(q_emb, episode.query_labels,
                                                 refined, loss_cfg.temperature)
        loss = loss_b + lam * loss_r
        dq = dq + lam * dq_r
        for i in range(ns):
            dfeat = lam * dref[episode.support_labels[i]] / k
            grad_fms[i] += roi.roi_feature_vjp(s_fms[i], boxes[i], image_hw,
                                               roi_cfg, dfeat)

    grad_fms[ns:] = kernels.gap_vjp_batch(fms[ns:].shape, dq)
    grad_flat = enc.backward_batch(params, cache, grad_fms)
    return loss, grad_flat
