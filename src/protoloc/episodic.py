"""Episodes, the softmax cross-entropy (shared with pretraining), the
distance-logit loss, the nearest-representation classifier, and the
episode loss with exact gradients through the whole episode graph, all as
matrix code: class c's representation is row c.

An episode is rows of its split: labels and boxes follow from the row ids
and are never stored, and no image is copied out of the split.

Logits are negated squared Euclidean distances divided by a temperature;
the base loss is mean cross-entropy against prototypes (per-class means of
support embeddings), the RoI loss is the same form against refined
representations (per-class means of RoI features; ``refined_reps`` builds
them for this loss and for refined evaluation alike), and the episode loss
is base + lambda * RoI. At lambda = 0, the base loss, no box is proposed
and no RoI feature taken; otherwise the supports are boxed, pooled and sent
their RoI gradient in one call each. Gradients flow through query
embeddings, support embeddings (via the prototype mean) and the RoIAlign
sampling weights; proposed box coordinates are treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from . import kernels, roi
from .kernels import ShapeError
# propose_box is unused here; bench/spans.py traces it as an episodic name
from .localization import propose_box, propose_boxes

if TYPE_CHECKING:
    from .dataset import SplitData


class EmptyClass(ValueError):
    """An episode has no classes or no support items per class."""


class NonPositiveTemperature(ValueError):
    """The loss temperature is not a finite positive number."""


class NegativeLambda(ValueError):
    """The RoI-loss weight is not a finite non-negative number."""


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 64.0
    lambda_roi: float = 1.0   # 1-shot convention; 0.5 is the 5-shot default

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise NonPositiveTemperature(
                f"temperature must be finite and > 0, got {self.temperature}")
        if not (np.isfinite(self.lambda_roi) and self.lambda_roi >= 0.0):
            raise NegativeLambda(f"lambda_roi must be finite and >= 0, got {self.lambda_roi}")


@dataclass(frozen=True, eq=False)
class Episode:
    """One N-way K-shot task as rows of ``split``. Supports are grouped by
    class: class c is support_ids[c*K:(c+1)*K], so support i has class
    i // K; the queries come Q per class in the same way."""
    split: SplitData
    n_way: int
    k_shot: int
    support_ids: np.ndarray   # (N*K,) split rows
    query_ids: np.ndarray     # (N*Q,)

    def __post_init__(self):
        n, k = self.n_way, self.k_shot
        if n < 1 or k < 1:
            raise EmptyClass(f"need n_way >= 1 and k_shot >= 1, got {n}-way {k}-shot")
        if len(self.support_ids) != n * k:
            raise ShapeError(f"expected {n * k} support rows, got {len(self.support_ids)}")
        nq = len(self.query_ids)
        if nq == 0 or nq % n:
            raise ValueError(f"query count {nq} is not a positive multiple of {n}")

    @property
    def ids(self) -> np.ndarray:
        """Support rows, then query rows."""
        return np.concatenate([self.support_ids, self.query_ids])

    @property
    def queries_per_class(self) -> int:
        return len(self.query_ids) // self.n_way

    @property
    def query_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_way), self.queries_per_class)

    @property
    def support_boxes(self) -> np.ndarray:
        return self.split.boxes[self.support_ids]

    @property
    def query_boxes(self) -> np.ndarray:
        return self.split.boxes[self.query_ids]


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
    ddiff = dd2[:, :, None] * 2.0 * diff                 # dL/d diff, (Q, N, D)
    return loss, ddiff.sum(axis=1), -ddiff.sum(axis=0)


def nearest_class(embeds, reps) -> np.ndarray:
    """Row index of the nearest representation in squared Euclidean
    distance, per query embedding; ties go to the lowest class index."""
    d2 = ((embeds[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def refined_reps(s_fms, protos, k, tau, image_hw, roi_cfg, connectivity):
    """((N, D) refined representations, (N*K, 4) int64 support boxes, their
    (ay, ax) weights for ``roi.roi_feature_vjp``): ``propose_boxes`` boxes
    support map i against prototype i // k at threshold tau, and class c's
    representation is the mean of its supports' ``roi.roi_feature`` rows."""
    boxes = propose_boxes(s_fms, np.repeat(protos, k, axis=0), tau, *image_hw, connectivity)
    feats, weights = roi.roi_feature(s_fms, boxes, image_hw, roi_cfg)
    return feats.reshape(-1, k, feats.shape[1]).mean(axis=1), boxes, weights


def episode_loss_and_gradient(params: enc.EncoderParams, episode: Episode,
                              loss_cfg: LossConfig, *,
                              tau: float = 0.5,
                              roi_cfg: roi.RoiConfig = roi.RoiConfig(),
                              connectivity: int = 4):
    """Loss value and its exact parameter gradient for one episode.

    The loss is base + lambda * RoI with lambda = loss_cfg.lambda_roi. The
    RoI term proposes boxes at threshold tau and builds refined
    representations from RoI features; it runs only when lambda != 0. Box
    coordinates are stop-gradient: only the bilinear sampling weights carry
    gradient into the feature maps.
    """
    n, k = episode.n_way, episode.k_shot
    ns = n * k
    labels = episode.query_labels
    image_hw = (params.arch.input_size,) * 2

    fms, cache = enc.forward_batch(params, episode.split.images[episode.ids])
    emb = kernels.global_avg_pool_batch(fms)
    q_emb = emb[ns:]
    protos = emb[:ns].reshape(n, k, -1).mean(axis=1)
    loss, dq, dproto = distance_logit_loss(q_emb, labels, protos, loss_cfg.temperature)

    lam = loss_cfg.lambda_roi
    if lam != 0.0:
        refined, _, weights = refined_reps(fms[:ns], protos, k, tau, image_hw, roi_cfg,
                                           connectivity)
        loss_r, dq_r, dref = distance_logit_loss(q_emb, labels, refined,
                                                 loss_cfg.temperature)
        loss = loss + lam * loss_r
        dq = dq + lam * dq_r

    grad_fms = kernels.gap_vjp_batch(
        fms.shape, np.concatenate([np.repeat(dproto / k, k, axis=0), dq]))
    if lam != 0.0:
        grad_fms[:ns] += roi.roi_feature_vjp(weights, np.repeat(lam * dref / k, k, axis=0))
    grad_flat = enc.backward_batch(params, cache, grad_fms)
    return loss, grad_flat
