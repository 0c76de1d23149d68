"""The softmax cross-entropy (shared with pretraining), the distance-logit
loss, the nearest-representation classifier, the episode head, and the
episode loss with exact gradients through the whole episode graph, all as
matrix code: class c's representation is row c.

``episode_head`` is the one place that splits an episode's feature maps
into supports and queries and builds its class representations, for the
episode loss and for evaluation alike. Logits are negated squared
Euclidean distances divided by a temperature; the base loss is mean
cross-entropy against prototypes (per-class means of support embeddings),
the RoI loss is the same form against refined representations (per-class
means of RoI features, built by ``refined_reps``), and the episode loss
is base + lambda * RoI. At lambda = 0, the base loss, no box is proposed
and no RoI feature taken; otherwise the supports are boxed, pooled and sent
their RoI gradient in one call each. Gradients flow through query
embeddings, support embeddings (via the prototype mean) and the RoIAlign
sampling weights; proposed box coordinates are treated as constants. Its
two terms and the support boxes come back with the loss, as ``EpisodeTerms``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import encoder as enc
from . import kernels, roi
from .config import RunConfig
from .dataset import Episode
# propose_box is unused here; bench/spans.py traces it as an episodic name
from .localization import propose_box, propose_boxes


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


def refined_reps(s_fms, protos, k, tau, cfg: RunConfig):
    """((N, D) refined representations, (N*K, 4) int64 support boxes, their
    (ay, ax) weights for ``roi.roi_feature_vjp``): ``propose_boxes`` boxes
    support map i against prototype i // k at threshold tau, and class c's
    representation is the mean of its supports' ``roi.roi_feature`` rows;
    the image size, ``connectivity``, ``roi_grid`` and ``roi_samples`` are cfg's."""
    size = cfg.arch_input_size
    boxes = propose_boxes(s_fms, np.repeat(protos, k, axis=0), tau, size, size, cfg.connectivity)
    feats, weights = roi.roi_feature(s_fms, boxes, (size, size), cfg.roi_grid, cfg.roi_samples)
    return feats.reshape(-1, k, feats.shape[1]).mean(axis=1), boxes, weights


def episode_head(fms, episode: Episode, tau, cfg: RunConfig, refine):
    """(query embeddings, (N, D) prototypes, refined) of an episode's maps,
    in ``Episode.ids`` order: embeddings are global average pools, prototype
    c is the mean of class c's K support embeddings, and refined is
    ``refined_reps``' (reps, boxes, weights) at tau if refine, else None."""
    k, ns = episode.k_shot, len(episode.support_ids)
    emb = kernels.global_avg_pool_batch(fms)
    protos = emb[:ns].reshape(episode.n_way, k, -1).mean(axis=1)
    refined = refined_reps(fms[:ns], protos, k, tau, cfg) if refine else None
    return emb[ns:], protos, refined


class EpisodeTerms(NamedTuple):
    """Base loss, RoI loss and (N*K, 4) support boxes; the last two None at lambda_roi = 0."""
    base: float
    roi: float | None
    support_boxes: np.ndarray | None


def episode_loss_and_gradient(params: enc.EncoderParams, episode: Episode,
                              cfg: RunConfig, lambda_roi: float):
    """(loss, its exact parameter gradient, ``EpisodeTerms``) for one episode.

    The loss is base + lambda_roi * RoI at temperature ``cfg.temperature``;
    the RoI term runs only when lambda_roi != 0, on the refined representations
    ``episode_head`` builds at ``cfg.tau_train``. Box coordinates are
    stop-gradient: only the bilinear sampling weights carry gradient into the maps.
    """
    k, ns = episode.k_shot, len(episode.support_ids)
    labels = episode.query_labels

    fms, cache = enc.forward_batch(params, episode.split.images[episode.ids])
    q_emb, protos, refined = episode_head(fms, episode, cfg.tau_train, cfg, lambda_roi != 0.0)
    loss, dq, dproto = distance_logit_loss(q_emb, labels, protos, cfg.temperature)
    terms = EpisodeTerms(loss, None, None)

    if refined is not None:
        reps, boxes, weights = refined
        loss_r, dq_r, dref = distance_logit_loss(q_emb, labels, reps, cfg.temperature)
        terms = EpisodeTerms(loss, loss_r, boxes)
        loss = loss + lambda_roi * loss_r
        dq = dq + lambda_roi * dq_r

    grad_fms = kernels.gap_vjp_batch(
        fms.shape, np.concatenate([np.repeat(dproto / k, k, axis=0), dq]))
    if refined is not None:
        grad_fms[:ns] += roi.roi_feature_vjp(weights, np.repeat(lambda_roi * dref / k, k, axis=0))
    return loss, enc.backward_batch(params, cache, grad_fms), terms
