"""Run orchestration: pretraining, two-phase episodic training, evaluation
with confidence intervals, localization benchmarking, and report emission.

Everything is seeded. Per-task and per-episode generators derive from
(seed, stream, index), so results are byte-reproducible and independent of
evaluation parallelism: tasks may run on any number of workers, but their
results are reduced in task-index order.
"""

from __future__ import annotations

import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import kernels, localization
from .config import RunConfig
from .dataset import DatasetSpec, InsufficientData, load_dataset, sample_episode
from .episodic import LossConfig, episode_loss_and_gradient, nearest_class
from .localization import BoundingBox, iou, propose_box
from .roi import RoiConfig, roi_feature

# RNG stream tags; episodic training shares one stream across phases so a
# zero-weight RoI phase replays the base phase's episode sequence exactly.
_HEAD_STREAM = 1
_SHUFFLE_STREAM = 2
_EPISODE_STREAM = 3
_EVAL_STREAM = 4


class UnknownId(KeyError):
    """An image id outside the requested split."""


class ArchMismatch(ValueError):
    """The config's encoder architecture differs from the checkpoint's."""


def _check_arch(cfg: RunConfig, params: enc.EncoderParams) -> None:
    if cfg.arch != params.arch:
        raise ArchMismatch(f"config arch {cfg.arch} != checkpoint arch {params.arch}")


def dataset_spec_from_config(cfg: RunConfig) -> DatasetSpec:
    return DatasetSpec(
        image_size=cfg.image_size,
        per_class_count=cfg.per_class_count,
        distractors_min=cfg.distractors_min,
        distractors_max=cfg.distractors_max,
        background=cfg.background,
    )


# ---------------------------------------------------------------------------
# Pretraining: encoder + throwaway linear head on the train split
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    params: enc.EncoderParams
    head_weights: np.ndarray   # (D, train classes)
    head_bias: np.ndarray
    losses: list               # per-batch cross-entropy


def _head_forward(embeds, weights, bias, labels):
    scores = embeds @ weights + bias
    m = scores.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True))
    rows = np.arange(scores.shape[0])
    loss = float((lse[:, 0] - scores[rows, labels]).mean())
    dscores = np.exp(scores - lse)
    dscores[rows, labels] -= 1.0
    dscores /= scores.shape[0]
    return loss, dscores


def pretrain(cfg: RunConfig, data=None) -> PretrainResult:
    """Train encoder plus a single-layer classifier over all train-split
    classes with cross-entropy; the head is discarded by the caller."""
    if data is None:
        _, splits = load_dataset(cfg.data_dir)
        data = (splits["train"].images, splits["train"].labels)
    images, labels = data
    if images.shape[0] == 0:
        raise InsufficientData("train split is empty")
    classes = np.unique(labels)
    y = np.searchsorted(classes, labels)

    arch = cfg.arch
    params = enc.init_params(arch, cfg.seed)
    d = arch.embed_dim
    a = np.sqrt(6.0 / d)
    head_rng = np.random.default_rng((cfg.seed, _HEAD_STREAM))
    weights = head_rng.uniform(-a, a, size=(d, classes.size))
    bias = np.zeros(classes.size)

    losses = []
    n = images.shape[0]
    for epoch in range(cfg.pretrain_epochs):
        order = np.random.default_rng((cfg.seed, _SHUFFLE_STREAM, epoch)).permutation(n)
        for start in range(0, n, cfg.pretrain_batch):
            idx = order[start:start + cfg.pretrain_batch]
            fms, cache = enc.forward_batch(params, images[idx])
            embeds = kernels.global_avg_pool_batch(fms)
            loss, dscores = _head_forward(embeds, weights, bias, y[idx])
            grad_w = embeds.T @ dscores
            grad_b = dscores.sum(axis=0)
            dembeds = dscores @ weights.T
            grad_flat = enc.backward_batch(params, cache,
                                           kernels.gap_vjp_batch(fms.shape, dembeds))
            params = enc.sgd_step(params, grad_flat, cfg.pretrain_lr)
            weights = weights - cfg.pretrain_lr * grad_w
            bias = bias - cfg.pretrain_lr * grad_b
            losses.append(loss)
    return PretrainResult(params, weights, bias, losses)


# ---------------------------------------------------------------------------
# Episodic training
# ---------------------------------------------------------------------------

def train_episodic(cfg: RunConfig, params: enc.EncoderParams, phase: str,
                   split=None):
    """Seeded episodic SGD; phase "base" uses prototype loss, "ours" adds the
    RoI term with boxes proposed at the training threshold. Returns
    (params, per-episode losses)."""
    if phase not in ("base", "ours"):
        raise ValueError(f"unknown phase {phase!r}")
    if split is None:
        _, splits = load_dataset(cfg.data_dir)
        split = splits["train"]
    epochs = cfg.epochs_base if phase == "base" else cfg.epochs_ours
    mode = "prototype" if phase == "base" else "refined"
    loss_cfg = LossConfig(cfg.temperature, cfg.lambda_roi_resolved)
    roi_cfg = RoiConfig(cfg.roi_grid, cfg.roi_samples)

    losses = []
    for epoch in range(epochs):
        for j in range(cfg.episodes_per_epoch):
            rng = np.random.default_rng((cfg.seed, _EPISODE_STREAM, epoch, j))
            episode = sample_episode(split, cfg.n_way, cfg.k_shot, cfg.queries, rng)
            loss, grad = episode_loss_and_gradient(
                params, episode, mode, loss_cfg,
                tau=cfg.tau_train_resolved, roi_cfg=roi_cfg,
                connectivity=cfg.connectivity)
            params = enc.sgd_step(params, grad, cfg.lr)
            losses.append(loss)
    return params, losses


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    seed: int
    mode: str
    n_tasks: int
    mean_accuracy: float
    ci95: float
    mean_iou: float
    corloc_at_50: float
    task_accuracies: list
    config: dict
    wall_time_s: float = 0.0   # diagnostic only; never serialized


def _eval_task(cfg, params, split, task_index, mode):
    rng = np.random.default_rng((cfg.seed, _EVAL_STREAM, task_index))
    episode = sample_episode(split, cfg.n_way, cfg.k_shot, cfg.queries, rng)
    n, k = episode.n_way, episode.k_shot
    ns = n * k
    image_hw = (cfg.arch_input_size, cfg.arch_input_size)
    roi_cfg = RoiConfig(cfg.roi_grid, cfg.roi_samples)

    fms, _ = enc.forward_batch(params, np.concatenate(
        [episode.support_images, episode.query_images], axis=0), keep_cache=False)
    d = fms.shape[3]
    s_fms, q_fms = fms[:ns], fms[ns:]
    s_emb = kernels.global_avg_pool_batch(s_fms)
    q_emb = kernels.global_avg_pool_batch(q_fms)
    protos = s_emb.reshape(n, k, d).mean(axis=1)

    if mode == "refined":
        feats = np.empty((ns, d))
        for i in range(ns):
            box = propose_box(s_fms[i], protos[episode.support_labels[i]],
                              cfg.tau_eval, *image_hw, cfg.connectivity)
            feats[i] = roi_feature(s_fms[i], box, image_hw, roi_cfg)
        reps = feats.reshape(n, k, d).mean(axis=1)
    else:
        reps = protos

    pred = nearest_class(q_emb, reps)
    accuracy = float((pred == episode.query_labels).mean())

    iou_sum = 0.0
    hits = 0
    for i in range(q_emb.shape[0]):
        # module lookup, so tracing tells query boxes from support boxes
        box = localization.propose_box(q_fms[i], reps[pred[i]], cfg.tau_eval,
                                       *image_hw, cfg.connectivity)
        v = iou(box, BoundingBox(*episode.query_boxes[i]))
        iou_sum += v
        hits += v >= 0.5
    return accuracy, iou_sum, hits, q_emb.shape[0]


def evaluate(cfg: RunConfig, params: enc.EncoderParams, reps_mode: str,
             split=None) -> EvalReport:
    """Run seeded test tasks; aggregates accuracy with its 95% confidence
    interval plus query-localization IoU and CorLoc@0.5."""
    if reps_mode not in ("prototype", "refined"):
        raise ValueError(f"unknown reps_mode {reps_mode!r}")
    _check_arch(cfg, params)
    if split is None:
        _, splits = load_dataset(cfg.data_dir)
        split = splits["test"]

    start = time.perf_counter()
    indices = range(cfg.tasks)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(
                lambda t: _eval_task(cfg, params, split, t, reps_mode),
                indices))
    else:
        results = [_eval_task(cfg, params, split, t, reps_mode)
                   for t in indices]
    wall = time.perf_counter() - start

    accuracies = [r[0] for r in results]
    total_iou = sum(r[1] for r in results)
    total_hits = sum(r[2] for r in results)
    total_q = sum(r[3] for r in results)
    mean_acc = float(np.mean(accuracies))
    if len(accuracies) > 1:
        ci95 = float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(len(accuracies)))
    else:
        ci95 = 0.0
    return EvalReport(
        seed=cfg.seed,
        mode=reps_mode,
        n_tasks=cfg.tasks,
        mean_accuracy=mean_acc,
        ci95=ci95,
        mean_iou=total_iou / total_q,
        corloc_at_50=total_hits / total_q,
        task_accuracies=accuracies,
        config=cfg.echo(),
        wall_time_s=wall,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _json_fragment(value, out: io.StringIO):
    if isinstance(value, bool):
        out.write("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"cannot serialize non-finite real {v}")
        out.write(f"{v:.17g}")
    elif isinstance(value, str):
        out.write(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        out.write("[")
        for i, item in enumerate(value):
            if i:
                out.write(", ")
            _json_fragment(item, out)
        out.write("]")
    elif isinstance(value, dict):
        out.write("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.write(", ")
            out.write(json.dumps(str(key)) + ": ")
            _json_fragment(item, out)
        out.write("}")
    elif value is None:
        out.write("null")
    else:
        raise TypeError(f"cannot serialize {type(value)}")


def render_report(report: EvalReport) -> str:
    """JSON text with stable key order and reals at 17 significant digits.

    Wall time stays out of the payload: reports must be byte-identical
    across equal-seed runs.
    """
    payload = {
        "seed": report.seed,
        "mode": report.mode,
        "n_tasks": report.n_tasks,
        "mean_accuracy": report.mean_accuracy,
        "ci95": report.ci95,
        "mean_iou": report.mean_iou,
        "corloc_at_50": report.corloc_at_50,
        "task_accuracies": report.task_accuracies,
        "config": report.config,
    }
    out = io.StringIO()
    _json_fragment(payload, out)
    return out.getvalue() + "\n"


def report_emit(report: EvalReport, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(render_report(report))


# ---------------------------------------------------------------------------
# Localization overlays
# ---------------------------------------------------------------------------

def write_ppm(path, image01: np.ndarray) -> None:
    """Binary P6 PPM from an H x W x 3 float image in [0, 1]."""
    h, w, _ = image01.shape
    data = np.clip(np.round(image01 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def draw_box_border(image01: np.ndarray, box: BoundingBox,
                    color=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Copy of the image with a 1-pixel border along the box perimeter."""
    img = image01.copy()
    y0, x0, y1, x1 = box
    img[y0, x0:x1 + 1] = color
    img[y1, x0:x1 + 1] = color
    img[y0:y1 + 1, x0] = color
    img[y0:y1 + 1, x1] = color
    return img


def localize_cmd(cfg: RunConfig, params: enc.EncoderParams, ids,
                 split_name: str = "test", out_dir="overlays", splits=None):
    """Self-embedding localization for the given split image ids.

    Each image acts as its own one-shot support: the box is proposed from
    the similarity map against the image's own embedding. Writes a red-box
    PPM overlay per id plus a ``boxes.txt`` listing of
    ``id y0 x0 y1 x1 iou`` lines; returns the records.
    """
    _check_arch(cfg, params)
    if splits is None:
        _, splits = load_dataset(cfg.data_dir)
    if split_name not in splits:
        raise UnknownId(f"unknown split {split_name!r}")
    split = splits[split_name]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    image_hw = (cfg.arch_input_size, cfg.arch_input_size)

    records = []
    lines = []
    for image_id in ids:
        if not 0 <= image_id < split.images.shape[0]:
            raise UnknownId(f"id {image_id} outside split {split_name!r} "
                            f"(size {split.images.shape[0]})")
        image = split.images[image_id]
        fms, _ = enc.forward_batch(params, image[None], keep_cache=False)
        rep = kernels.global_avg_pool_batch(fms)[0]
        box = propose_box(fms[0], rep, cfg.tau_eval, *image_hw, cfg.connectivity)
        gt = BoundingBox(*split.boxes[image_id])
        score = iou(box, gt)
        overlay = draw_box_border(image, box)
        write_ppm(out / f"overlay_{split_name}_{image_id:05d}.ppm", overlay)
        lines.append(f"{image_id} {box.y0} {box.x0} {box.y1} {box.x1} {score:.17g}")
        records.append({"id": image_id, "box": box, "iou": score})
    (out / "boxes.txt").write_text("\n".join(lines) + "\n")
    return records
