"""Run orchestration: pretraining, two-phase episodic training, evaluation
with confidence intervals, localization benchmarking, and report emission.

The entry points use the components the config built and checked
(``cfg.arch``, ``cfg.spec``, ``cfg.roi``) and check only the arch against the
checkpoint's and the spec against the dataset manifest's. Everything is
seeded. Per-task and per-episode generators derive from (seed, stream,
index), so results are byte-reproducible. Evaluation runs its tasks one
after another on one thread, in task-index order.

An episode is rows of its split, never copies. An image's feature map
does not depend on the task that draws it, nor on the batch it is encoded
in, so one ``evaluate`` call encodes each test image at most once: tasks
gather their maps by row (``Episode.ids``) from a cache that is filled on
first request.

Pretraining returns the encoder and its losses; its linear head stays
internal. The base training phase is the episode loss at lambda = 0.

A refined eval task builds its class representations with
``episodic.refined_reps``, as the RoI loss trains: its supports are boxed
and pooled in one call each. Every task boxes all its query maps against
their predicted classes in one ``propose_boxes`` call and scores the (N, 4)
stack against the queries' ground-truth rows in one ``iou`` call;
``localize_cmd`` proposes and scores every box in one call each.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import kernels
from .config import RunConfig
from .dataset import SPLITS, DatasetSpec, load_dataset, sample_episode
from .episodic import (LossConfig, episode_loss_and_gradient, nearest_class,
                       refined_reps, softmax_cross_entropy)
# propose_box and roi_feature are unused here; bench/spans.py traces them as harness names
from .localization import BoundingBox, DegenerateRepresentation, iou, propose_box, propose_boxes
from .roi import roi_feature
from .tns_io import replacing

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


class SpecMismatch(ValueError):
    """The dataset manifest's spec differs from the one the config describes."""


class NonFiniteLoss(FloatingPointError):
    """A batch's or episode's loss or gradient is not finite; no step is taken on it."""


class DeadEncoder(FloatingPointError):
    """A batch's or episode's encoder gradient is identically zero."""


def _step(params, grad, lr, loss, where):
    """One SGD step; NonFiniteLoss or DeadEncoder, naming where, on a bad loss or gradient."""
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise NonFiniteLoss(f"{where}: loss {loss}")
    if not grad.any():
        raise DeadEncoder(f"{where}: zero gradient at loss {loss}")
    return enc.sgd_step(params, grad, lr)


def _check_runs(params, images, where):
    """NonFiniteLoss, naming where, if params map split row 0 to a non-finite map."""
    fms, _ = enc.forward_batch(params, images[:1], keep_cache=False)
    if not np.isfinite(fms).all():
        raise NonFiniteLoss(f"{where}: the stepped encoder maps split row 0 to a non-finite map")


def _check_arch(cfg: RunConfig, params: enc.EncoderParams) -> None:
    if cfg.arch != params.arch:
        raise ArchMismatch(f"config arch {cfg.arch} != checkpoint arch {params.arch}")


def dataset_spec_from_config(cfg: RunConfig) -> DatasetSpec:
    """``cfg.spec``; only bench/workloads.py still calls this."""
    return cfg.spec


def _load_splits(cfg: RunConfig) -> dict:
    """Load cfg.data_dir; SpecMismatch if its manifest's spec differs from cfg.spec."""
    wanted = cfg.spec.to_dict()
    manifest, splits = load_dataset(cfg.data_dir)
    found = manifest["spec"]
    if found != wanted:
        diff = {k: (found.get(k), wanted.get(k)) for k in {**wanted, **found}
                if found.get(k) != wanted.get(k)}
        raise SpecMismatch(f"{cfg.data_dir}: manifest spec differs from config "
                           f"(key: (manifest, config)): {diff}")
    return splits


# ---------------------------------------------------------------------------
# Pretraining: encoder + throwaway linear head on the train split
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    params: enc.EncoderParams
    losses: list               # per-batch cross-entropy


def pretrain(cfg: RunConfig) -> PretrainResult:
    """Train encoder plus a single-layer classifier over all train-split classes
    with cross-entropy, checked as train_episodic is; the head is discarded."""
    train = _load_splits(cfg)["train"]
    images, labels = train.images, train.labels
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
        for b, start in enumerate(range(0, n, cfg.pretrain_batch)):
            idx = order[start:start + cfg.pretrain_batch]
            fms, cache = enc.forward_batch(params, images[idx])
            embeds = kernels.global_avg_pool_batch(fms)
            loss, dscores = softmax_cross_entropy(embeds @ weights + bias, y[idx])
            grad_w = embeds.T @ dscores
            grad_b = dscores.sum(axis=0)
            dembeds = dscores @ weights.T
            grad_flat = enc.backward_batch(params, cache,
                                           kernels.gap_vjp_batch(fms.shape, dembeds))
            where = f"pretrain, epoch {epoch}, batch {b} (index {len(losses)})"
            params = _step(params, grad_flat, cfg.pretrain_lr, loss, where)
            weights = weights - cfg.pretrain_lr * grad_w
            bias = bias - cfg.pretrain_lr * grad_b
            losses.append(loss)
    _check_runs(params, images, where)
    return PretrainResult(params, losses)


# ---------------------------------------------------------------------------
# Episodic training
# ---------------------------------------------------------------------------

def train_episodic(cfg: RunConfig, params: enc.EncoderParams, phase: str,
                   split=None):
    """Seeded episodic SGD; phase "base" is the episode loss at lambda = 0, "ours"
    adds the RoI term with boxes proposed at the training threshold. Returns
    (params, per-episode losses); raises ArchMismatch before any work, NonFiniteLoss
    before stepping on a non-finite loss or gradient or after a last step that maps
    split row 0 to inf or NaN, DeadEncoder on a zero gradient, and an episode's
    DegenerateRepresentation again with _step's where text."""
    if phase not in ("base", "ours"):
        raise ValueError(f"unknown phase {phase!r}")
    _check_arch(cfg, params)
    if split is None:
        split = _load_splits(cfg)["train"]
    epochs = cfg.epochs_base if phase == "base" else cfg.epochs_ours
    loss_cfg = LossConfig(cfg.temperature, cfg.lambda_roi if phase == "ours" else 0.0)
    boxing = dict(tau=cfg.tau_train, roi_cfg=cfg.roi, connectivity=cfg.connectivity)

    losses = []
    for epoch in range(epochs):
        for j in range(cfg.episodes_per_epoch):
            rng = np.random.default_rng((cfg.seed, _EPISODE_STREAM, epoch, j))
            episode = sample_episode(split, cfg.n_way, cfg.k_shot, cfg.queries, rng)
            where = f"{phase} phase, epoch {epoch}, episode {j} (index {len(losses)})"
            try:
                loss, grad = episode_loss_and_gradient(params, episode, loss_cfg, **boxing)
            except DegenerateRepresentation as err:
                raise DegenerateRepresentation(f"{where}: {err}") from err
            params = _step(params, grad, cfg.lr, loss, where)
            losses.append(loss)
    _check_runs(params, split.images, where)
    return params, losses


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """``ci95`` is 1.96 standard errors over task draws alone: every task draws
    from one fixed test split, so it leaves out how accuracy moves across datasets."""
    seed: int
    mode: str
    n_tasks: int
    mean_accuracy: float
    ci95: float
    mean_iou: float
    corloc_at_50: float
    task_accuracies: list
    config: dict


def _split_features(params, images):
    """fetch(ids) -> feature maps of those split rows. A row is encoded on
    its first request, in one forward batch with the request's other new
    rows, and never again."""
    maps = np.empty((len(images), *params.arch.map_shape))
    encoded = np.zeros(len(images), dtype=bool)

    def fetch(ids):
        new = ids[~encoded[ids]]
        if new.size:
            fms, _ = enc.forward_batch(params, images[new], keep_cache=False)
            maps[new] = fms
            encoded[new] = True
        return maps[ids]
    return fetch


def _eval_task(cfg, features, split, task_index, mode):
    rng = np.random.default_rng((cfg.seed, _EVAL_STREAM, task_index))
    episode = sample_episode(split, cfg.n_way, cfg.k_shot, cfg.queries, rng)
    n, k = episode.n_way, episode.k_shot
    ns = n * k
    image_hw = (cfg.arch_input_size, cfg.arch_input_size)

    fms = features(episode.ids)
    emb = kernels.global_avg_pool_batch(fms)
    q_fms, q_emb = fms[ns:], emb[ns:]
    reps = protos = emb[:ns].reshape(n, k, -1).mean(axis=1)
    if mode == "refined":
        reps, *_ = refined_reps(fms[:ns], protos, k, cfg.tau_eval, image_hw,
                                cfg.roi, cfg.connectivity)

    pred = nearest_class(q_emb, reps)
    accuracy = float((pred == episode.query_labels).mean())

    boxes = propose_boxes(q_fms, reps[pred], cfg.tau_eval, *image_hw, cfg.connectivity)
    ious = iou(boxes, episode.query_boxes)
    # summed in order, as a pairwise ious.sum() would change mean_iou's low bits
    return accuracy, sum(ious.tolist(), 0.0), int((ious >= 0.5).sum()), len(ious)


def evaluate(cfg: RunConfig, params: enc.EncoderParams, reps_mode: str,
             split=None) -> EvalReport:
    """Run seeded test tasks; aggregates accuracy with its 95% confidence
    interval plus query-localization IoU and CorLoc@0.5."""
    if reps_mode not in ("prototype", "refined"):
        raise ValueError(f"unknown reps_mode {reps_mode!r}")
    _check_arch(cfg, params)
    if split is None:
        split = _load_splits(cfg)["test"]

    features = _split_features(params, split.images)
    results = [_eval_task(cfg, features, split, t, reps_mode) for t in range(cfg.tasks)]

    accuracies, iou_sums, hits, counts = (list(column) for column in zip(*results))
    mean_acc = float(np.mean(accuracies))
    ci95 = (float(1.96 * np.std(accuracies, ddof=1) / np.sqrt(len(accuracies)))
            if len(accuracies) > 1 else 0.0)
    return EvalReport(
        seed=cfg.seed,
        mode=reps_mode,
        n_tasks=cfg.tasks,
        mean_accuracy=mean_acc,
        ci95=ci95,
        mean_iou=sum(iou_sums) / sum(counts),
        corloc_at_50=sum(hits) / sum(counts),
        task_accuracies=accuracies,
        config=cfg.echo(),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _json(value) -> str:
    """JSON text of a report value: reals at 17 significant digits, dicts and
    lists element by element, anything else as json.dumps writes it."""
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite real {value}")
        return f"{value:.17g}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json, value)) + "]"
    return json.dumps(value)


def render_report(report: EvalReport) -> str:
    """JSON text of the report's fields in declaration order, reals at 17
    significant digits. No field depends on timing, so reports are
    byte-identical across equal-seed runs."""
    return _json(asdict(report)) + "\n"


def report_emit(report: EvalReport, path) -> None:
    """Write the rendered report through a temporary file and os.replace."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as tmp:
        tmp.write_text(render_report(report))


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


_BOX_COLOR = (1.0, 0.0, 0.0)   # red


def draw_box_border(image01: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Copy of the image with a 1-pixel red border along the box perimeter."""
    img = image01.copy()
    y0, x0, y1, x1 = box
    img[y0, x0:x1 + 1] = _BOX_COLOR
    img[y1, x0:x1 + 1] = _BOX_COLOR
    img[y0:y1 + 1, x0] = _BOX_COLOR
    img[y0:y1 + 1, x1] = _BOX_COLOR
    return img


def localize_cmd(cfg: RunConfig, params: enc.EncoderParams, ids,
                 split_name: str = "test", out_dir="overlays"):
    """Self-embedding localization for the given split image ids.

    Each image acts as its own one-shot support: the box is proposed from
    the similarity map against the image's own embedding. Writes a red-box
    PPM overlay per id plus a ``boxes.txt`` listing of
    ``id y0 x0 y1 x1 iou`` lines; returns the records.
    """
    _check_arch(cfg, params)
    ids = list(ids)
    if not ids:
        raise UnknownId("no image ids given")
    if split_name not in SPLITS:
        raise UnknownId(f"unknown split {split_name!r}")
    split = _load_splits(cfg)[split_name]
    for image_id in ids:
        if not 0 <= image_id < split.images.shape[0]:
            raise UnknownId(f"id {image_id} outside split {split_name!r} "
                            f"(size {split.images.shape[0]})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    image_hw = (cfg.arch_input_size, cfg.arch_input_size)
    fms, _ = enc.forward_batch(params, split.images[ids], keep_cache=False)
    boxes = propose_boxes(fms, kernels.global_avg_pool_batch(fms), cfg.tau_eval,
                          *image_hw, cfg.connectivity)
    scores = iou(boxes, split.boxes[ids])

    records = []
    lines = []
    for image_id, box, score in zip(ids, boxes.tolist(), scores.tolist()):
        box = BoundingBox(*box)
        overlay = draw_box_border(split.images[image_id], box)
        write_ppm(out / f"overlay_{split_name}_{image_id:05d}.ppm", overlay)
        lines.append(f"{image_id} {box.y0} {box.x0} {box.y1} {box.x1} {score:.17g}")
        records.append({"id": image_id, "box": box, "iou": score})
    (out / "boxes.txt").write_text("\n".join(lines) + "\n")
    return records
