"""Deterministic synthetic shapes-with-distractors dataset and the episodic sampler.

Every image holds one colored class shape over a dim background, plus a
few neutral-gray distractors (bars, dots, crosses) drawn from a family
disjoint from the class colors. The class shape's tight pixel box is the
ground-truth annotation. The 12 classes (CLASSES) and their split into
train, val and test (SPLITS) are fixed; the manifest records them with the
settable DatasetSpec fields. All randomness is driven by generators derived
from (seed, class, sample index), so a (spec, seed) pair fully determines
every byte on disk.

Every shape mask and gradient background of one image size reads the same
cached, read-only (2, S, S) pixel grid, built once per size.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .episodic import Episode
from .localization import BoundingBox
from .tns_io import read_tns, write_tns

_COLORS = (
    (0.85, 0.10, 0.10),   # red
    (0.10, 0.80, 0.15),   # green
    (0.15, 0.25, 0.90),   # blue
)

# 12 classes: 4 shapes x 3 colors, shape-major order
CLASSES = tuple((shape, color) for shape in ("circle", "square", "triangle", "plus")
                for color in _COLORS)

# class indices per split, in the manifest's (sorted) order; every shape
# appears in the train split, and test pairs differ in color or shape
SPLITS = {
    "test": (1, 2, 4, 6, 9),
    "train": (0, 3, 5, 7, 11),
    "val": (8, 10),
}


class InsufficientData(ValueError):
    """Split lacks the classes or per-class items an episode needs."""


class CorruptDataset(ValueError):
    """A dataset file's sha256 differs from the digest its manifest records."""


@dataclass(frozen=True)
class DatasetSpec:
    """The settable part of a dataset; the class table and the splits are
    the fixed CLASSES and SPLITS, recorded in the manifest with the rest."""
    image_size: int = 32
    per_class_count: int = 200
    distractors_min: int = 1
    distractors_max: int = 3
    background: str = "solid-noise"   # or "gradient"

    def __post_init__(self):
        # The class shape's radius is r >= 0.1 * size, and the pixel nearest
        # its centre lies within 0.5 of it on each axis, inside the image. The
        # thinnest shape, the plus, has arms of half-width r / 3, so it covers
        # that pixel once r / 3 >= 0.5, that is at size >= 15; at 14 a plus
        # with r near 1.4 and both centre fractions near .5 covers no pixel.
        # Circle, square and triangle need less, and the distractors size >= 9.
        if self.image_size < 15:
            raise ValueError(f"image_size must be >= 15, got {self.image_size}")
        if self.per_class_count < 1:
            raise ValueError(f"per_class_count must be >= 1, got {self.per_class_count}")
        if not 0 <= self.distractors_min <= self.distractors_max:
            raise ValueError(f"distractors_min must lie in [0, distractors_max = "
                             f"{self.distractors_max}], got {self.distractors_min}")
        if self.background not in ("solid-noise", "gradient"):
            raise ValueError(f"background must be 'solid-noise' or 'gradient', "
                             f"got {self.background!r}")

    def to_dict(self) -> dict:
        return {
            "image_size": self.image_size,
            "classes": [[shape, list(color)] for shape, color in CLASSES],
            "per_class_count": self.per_class_count,
            "distractors_min": self.distractors_min,
            "distractors_max": self.distractors_max,
            "background": self.background,
            "splits": {name: list(idxs) for name, idxs in SPLITS.items()},
        }


@dataclass
class Sample:
    image: np.ndarray          # (S, S, 3) float64 in [0, 1]
    gt_box: BoundingBox


class SplitData(NamedTuple):
    name: str
    images: np.ndarray
    labels: np.ndarray
    boxes: np.ndarray


@functools.lru_cache(maxsize=8)
def _pixel_grid(size):
    """Read-only float64 (row, column) coordinates of a size x size image."""
    grid = np.mgrid[0:size, 0:size].astype(np.float64)
    grid.flags.writeable = False
    return grid


def _shape_mask(shape: str, size: int, cy: float, cx: float, r: float) -> np.ndarray:
    yy, xx = _pixel_grid(size)
    dy, dx = yy - cy, xx - cx
    if shape == "circle":
        return dy * dy + dx * dx <= r * r
    if shape == "square":
        return np.maximum(np.abs(dy), np.abs(dx)) <= r
    if shape == "triangle":
        # upward triangle: apex at cy - r, base at cy + r spanning [cx - r, cx + r]
        return (dy >= -r) & (dy <= r) & (np.abs(dx) <= (dy + r) / 2.0)
    arm = r / 3.0   # plus: two crossed bars
    return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | \
           ((np.abs(dy) <= arm) & (np.abs(dx) <= r))


def _draw_background(spec: DatasetSpec, rng) -> np.ndarray:
    s = spec.image_size
    if spec.background == "solid-noise":
        base = rng.uniform(0.04, 0.12)
        lum = base + rng.uniform(0.0, 0.08, size=(s, s))
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        yy, xx = _pixel_grid(s)
        proj = (yy * np.sin(theta) + xx * np.cos(theta)) / (s * np.sqrt(2.0))
        lum = 0.05 + 0.13 * (proj - proj.min()) / max(proj.max() - proj.min(), 1e-9)
    return np.repeat(lum[:, :, None], 3, axis=2)


def _draw_distractor(img: np.ndarray, rng) -> None:
    """One neutral-gray bar, dot, or cross; grays never match a class color."""
    s = img.shape[0]
    kind = rng.integers(0, 3)
    gray = rng.uniform(0.35, 0.65)
    if kind == 0:    # bar, 2 pixels thick
        length = int(rng.integers(4, 11))
        y = int(rng.integers(0, s - 2))
        x = int(rng.integers(0, s - 2))
        if rng.integers(0, 2):
            img[y:y + 2, x:min(x + length, s)] = gray
        else:
            img[y:min(y + length, s), x:x + 2] = gray
    elif kind == 1:  # dot
        r = float(rng.integers(1, 3))
        cy = rng.uniform(r, s - 1 - r)
        cx = rng.uniform(r, s - 1 - r)
        img[_shape_mask("circle", s, cy, cx, r)] = gray
    else:            # cross
        r = float(rng.integers(2, 5))
        cy = rng.uniform(r, s - 1 - r)
        cx = rng.uniform(r, s - 1 - r)
        img[_shape_mask("plus", s, cy, cx, r)] = gray


def render_sample(spec: DatasetSpec, class_index: int, rng) -> Sample:
    """Render one sample of CLASSES[class_index]; fully determined by the
    generator's state."""
    s = spec.image_size
    img = _draw_background(spec, rng)

    shape, color = CLASSES[class_index]
    scale = rng.uniform(0.2, 0.45) * s
    r = scale / 2.0
    cy = rng.uniform(r + 1.0, s - 2.0 - r)
    cx = rng.uniform(r + 1.0, s - 2.0 - r)
    mask = _shape_mask(shape, s, cy, cx, r)

    n_distractors = int(rng.integers(spec.distractors_min, spec.distractors_max + 1))
    for _ in range(n_distractors):
        _draw_distractor(img, rng)

    img[mask] = np.asarray(color, dtype=np.float64)
    ys, xs = np.nonzero(mask)
    box = BoundingBox(int(ys.min()), int(xs.min()), int(ys.max()), int(xs.max()))
    return Sample(img, box)


def _sample_rng(seed: int, class_index: int, item: int):
    return np.random.default_rng((seed, class_index, item))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate_dataset(spec: DatasetSpec, seed: int, out_dir) -> dict:
    """Render all splits to TNS1 files plus a JSON manifest; returns the manifest.
    Files render into a sibling temporary directory and move into out_dir once
    complete, so a failed render leaves the previous dataset as it was."""
    out = Path(out_dir).absolute()
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    manifest = {
        "format": "protoloc-dataset-v1",
        "seed": int(seed),
        "spec": spec.to_dict(),
        "splits": {},
    }
    try:
        for name, class_indices in SPLITS.items():
            images, labels, boxes = [], [], []
            for c in class_indices:
                for i in range(spec.per_class_count):
                    sample = render_sample(spec, c, _sample_rng(seed, c, i))
                    images.append(sample.image)
                    labels.append(c)
                    boxes.append(tuple(sample.gt_box))
            split_dir = tmp / name
            split_dir.mkdir(parents=True, exist_ok=True)
            write_tns(split_dir / "images.tns", np.stack(images))
            write_tns(split_dir / "labels.tns", np.asarray(labels, dtype=np.uint32))
            write_tns(split_dir / "boxes.tns", np.asarray(boxes, dtype=np.uint32))
            manifest["splits"][name] = {
                "count": len(labels),
                "classes": list(class_indices),
                "digests": {f: _digest(split_dir / f)
                            for f in ("images.tns", "labels.tns", "boxes.tns")},
            }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        out.mkdir(exist_ok=True)
        # no manifest while splits are swapped: a half-moved dataset fails to load
        (out / "manifest.json").unlink(missing_ok=True)
        for name in SPLITS:
            shutil.rmtree(out / name, ignore_errors=True)
            os.replace(tmp / name, out / name)
        os.replace(tmp / "manifest.json", out / "manifest.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return manifest


def load_dataset(data_dir):
    """Load a generated dataset, checking every file against its manifest
    digest; returns (manifest, {split name: SplitData})."""
    data_dir = Path(data_dir)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    splits = {}
    for name, entry in manifest["splits"].items():
        split_dir = data_dir / name
        for file_name, digest in entry["digests"].items():
            if _digest(split_dir / file_name) != digest:
                raise CorruptDataset(f"{split_dir / file_name}: sha256 differs from manifest")
        splits[name] = SplitData(
            name=name,
            images=read_tns(split_dir / "images.tns"),
            labels=read_tns(split_dir / "labels.tns").astype(np.int64),
            boxes=read_tns(split_dir / "boxes.tns").astype(np.int64),
        )
    return manifest, splits


def sample_episode(split: SplitData, n_way: int, k_shot: int,
                   queries_per_class: int, task_rng) -> Episode:
    """Draw an N-way K-shot episode of split rows (no copies) without
    replacement, relabeling classes 0..N-1 in sampled order. Within a class,
    rows come in ascending index order, which keeps reductions canonical."""
    classes = np.unique(split.labels)
    if classes.size < n_way:
        raise InsufficientData(
            f"split {split.name!r} has {classes.size} classes, need {n_way}")
    chosen = task_rng.choice(classes, size=n_way, replace=False)
    need = k_shot + queries_per_class
    sup_idx, qry_idx = [], []
    for c in chosen:
        pool = np.nonzero(split.labels == c)[0]
        if pool.size < need:
            raise InsufficientData(
                f"class {c} has {pool.size} items, need {need}")
        pick = task_rng.choice(pool, size=need, replace=False)
        sup_idx.append(np.sort(pick[:k_shot]))
        qry_idx.append(np.sort(pick[k_shot:]))
    sup = np.concatenate(sup_idx)
    qry = np.concatenate(qry_idx)
    return Episode(split, n_way, k_shot, sup, qry)
