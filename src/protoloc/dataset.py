"""Deterministic synthetic shapes-with-distractors dataset and the episodic sampler.

Every image holds one colored class shape over a dim background, plus a
few neutral-gray distractors (bars, dots, crosses) drawn from a family
disjoint from the class colors. The class shape's tight pixel box is the
ground-truth annotation. The 12 classes (CLASSES) and their split into
train, val and test (SPLITS) are fixed. A spec is the dict a manifest
records (manifest_spec): both, with RunConfig's checked ``data.*`` values.
All randomness is driven by generators derived from (seed, class, sample
index), so a (spec, seed) pair fully determines every byte on disk.

Every shape mask and gradient background of one image size reads the same
cached, read-only (2, S, S) pixel grid, built once per size.

What is read when: generate_dataset streams each split to disk a sample at
a time and hashes each file as it writes it. load_dataset checks every file
of every split against its manifest digest, in bounded chunks, and returns
the splits indexed by split name; a split's three files are read only on
its first index, and hashed again as they are read. CorruptDataset fires
at load for a malformed manifest or any bad file of any split, and at a
split's first index if one of its files has changed since the load.

An episode is rows of its split: labels and boxes follow from the row ids
and are never stored, and no image is copied out of the split.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .localization import BoundingBox
from .tns_io import read_tns_sha256, scan_tns, write_tns, write_tns_blocks

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
    """A dataset's manifest is malformed, or one of its files is malformed or
    differs from the sha256 digest the manifest records."""


def manifest_spec(image_size: int, per_class_count: int, distractors_min: int,
                  distractors_max: int, background: str) -> dict:
    """The spec a manifest records: the settable values, which are RunConfig's
    checked ``data.*`` keys, with the fixed CLASSES and SPLITS."""
    return {
        "image_size": image_size,
        "classes": [[shape, list(color)] for shape, color in CLASSES],
        "per_class_count": per_class_count,
        "distractors_min": distractors_min,
        "distractors_max": distractors_max,
        "background": background,   # "solid-noise" or "gradient"
        "splits": {name: list(idxs) for name, idxs in SPLITS.items()},
    }


@dataclass(frozen=True, eq=False)
class SplitData:
    """One split's rows; its sorted classes and each class's ascending rows
    (pools[c]) are computed once, when it is made."""
    name: str
    images: np.ndarray
    labels: np.ndarray
    boxes: np.ndarray
    classes: np.ndarray = field(init=False, repr=False)
    pools: dict = field(init=False, repr=False)

    def __post_init__(self):
        classes = np.unique(self.labels)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "pools", {c: np.nonzero(self.labels == c)[0]
                                           for c in classes.tolist()})


@dataclass(frozen=True, eq=False)
class Episode:
    """One N-way K-shot task as rows of ``split``. Supports are grouped by
    class: class c is support_ids[c*K:(c+1)*K], so support i has class
    i // K; the queries come Q per class in the same way. ``RunConfig``
    checks the shape, and ``sample_episode`` draws exactly N*K and N*Q rows."""
    split: SplitData
    n_way: int
    k_shot: int
    support_ids: np.ndarray   # (N*K,) split rows
    query_ids: np.ndarray     # (N*Q,)

    @property
    def ids(self) -> np.ndarray:
        """Support rows, then query rows."""
        return np.concatenate([self.support_ids, self.query_ids])

    @property
    def query_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_way), len(self.query_ids) // self.n_way)

    @property
    def support_boxes(self) -> np.ndarray:
        return self.split.boxes[self.support_ids]

    @property
    def query_boxes(self) -> np.ndarray:
        return self.split.boxes[self.query_ids]


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


def _draw_background(spec: dict, rng) -> np.ndarray:
    s = spec["image_size"]
    if spec["background"] == "solid-noise":
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


def render_sample(spec: dict, class_index: int, rng) -> tuple[np.ndarray, BoundingBox]:
    """(image, box) of one sample of CLASSES[class_index]: an (S, S, 3) float64
    image in [0, 1] and its shape's box, fully determined by the generator."""
    s = spec["image_size"]
    img = _draw_background(spec, rng)

    shape, color = CLASSES[class_index]
    scale = rng.uniform(0.2, 0.45) * s
    r = scale / 2.0
    cy = rng.uniform(r + 1.0, s - 2.0 - r)
    cx = rng.uniform(r + 1.0, s - 2.0 - r)
    mask = _shape_mask(shape, s, cy, cx, r)

    n_distractors = int(rng.integers(spec["distractors_min"], spec["distractors_max"] + 1))
    for _ in range(n_distractors):
        _draw_distractor(img, rng)

    img[mask] = np.asarray(color, dtype=np.float64)
    ys, xs = np.nonzero(mask)
    box = BoundingBox(int(ys.min()), int(xs.min()), int(ys.max()), int(xs.max()))
    return img, box


def _sample_rng(seed: int, class_index: int, item: int):
    return np.random.default_rng((seed, class_index, item))


_FILES = ("images.tns", "labels.tns", "boxes.tns")


def _render(spec: dict, seed: int, items, boxes: np.ndarray):
    """Yield the image of each (class, sample index) item in turn, writing its
    box into the matching row of boxes."""
    for j, (c, i) in enumerate(items):
        image, boxes[j] = render_sample(spec, c, _sample_rng(seed, c, i))
        yield image


def generate_dataset(spec: dict, seed: int, out_dir) -> dict:
    """Render all splits of a manifest spec to TNS1 files plus a JSON manifest
    that records it; returns the manifest.
    Each split's images stream to disk one sample at a time, and each file is
    hashed as it is written, so no split is ever held whole or read back.
    Files render into a sibling temporary directory and move into out_dir once
    complete, so a failed render leaves the previous dataset as it was."""
    out = Path(out_dir).absolute()
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    manifest = {
        "format": "protoloc-dataset-v1",
        "seed": int(seed),
        "spec": spec,
        "splits": {},
    }
    shape = (spec["image_size"], spec["image_size"], 3)
    try:
        for name, class_indices in SPLITS.items():
            items = [(c, i) for c in class_indices for i in range(spec["per_class_count"])]
            boxes = np.empty((len(items), 4), dtype=np.uint32)
            split_dir = tmp / name
            split_dir.mkdir(parents=True, exist_ok=True)
            digests = {"images.tns": write_tns_blocks(
                split_dir / "images.tns", (len(items), *shape), np.float64,
                _render(spec, seed, items, boxes))}
            digests["labels.tns"] = write_tns(
                split_dir / "labels.tns", np.array([c for c, _ in items], dtype=np.uint32))
            digests["boxes.tns"] = write_tns(split_dir / "boxes.tns", boxes)
            manifest["splits"][name] = {
                "count": len(items),
                "classes": list(class_indices),
                "digests": digests,
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


def _read_manifest(path: Path) -> dict:
    """The manifest at path; CorruptDataset naming it if it is not JSON or
    lacks a key that loading reads, one of SPLITS or a spec mapping among them."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as err:      # undecodable bytes, or not JSON
        raise CorruptDataset(f"{path}: not JSON: {err}") from err

    def need(entry, key, where):
        if not isinstance(entry, dict) or key not in entry:
            raise CorruptDataset(f"{path}: no {key!r} in {where}")
        return entry[key]

    splits = need(manifest, "splits", "the manifest")
    for name in SPLITS:
        need(splits, name, "the manifest's splits")
    for name, entry in splits.items():
        digests = need(entry, "digests", f"split {name!r}")
        for file_name in _FILES:
            need(digests, file_name, f"the digests of split {name!r}")
    if not isinstance(need(manifest, "spec", "the manifest"), dict):
        raise CorruptDataset(f"{path}: 'spec' in the manifest is not a mapping")
    return manifest


def _checked(path: Path, digest: str, read):
    """read(path) -> (value, sha256 of the bytes read); returns the value once
    the bytes match digest. CorruptDataset names the file if they do not, if
    it cannot be read, or if it fails read's format checks."""
    try:
        value, sha256 = read(path)
    except (OSError, ValueError) as err:
        raise CorruptDataset(str(err)) from err
    if sha256 != digest:
        raise CorruptDataset(f"{path}: sha256 differs from manifest")
    return value


class _Splits:
    """A dataset's SplitData, indexed by split name. A split's three files
    are read on its first index, their bytes checked against the manifest
    digests as they are read, and the SplitData cached."""

    def __init__(self, data_dir: Path, entries: dict):
        self._dir, self._entries, self._loaded = data_dir, entries, {}

    def __getitem__(self, name):
        if name not in self._loaded:
            digests = self._entries[name]["digests"]
            images, labels, boxes = (
                _checked(self._dir / name / f, digests[f], read_tns_sha256) for f in _FILES)
            self._loaded[name] = SplitData(name, images, labels.astype(np.int64),
                                           boxes.astype(np.int64))
        return self._loaded[name]


def load_dataset(data_dir):
    """Open a generated dataset; returns (manifest, splits), where splits is
    indexed by split name, every split name in the manifest.

    Before it returns, every file of every split is read in bounded chunks,
    holding no array, and checked against its manifest digest and, for float
    payloads, for finiteness: CorruptDataset names the manifest if it is
    malformed, and else the first file that is missing or bad. A split's
    arrays are read on its first index only, and checked against the digests
    again as they are read, so a file replaced or removed since raises then."""
    data_dir = Path(data_dir)
    manifest = _read_manifest(data_dir / "manifest.json")
    for name, entry in manifest["splits"].items():
        for f in _FILES:
            _checked(data_dir / name / f, entry["digests"][f], lambda path: (None, scan_tns(path)))
    return manifest, _Splits(data_dir, manifest["splits"])


def sample_episode(split: SplitData, n_way: int, k_shot: int,
                   queries_per_class: int, task_rng) -> Episode:
    """Draw an N-way K-shot episode of split rows (no copies) without
    replacement, relabeling classes 0..N-1 in sampled order. Within a class,
    rows come in ascending index order, which keeps reductions canonical."""
    classes = split.classes
    if classes.size < n_way:
        raise InsufficientData(
            f"split {split.name!r} has {classes.size} classes, need {n_way}")
    chosen = task_rng.choice(classes, size=n_way, replace=False)
    need = k_shot + queries_per_class
    sup_idx, qry_idx = [], []
    for c in chosen:
        pool = split.pools[c]
        if pool.size < need:
            raise InsufficientData(
                f"class {c} has {pool.size} items, need {need}")
        pick = task_rng.choice(pool, size=need, replace=False)
        sup_idx.append(np.sort(pick[:k_shot]))
        qry_idx.append(np.sort(pick[k_shot:]))
    sup = np.concatenate(sup_idx)
    qry = np.concatenate(qry_idx)
    return Episode(split, n_way, k_shot, sup, qry)
