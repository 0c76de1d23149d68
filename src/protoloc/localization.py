"""Similarity-map localization: threshold, largest component, bounding box.

A similarity map is the spatial decomposition of the dot product between a
normalized class representation and every feature-map cell. Upsampled to
image size, thresholded relative to its max, the largest connected
component's bounding box is the proposed object location.

``propose_boxes`` runs this chain once over a stack of maps, each with its
own representation: every stage takes the maps along a leading axis, and
each plane's result is bitwise the one a single-map chain gives. Eval
localizes all the queries of a task in one call; ``propose_box`` is the
one-map call of the same chain.

A stack of boxes is an (N, 4) int64 array of (y0, x0, y1, x1) rows, laid
out like a split's ground-truth boxes; ``bbox_of`` and ``propose_boxes``
return one, and ``iou`` scores two stacks row by row in one expression.
A single box is a ``BoundingBox``.

Only ``largest_component`` labels, so scipy loads at the first labelling
and not at import: a process that never localizes never imports it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kernels import ShapeError, bilinear_resize


class DegenerateRepresentation(ValueError):
    """Representation vector has (near-)zero norm; signals a dead encoder."""


class BoundingBox(NamedTuple):
    """Inclusive pixel rectangle in image coordinates."""
    y0: int
    x0: int
    y1: int
    x1: int


# Label structures over a stack of planes: the 2-D 4- or 8-structure in the
# middle slice and no links across planes, so each plane is labelled as if alone
_STRUCTURES = {c: np.pad(np.array(plane, dtype=bool)[None], ((1, 1), (0, 0), (0, 0)))
               for c, plane in ((4, [[0, 1, 0], [1, 1, 1], [0, 1, 0]]),
                                (8, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]))}


def _check_tau(tau) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")


def _structure(connectivity) -> np.ndarray:
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    return _STRUCTURES[connectivity]


def similarity_map(fm: np.ndarray, rep_vector: np.ndarray) -> np.ndarray:
    """Project each normalized representation onto every cell of its map.

    (..., h, w, D) maps against (..., D) representations give the
    (..., h, w) maps of dot products (rep / ||rep||) . FM(i, j). Every norm
    is checked before any map is computed. All maps go through one
    broadcast matmul that keeps each map's (w, D) @ (D, 1) core, so every
    plane is bitwise the map's own ``fm @ unit``. The norms come from one
    stacked matmul of (1, D) @ (D, 1) rows, the dot product that
    ``np.linalg.norm`` takes of a single row. An einsum, or
    ``np.linalg.norm(reps, axis=1)``, changes low bits, and a 1-ulp change
    can flip a pixel at the threshold.
    """
    fm = np.asarray(fm, dtype=np.float64)
    rep = np.asarray(rep_vector, dtype=np.float64)
    if fm.ndim < 3 or fm.shape[:-3] + fm.shape[-1:] != rep.shape:
        raise ShapeError(f"fm {fm.shape} incompatible with representation {rep.shape}")
    fms = fm.reshape(-1, *fm.shape[-3:])
    reps = rep.reshape(-1, rep.shape[-1])
    norms = np.sqrt((reps[:, None, :] @ reps[:, :, None]).ravel())
    degenerate = np.flatnonzero(norms <= 1e-12)
    if degenerate.size:
        i = degenerate[0]
        raise DegenerateRepresentation(f"representation row {i} has norm {norms[i]} <= 1e-12")
    units = reps / norms[:, None]
    return (fms @ units[:, None, :, None])[..., 0].reshape(fm.shape[:-1])


def segment_mask(upsampled: np.ndarray, tau: float) -> np.ndarray:
    """Per plane of an (..., H, W) stack, keep pixels at or above tau times its max.

    >= (not >) so the max pixel itself is always kept. A plane whose max is
    not positive has no region to segment and comes back all false.
    """
    _check_tau(tau)
    upsampled = np.asarray(upsampled, dtype=np.float64)
    mx = upsampled.max(axis=(-2, -1), keepdims=True)
    return (upsampled >= tau * mx) & (mx > 0.0)


def largest_component(mask: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Per plane of an (..., H, W) mask, its largest connected true region, as a mask.

    Size ties go to the component containing the earliest true pixel in
    row-major scan order. A plane with no true pixel stays all false. All
    planes are labelled in one call.
    """
    from scipy import ndimage

    structure = _structure(connectivity)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim < 2:
        raise ShapeError(f"expected (..., H, W) mask, got shape {mask.shape}")
    labels, _ = ndimage.label(mask.reshape(-1, *mask.shape[-2:]), structure=structure,
                              output=np.intp)
    flat = labels.reshape(labels.shape[0], -1)
    sizes = np.bincount(flat.ravel(), minlength=1)
    sizes[0] = 0
    size_at = sizes[flat]                       # component size per pixel, 0 off the mask
    first = (size_at == size_at.max(axis=1, keepdims=True)).argmax(axis=1)
    chosen = flat[np.arange(flat.shape[0]), first][:, None]   # 0 on an empty plane
    return ((flat == chosen) & (chosen > 0)).reshape(mask.shape)


def bbox_of(component: np.ndarray) -> np.ndarray:
    """Tight inclusive box (min row, min col, max row, max col) of each plane
    of an (N, H, W) component stack, as an (N, 4) int64 array.

    A plane with no true pixel, the trace of a map with no positive value,
    gets the whole plane: the full-image fallback.
    """
    component = np.asarray(component, dtype=bool)
    if component.ndim != 3:
        raise ShapeError(f"expected (N, H, W) components, got shape {component.shape}")
    _, h, w = component.shape
    rows = component.any(axis=2)
    cols = component.any(axis=1)
    return np.stack([rows.argmax(axis=1), cols.argmax(axis=1),
                     h - 1 - rows[:, ::-1].argmax(axis=1),
                     w - 1 - cols[:, ::-1].argmax(axis=1)], axis=1).astype(np.int64)


def propose_boxes(fms, reps, tau, image_h, image_w,
                  connectivity: int = 4) -> np.ndarray:
    """The (N, 4) boxes of an (N, h, w, D) stack of maps, each against its
    row of the (N, D) representations:
    similarity_map -> bilinear_resize -> segment_mask -> largest_component -> bbox_of.

    A degenerate (all-nonpositive) map falls back to the full-image box.
    Every input is checked before any map is computed.
    """
    fms = np.asarray(fms, dtype=np.float64)
    reps = np.asarray(reps, dtype=np.float64)
    if fms.ndim != 4 or reps.ndim != 2 or (fms.shape[0], fms.shape[3]) != reps.shape:
        raise ShapeError(f"fms {fms.shape} and representations {reps.shape} "
                         f"are not an (N, h, w, D) stack and its (N, D) rows")
    _check_tau(tau)
    _structure(connectivity)
    up = bilinear_resize(similarity_map(fms, reps), image_h, image_w)
    return bbox_of(largest_component(segment_mask(up, tau), connectivity))


def propose_box(fm, rep_vector, tau, image_h, image_w, connectivity: int = 4) -> BoundingBox:
    """The box of one h x w x D map: ``propose_boxes`` over a stack of one."""
    box, = propose_boxes(np.asarray(fm)[None], np.asarray(rep_vector)[None],
                         tau, image_h, image_w, connectivity).tolist()
    return BoundingBox(*box)


def iou(a, b):
    """Intersection over union of inclusive pixel boxes, over (..., 4) stacks
    that broadcast against each other: two (N, 4) stacks give their N
    row-by-row scores, a pair of single boxes one float."""
    ay0, ax0, ay1, ax1 = np.moveaxis(np.asarray(a), -1, 0)
    by0, bx0, by1, bx1 = np.moveaxis(np.asarray(b), -1, 0)
    ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0) + 1, 0)
    iw = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0) + 1, 0)
    inter = ih * iw
    area_a = (ay1 - ay0 + 1) * (ax1 - ax0 + 1)
    area_b = (by1 - by0 + 1) * (bx1 - bx0 + 1)
    return inter / (area_a + area_b - inter)
