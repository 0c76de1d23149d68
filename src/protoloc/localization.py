"""Similarity-map localization: threshold, largest component, bounding box.

A similarity map is the spatial decomposition of the dot product between a
normalized class representation and every feature-map cell. Upsampled to
image size, thresholded relative to its max, the largest connected
component's bounding box is the proposed object location.

``propose_boxes`` checks its shapes and norms and runs this chain once over
a stack of maps, each with its own representation: every stage takes the
maps along a leading axis (``similarity_map`` takes nothing else), and each
plane's result is bitwise the one a single-map chain gives. Refined
representations box all supports in one call, an eval task all its queries
in one; ``propose_box``, the one-map call, is left for callers outside.
``segment_mask`` and ``largest_component`` take the float64 maps and bool
masks ``propose_boxes`` built, and check nothing again.
The threshold tau and the connectivity are the config's ``loc.*`` values,
which ``RunConfig`` alone checks (tau in (0, 1], connectivity 4 or 8).

A stack of boxes is an (N, 4) int64 array of (y0, x0, y1, x1) rows, laid
out like a split's ground-truth boxes; ``largest_component`` and
``propose_boxes`` return one, and ``iou`` scores two stacks row by row in
one expression. A single box is a ``BoundingBox``.

Most thresholded maps are one band of one-run rows whose consecutive runs
share a column: one component at either connectivity, boxed by its
projections. ``_label`` labels the rest, each boxed by the component of its
first pixel of maximal size, whatever numbers the labels take.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kernels import ShapeError, bilinear_resize


class DegenerateRepresentation(ValueError):
    """A representation's norm is (near-)zero or not finite: a dead or diverged encoder."""


class BoundingBox(NamedTuple):
    """Inclusive pixel rectangle in image coordinates."""
    y0: int
    x0: int
    y1: int
    x1: int


def _label(mask: np.ndarray, connectivity: int):
    """Runs of true pixels of an (N, H, W) mask as (R, 4) rows of (plane, row,
    first col, last col) in row-major order, and each run's component id. Runs
    in consecutive rows that share a column (or a corner, at 8) are edges; a
    false column after each row and a false row after each plane keep runs in
    their row and edges in their plane. Each edge hooks its larger root to the
    smaller (of two hooks on one root one lands, the other waits a round), and
    pointers jump to roots until no edge joins two roots (He, Chao & Suzuki,
    IEEE TIP 2008; Shiloach & Vishkin, J. Algorithms 1982)."""
    n, h, w = mask.shape
    shape = n, h + 1, w + 1
    padded = np.zeros(n * (h + 1) * (w + 1) + 1, dtype=bool)   # a false pixel leads
    padded[1:].reshape(shape)[:, :h, :w] = mask
    start, end = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    lo = np.searchsorted(end, start - (w + 1 + (connectivity == 8)), "right")
    count = np.searchsorted(start, end - (w + 1 - (connectivity == 8))) - lo
    b = np.repeat(np.arange(start.size), count)     # edge (a, b): run a in the row above b
    a = np.arange(b.size) + np.repeat(lo + count - np.cumsum(count), count)
    root, ra, rb = np.arange(start.size), a, b
    while (join := ra != rb).any():
        root[np.maximum(ra, rb)[join]] = np.minimum(ra, rb)[join]
        for _ in range(start.size.bit_length()):   # a tree is shallower than its run count
            root = root[root]
        ra, rb = root[a], root[b]
    plane, row, col = np.unravel_index(start, shape)
    return np.array([plane, row, col, col + end - start - 1]).T, root


def similarity_map(fms: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The (N, h, w) maps of dot products (rep / ||rep||) . FM(i, j) of an
    (N, h, w, D) float64 stack of maps, each against its row of the (N, D)
    representations; ``propose_boxes`` checks the shapes.

    Every norm is checked before any map is computed. All maps go through
    one broadcast matmul that keeps each map's (w, D) @ (D, 1) core, so
    every plane is bitwise the map's own ``fm @ unit``. The norms come from
    one stacked matmul of (1, D) @ (D, 1) rows, the dot product that
    ``np.linalg.norm`` takes of a single row. An einsum, or
    ``np.linalg.norm(reps, axis=1)``, changes low bits, and a 1-ulp change
    can flip a pixel at the threshold.
    """
    norms = np.sqrt((reps[:, None, :] @ reps[:, :, None]).ravel())
    bad = np.flatnonzero(~((norms > 1e-12) & (norms < np.inf)))   # nan fails both
    if bad.size:
        raise DegenerateRepresentation(f"representation row {bad[0]} has norm "
                                       f"{norms[bad[0]]}, not a finite value above 1e-12")
    units = reps / norms[:, None]
    return (fms @ units[:, None, :, None])[..., 0]


def segment_mask(upsampled: np.ndarray, tau: float) -> np.ndarray:
    """Per plane of an (..., H, W) stack, keep pixels at or above tau times its max.

    >= (not >) so the max pixel itself is always kept. A plane whose max is
    not positive gets a NaN threshold, which no pixel reaches: all false.
    """
    mx = upsampled.max(axis=(-2, -1), keepdims=True)
    return upsampled >= np.where(mx > 0.0, tau * mx, np.nan)


def largest_component(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Tight inclusive box (min row, min col, max row, max col) of the largest
    connected true region of each plane of an (N, H, W) mask, as an (N, 4)
    int64 array; a plane with no true pixel gets the full-image box.

    A plane is one band when each row holds at most one run (its pixel
    count is the sum of its rows' first-to-last spans), its non-empty rows
    are contiguous and every two consecutive runs share a column: each run
    is connected and touches the next, so it is one component at 4 and so
    at 8 connectivity, boxed by its projections. The other planes are
    labelled in one ``_label`` call, and each is boxed by the runs of its
    first run's component, in row-major order, of maximal size: a tie goes
    to the earliest true pixel whatever numbers the labels take.
    """
    n, h, w = mask.shape
    first = mask.argmax(axis=2)
    last = w - 1 - mask[:, :, ::-1].argmax(axis=2)
    rows = (first > 0) | mask[:, :, 0]      # mask.any(axis=2), from first
    cols = mask.any(axis=1)
    runs = mask.reshape(n, h * w).sum(axis=1) == np.where(rows, last - first + 1, 0).sum(axis=1)
    band = np.count_nonzero(rows[:, 1:] > rows[:, :-1], axis=1) + rows[:, 0] <= 1
    meet = (first[:, 1:] <= last[:, :-1]) & (first[:, :-1] <= last[:, 1:])
    rest = np.flatnonzero(~runs | ~band | (rows[:, 1:] & rows[:, :-1] & ~meet).any(axis=1))
    # an empty plane's argmaxes are all 0: the full-image box
    boxes = np.array([rows.argmax(axis=1), cols.argmax(axis=1),
                      h - 1 - rows[:, ::-1].argmax(axis=1),
                      w - 1 - cols[:, ::-1].argmax(axis=1)], dtype=np.int64).T
    if rest.size:
        spans, comp = _label(mask[rest], connectivity)
        plane, planes = spans[:, 0], np.arange(rest.size)      # every plane has a run
        size = np.bincount(comp, spans[:, 3] - spans[:, 2] + 1)[comp]
        # a stable sort by plane, then size: each plane's first run of its largest size
        lead = np.lexsort((-size, plane))[np.searchsorted(plane, planes)]
        won = spans[comp == comp[lead][plane]]
        at = np.searchsorted(won[:, 0], planes)
        low, high = np.minimum.reduceat(won, at), np.maximum.reduceat(won, at)
        boxes[rest] = np.concatenate([low[:, 1:3], high[:, 1::2]], axis=1)
    return boxes


def propose_boxes(fms, reps, tau, image_h, image_w, connectivity: int) -> np.ndarray:
    """The (N, 4) boxes of an (N, h, w, D) stack of maps, each against its
    row of the (N, D) representations:
    similarity_map -> bilinear_resize -> segment_mask -> largest_component.

    A degenerate (all-nonpositive) map falls back to the full-image box.
    Every shape and norm is checked before any map is computed.
    """
    fms = np.asarray(fms, dtype=np.float64)
    reps = np.asarray(reps, dtype=np.float64)
    if fms.ndim != 4 or reps.ndim != 2 or (fms.shape[0], fms.shape[3]) != reps.shape:
        raise ShapeError(f"fms {fms.shape} and representations {reps.shape} "
                         f"are not an (N, h, w, D) stack and its (N, D) rows")
    up = bilinear_resize(similarity_map(fms, reps), image_h, image_w)
    return largest_component(segment_mask(up, tau), connectivity)


def propose_box(fm, rep_vector, tau, image_h, image_w, connectivity: int) -> BoundingBox:
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
