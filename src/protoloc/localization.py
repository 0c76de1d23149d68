"""Similarity-map localization: threshold, largest component, bounding box.

A similarity map is the spatial decomposition of the dot product between a
normalized class representation and every feature-map cell. Upsampled to
image size, thresholded relative to its max, the largest connected
component's bounding box is the proposed object location.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .kernels import ShapeError, bilinear_resize


class DegenerateRepresentation(ValueError):
    """Representation vector has (near-)zero norm; signals a dead encoder."""


class DegenerateMap(ValueError):
    """Similarity map has no positive value; no region can be segmented."""


class EmptyMask(ValueError):
    """Binary mask holds no true pixel."""


class EmptyComponent(ValueError):
    """Component holds no pixel."""


class BoundingBox(NamedTuple):
    """Inclusive pixel rectangle in image coordinates."""
    y0: int
    x0: int
    y1: int
    x1: int


_STRUCTURE_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


def similarity_map(fm: np.ndarray, rep_vector: np.ndarray) -> np.ndarray:
    """Project the normalized representation onto every feature-map cell.

    Returns the h x w map of dot products (rep / ||rep||) . FM(i, j).
    """
    fm = np.asarray(fm, dtype=np.float64)
    rep = np.asarray(rep_vector, dtype=np.float64)
    if fm.ndim != 3 or rep.ndim != 1 or fm.shape[2] != rep.shape[0]:
        raise ShapeError(f"fm {fm.shape} incompatible with representation {rep.shape}")
    norm = np.linalg.norm(rep)
    if norm <= 1e-12:
        raise DegenerateRepresentation(f"representation norm {norm} <= 1e-12")
    return fm @ (rep / norm)


def segment_mask(upsampled: np.ndarray, tau: float) -> np.ndarray:
    """Keep pixels at or above tau times the map's max value.

    >= (not >) so the max pixel itself is always kept. Raises DegenerateMap
    when the max is not positive; callers fall back to the full-image box.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    upsampled = np.asarray(upsampled, dtype=np.float64)
    mx = upsampled.max()
    if mx <= 0.0:
        raise DegenerateMap(f"similarity map max {mx} <= 0")
    return upsampled >= tau * mx


def largest_component(mask: np.ndarray, connectivity: int = 4) -> np.ndarray:
    """Pixels of the largest connected true region, as an (M, 2) row-major array.

    Size ties go to the component containing the earliest true pixel in
    row-major scan order.
    """
    mask = np.asarray(mask, dtype=bool)
    if connectivity == 4:
        structure = _STRUCTURE_4
    elif connectivity == 8:
        structure = _STRUCTURE_8
    else:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    labels, n = ndimage.label(mask, structure=structure)
    if n == 0:
        raise EmptyMask("mask holds no true pixel")
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    flat = labels.ravel()
    winners = np.nonzero(sizes[flat] == sizes.max())[0]
    chosen = flat[winners[0]]
    return np.argwhere(labels == chosen)


def bbox_of(component: np.ndarray) -> BoundingBox:
    """Tight inclusive box (min row, min col, max row, max col) over the pixels."""
    component = np.asarray(component)
    if component.size == 0:
        raise EmptyComponent("component holds no pixel")
    ys = component[:, 0]
    xs = component[:, 1]
    return BoundingBox(int(ys.min()), int(xs.min()), int(ys.max()), int(xs.max()))


def propose_box(fm, rep_vector, tau, image_h, image_w, connectivity: int = 4) -> BoundingBox:
    """similarity_map -> bilinear_resize -> segment_mask -> largest_component -> bbox_of.

    A degenerate (all-nonpositive) map falls back to the full-image box.
    """
    sm = similarity_map(fm, rep_vector)
    up = bilinear_resize(sm, image_h, image_w)
    try:
        mask = segment_mask(up, tau)
    except DegenerateMap:
        return BoundingBox(0, 0, image_h - 1, image_w - 1)
    return bbox_of(largest_component(mask, connectivity))


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two inclusive pixel boxes."""
    ay0, ax0, ay1, ax1 = a
    by0, bx0, by1, bx1 = b
    ih = min(ay1, by1) - max(ay0, by0) + 1
    iw = min(ax1, bx1) - max(ax0, bx0) + 1
    if ih <= 0 or iw <= 0:
        return 0.0
    inter = ih * iw
    area_a = (ay1 - ay0 + 1) * (ax1 - ax0 + 1)
    area_b = (by1 - by0 + 1) * (bx1 - bx0 + 1)
    return inter / (area_a + area_b - inter)
