import numpy as np
import pytest

from protoloc import localization as loc
from protoloc.kernels import bilinear_resize
from protoloc.localization import (BoundingBox, DegenerateMap,
                                   DegenerateRepresentation, EmptyComponent,
                                   EmptyMask)

from oracles import largest_component_oracle


class TestSimilarityMap:
    def test_constant_fm_equal_to_rep(self):
        rep = np.array([3.0, 4.0])
        fm = np.broadcast_to(rep, (2, 3, 2)).copy()
        sm = loc.similarity_map(fm, rep)
        np.testing.assert_allclose(sm, 5.0, rtol=0, atol=1e-12)   # ||rep|| = 5

    def test_orthogonal_cell_is_zero(self):
        fm = np.zeros((2, 2, 2))
        fm[0, 1] = [0.0, 2.0]
        sm = loc.similarity_map(fm, np.array([1.0, 0.0]))
        assert sm[0, 1] == 0.0

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(2, 2, 3))
        rep = rng.normal(size=3)
        sm = loc.similarity_map(fm, rep)
        unit = rep / np.linalg.norm(rep)
        for i in range(2):
            for j in range(2):
                assert abs(sm[i, j] - float(unit @ fm[i, j])) <= 1e-12

    def test_rep_scale_invariance(self):
        rng = np.random.default_rng(1)
        fm = rng.normal(size=(3, 3, 4))
        rep = rng.normal(size=4)
        a = loc.similarity_map(fm, rep)
        b = loc.similarity_map(fm, 2.5 * rep)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_degenerate_representation(self):
        with pytest.raises(DegenerateRepresentation):
            loc.similarity_map(np.zeros((2, 2, 3)), np.zeros(3))


class TestSegmentMask:
    def test_example_map(self):
        m = np.array([[1.0, 0.2], [0.6, 0.4]])
        mask = loc.segment_mask(m, 0.5)
        np.testing.assert_array_equal(mask, [[True, False], [True, False]])

    def test_constant_positive_all_true(self):
        mask = loc.segment_mask(np.full((3, 4), 0.7), 0.99)
        assert mask.all()

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateMap):
            loc.segment_mask(np.zeros((3, 3)), 0.5)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            loc.segment_mask(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            loc.segment_mask(np.ones((2, 2)), 1.5)

    def test_max_pixel_always_kept(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            m.flat[rng.integers(25)] = abs(m).max() + 1.0
            mask = loc.segment_mask(m, 1.0)
            assert mask[np.unravel_index(np.argmax(m), m.shape)]


class TestLargestComponent:
    def test_single_pixel(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 1] = True
        np.testing.assert_array_equal(loc.largest_component(mask), [[2, 1]])

    def test_picks_bigger_of_two(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[1, 0] = mask[1, 1] = True     # L-shape, size 3
        mask[3, 3] = mask[3, 4] = True                   # pair, size 2
        got = {tuple(p) for p in loc.largest_component(mask)}
        assert got == {(0, 0), (1, 0), (1, 1)}

    def test_diagonal_is_disconnected_at_4(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        got = loc.largest_component(mask, connectivity=4)
        assert got.shape == (1, 2)
        np.testing.assert_array_equal(got, [[0, 0]])     # earliest-pixel tie rule
        got8 = loc.largest_component(mask, connectivity=8)
        assert got8.shape == (3, 2)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            loc.largest_component(np.zeros((3, 3), dtype=bool))

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h, w = rng.integers(1, 17, size=2)
            mask = rng.uniform(size=(h, w)) < 0.45
            if not mask.any():
                continue
            got = sorted(tuple(p) for p in loc.largest_component(mask, connectivity))
            want = largest_component_oracle(mask, connectivity)
            assert got == want


class TestBboxOf:
    def test_single_pixel(self):
        assert loc.bbox_of(np.array([[3, 5]])) == BoundingBox(3, 5, 3, 5)

    def test_full_image(self):
        mask = np.ones((4, 6), dtype=bool)
        comp = loc.largest_component(mask)
        assert loc.bbox_of(comp) == BoundingBox(0, 0, 3, 5)

    def test_min_max_oracle(self):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 20, size=(15, 2))
        box = loc.bbox_of(pixels)
        assert box == BoundingBox(pixels[:, 0].min(), pixels[:, 1].min(),
                                  pixels[:, 0].max(), pixels[:, 1].max())

    def test_empty_component(self):
        with pytest.raises(EmptyComponent):
            loc.bbox_of(np.zeros((0, 2), dtype=int))


class TestProposeBox:
    def test_equals_manual_chain(self):
        rng = np.random.default_rng(5)
        fm = np.abs(rng.normal(size=(4, 4, 8)))
        rep = np.abs(rng.normal(size=8)) + 0.1
        got = loc.propose_box(fm, rep, 0.5, 32, 32)
        sm = loc.similarity_map(fm, rep)
        up = bilinear_resize(sm, 32, 32)
        mask = loc.segment_mask(up, 0.5)
        want = loc.bbox_of(loc.largest_component(mask))
        assert got == want

    def test_dominant_cell(self):
        # one cell aligned with the representation, the rest orthogonal
        fm = np.zeros((4, 4, 3))
        fm[1, 2] = [2.0, 0.0, 0.0]
        fm[0, 0] = [0.0, 1.0, 0.0]
        rep = np.array([1.0, 0.0, 0.0])
        got = loc.propose_box(fm, rep, 0.5, 32, 32)
        # compositional oracle: chain the public steps directly
        up = bilinear_resize(loc.similarity_map(fm, rep), 32, 32)
        want = loc.bbox_of(loc.largest_component(loc.segment_mask(up, 0.5)))
        assert got == want
        # frozen: the hot cell upsamples to triangular lobes peaked at
        # (11.5, 19.5); the half-max region spans rows 8..15, cols 16..23
        assert got == BoundingBox(8, 16, 15, 23)

    def test_degenerate_map_falls_back_to_full_image(self):
        fm = np.zeros((4, 4, 2))
        fm[2, 2] = [-1.0, -1.0]     # similarity everywhere <= 0
        box = loc.propose_box(fm, np.array([1.0, 1.0]), 0.5, 32, 32)
        assert box == BoundingBox(0, 0, 31, 31)

    def test_fm_scaling_leaves_box_unchanged(self):
        rng = np.random.default_rng(6)
        fm = np.abs(rng.normal(size=(4, 4, 5)))
        rep = np.abs(rng.normal(size=5)) + 0.1
        a = loc.propose_box(fm, rep, 0.5, 32, 32)
        b = loc.propose_box(fm * 7.5, rep, 0.5, 32, 32)
        assert a == b

    def test_box_contains_component_tightly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fm = np.abs(rng.normal(size=(4, 4, 3)))
            rep = np.abs(rng.normal(size=3)) + 0.1
            sm = loc.similarity_map(fm, rep)
            up = bilinear_resize(sm, 24, 24)
            mask = loc.segment_mask(up, 0.6)
            comp = loc.largest_component(mask)
            box = loc.bbox_of(comp)
            ys, xs = comp[:, 0], comp[:, 1]
            assert box.y0 == ys.min() and box.y1 == ys.max()
            assert box.x0 == xs.min() and box.x1 == xs.max()


class TestLocalizeQuery:
    def test_prototype_and_refined_reps_both_valid(self):
        # different representations may yield different boxes; both must be
        # legal boxes, no equality is asserted
        rng = np.random.default_rng(9)
        fm = np.abs(rng.normal(size=(4, 4, 6)))
        for rep in (np.abs(rng.normal(size=6)) + 0.1,
                    np.abs(rng.normal(size=6)) + 0.1):
            b = loc.propose_box(fm, rep, 0.5, 16, 16)
            assert 0 <= b.y0 <= b.y1 < 16 and 0 <= b.x0 <= b.x1 < 16


class TestIoU:
    def test_identical_boxes(self):
        assert loc.iou(BoundingBox(1, 1, 4, 4), BoundingBox(1, 1, 4, 4)) == 1.0

    def test_disjoint_boxes(self):
        assert loc.iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        # 2x2 boxes sharing a 1x2 strip: inter 2, union 6
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(1, 0, 2, 1)
        assert abs(loc.iou(a, b) - 2.0 / 6.0) <= 1e-15
