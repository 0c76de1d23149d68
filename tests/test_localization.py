import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from protoloc import localization as loc
from protoloc.kernels import ShapeError, bilinear_resize
from protoloc.localization import BoundingBox, DegenerateRepresentation

from oracles import (flood_fill_components, iou_oracle, largest_component_oracle,
                     propose_box_oracle)


def pixels(component):
    return np.argwhere(component)


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

    @pytest.mark.parametrize("n", [1, 5, 75, 80])
    @pytest.mark.parametrize("d", [1, 3, 32, 64])
    def test_stack_planes_bitwise_equal_single_rep_oracle(self, n, d):
        # the norms come from one stacked call; each plane must still be the
        # map's own fm @ (rep / np.linalg.norm(rep)), bit for bit
        rng = np.random.default_rng(n * 100 + d)
        for scale in 10.0 ** np.arange(-6, 7, 3):
            fms = rng.normal(size=(n, 2, 3, d))
            reps = rng.normal(size=(n, d)) * scale
            maps = loc.similarity_map(fms, reps)
            for fm, rep, plane in zip(fms, reps, maps):
                np.testing.assert_array_equal(plane, fm @ (rep / np.linalg.norm(rep)))

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
        assert not loc.segment_mask(np.zeros((3, 3)), 0.5).any()
        # in a stack, only the nonpositive plane comes back empty
        m = np.stack([np.full((3, 3), 0.7), np.full((3, 3), -0.2), np.zeros((3, 3))])
        np.testing.assert_array_equal(loc.segment_mask(m, 0.5).any(axis=(1, 2)),
                                      [True, False, False])

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
        np.testing.assert_array_equal(loc.largest_component(mask), mask)

    def test_picks_bigger_of_two(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[1, 0] = mask[1, 1] = True     # L-shape, size 3
        mask[3, 3] = mask[3, 4] = True                   # pair, size 2
        got = {tuple(p) for p in pixels(loc.largest_component(mask))}
        assert got == {(0, 0), (1, 0), (1, 1)}

    def test_diagonal_is_disconnected_at_4(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        got = pixels(loc.largest_component(mask, connectivity=4))
        np.testing.assert_array_equal(got, [[0, 0]])     # earliest-pixel tie rule
        got8 = pixels(loc.largest_component(mask, connectivity=8))
        assert got8.shape == (3, 2)

    def test_empty_mask(self):
        assert not loc.largest_component(np.zeros((3, 3), dtype=bool)).any()

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h, w = rng.integers(1, 17, size=2)
            mask = rng.uniform(size=(h, w)) < 0.45
            if not mask.any():
                continue
            got = sorted(tuple(p) for p in pixels(loc.largest_component(mask, connectivity)))
            want = largest_component_oracle(mask, connectivity)
            assert got == want


class TestBboxOf:
    def test_single_pixel(self):
        comp = np.zeros((1, 10, 10), dtype=bool)
        comp[0, 3, 5] = True
        np.testing.assert_array_equal(loc.bbox_of(comp), [BoundingBox(3, 5, 3, 5)])

    def test_full_image(self):
        mask = np.ones((1, 4, 6), dtype=bool)
        comp = loc.largest_component(mask)
        np.testing.assert_array_equal(loc.bbox_of(comp), [BoundingBox(0, 0, 3, 5)])

    def test_min_max_oracle(self):
        rng = np.random.default_rng(4)
        comps = np.zeros((6, 20, 23), dtype=bool)
        want = []
        for plane in comps:
            ys, xs = rng.integers(0, 20, size=15), rng.integers(0, 23, size=15)
            plane[ys, xs] = True
            want.append(BoundingBox(ys.min(), xs.min(), ys.max(), xs.max()))
        boxes = loc.bbox_of(comps)
        assert boxes.shape == (6, 4) and boxes.dtype == np.int64
        np.testing.assert_array_equal(boxes, want)

    def test_empty_component(self):
        # an empty plane is a map with no positive value: full-image fallback
        comps = np.zeros((3, 4, 6), dtype=bool)
        comps[0, 1, 2] = comps[2, 3, 0] = True
        np.testing.assert_array_equal(loc.bbox_of(comps), [
            BoundingBox(1, 2, 1, 2), BoundingBox(0, 0, 3, 5), BoundingBox(3, 0, 3, 0)])
        none = loc.bbox_of(np.zeros((0, 4, 6), dtype=bool))
        assert none.shape == (0, 4) and none.dtype == np.int64
        with pytest.raises(ShapeError):
            loc.bbox_of(np.zeros((4, 6), dtype=bool))


class TestProposeBox:
    def test_equals_manual_chain(self):
        rng = np.random.default_rng(5)
        fm = np.abs(rng.normal(size=(4, 4, 8)))
        rep = np.abs(rng.normal(size=8)) + 0.1
        got = loc.propose_box(fm, rep, 0.5, 32, 32)
        sm = loc.similarity_map(fm, rep)
        up = bilinear_resize(sm, 32, 32)
        mask = loc.segment_mask(up, 0.5)
        want, = loc.bbox_of(loc.largest_component(mask)[None])
        np.testing.assert_array_equal(got, want)

    def test_dominant_cell(self):
        # one cell aligned with the representation, the rest orthogonal
        fm = np.zeros((4, 4, 3))
        fm[1, 2] = [2.0, 0.0, 0.0]
        fm[0, 0] = [0.0, 1.0, 0.0]
        rep = np.array([1.0, 0.0, 0.0])
        got = loc.propose_box(fm, rep, 0.5, 32, 32)
        # compositional oracle: chain the public steps directly
        up = bilinear_resize(loc.similarity_map(fm, rep), 32, 32)
        want, = loc.bbox_of(loc.largest_component(loc.segment_mask(up, 0.5))[None])
        np.testing.assert_array_equal(got, want)
        # frozen: the hot cell upsamples to triangular lobes peaked at
        # (11.5, 19.5); the half-max region spans rows 8..15, cols 16..23
        assert got == BoundingBox(8, 16, 15, 23)

    def test_returns_one_bounding_box_of_ints(self):
        # callers read the single box as a named tuple of plain ints
        rng = np.random.default_rng(8)
        box = loc.propose_box(np.abs(rng.normal(size=(4, 4, 3))), np.ones(3), 0.5, 16, 16)
        assert type(box) is BoundingBox and all(type(v) is int for v in box)

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
            box, = loc.bbox_of(comp[None])
            ys, xs = pixels(comp).T
            np.testing.assert_array_equal(box, [ys.min(), xs.min(), ys.max(), xs.max()])


def _stack(rng, n, h, w, integer):
    """n maps and their representations. Integer maps use d = 1 and a unit
    representation, so similarity maps are integer-valued and component
    sizes tie; every fourth plane has no positive similarity."""
    if integer:
        fms = rng.integers(-1, 3, size=(n, h, w, 1)).astype(np.float64)
        reps = np.ones((n, 1))
    else:
        d = int(rng.integers(1, 65))
        fms = rng.normal(size=(n, h, w, d)) + 0.5
        reps = rng.normal(size=(n, d))
    for i in range(0, n, 4):
        fms[i] = 0.0 if i % 8 else -np.abs(fms[i]) * np.sign(reps[i])
    return fms, reps


class TestProposeBoxes:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("tau", [0.3, 0.5, 1.0])
    def test_matches_per_map_oracle_chain(self, monkeypatch, tau, connectivity):
        real = {name: getattr(loc, name) for name in ("similarity_map", "bilinear_resize")}
        seen = {}

        def recorder(name):
            def recording(*args):
                seen[name] = real[name](*args)
                return seen[name]
            return recording

        for name in real:
            monkeypatch.setattr(loc, name, recorder(name))
        rng = np.random.default_rng(int(10 * tau) + connectivity)
        ties = fallbacks = 0
        for n, integer in [(1, False), (2, True), (5, True), (13, False), (31, True), (80, False)]:
            h, w = (int(v) for v in rng.integers(1, 7, size=2))
            # a same-size resize keeps integer maps integer-valued
            image_h, image_w = (h, w) if integer else (int(v) for v in rng.integers(1, 33, size=2))
            fms, reps = _stack(rng, n, h, w, integer)
            boxes = loc.propose_boxes(fms, reps, tau, image_h, image_w, connectivity)
            assert boxes.shape == (n, 4) and boxes.dtype == np.int64
            for i in range(n):
                # today's one-map formula; an einsum over the stack changes its low bits
                sm = fms[i] @ (reps[i] / np.linalg.norm(reps[i]))
                up = real["bilinear_resize"](sm, image_h, image_w)
                np.testing.assert_array_equal(real["similarity_map"](fms[i], reps[i]), sm)
                np.testing.assert_array_equal(seen["similarity_map"][i], sm)
                np.testing.assert_array_equal(seen["bilinear_resize"][i], up)
                np.testing.assert_array_equal(boxes[i], propose_box_oracle(
                    fms[i], reps[i], tau, image_h, image_w, connectivity))
                if up.max() <= 0.0:
                    fallbacks += 1
                    continue
                sizes = [len(c) for c in flood_fill_components(up >= tau * up.max(),
                                                               connectivity)]
                ties += sizes.count(max(sizes)) > 1
        assert ties and fallbacks

    BASE = dict(fms=np.ones((2, 4, 4, 3)), reps=np.ones((2, 3)), tau=0.5,
                image_h=8, image_w=8, connectivity=4)

    @pytest.mark.parametrize("change, error, match", [
        (dict(fms=np.ones((4, 4, 3)), reps=np.ones((1, 3))), ShapeError, "not an"),
        (dict(reps=np.ones(3)), ShapeError, "not an"),
        (dict(reps=np.ones((3, 3))), ShapeError, "not an"),
        (dict(reps=np.ones((2, 4))), ShapeError, "not an"),
        (dict(reps=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
         DegenerateRepresentation, "row 1 has norm"),
        (dict(tau=0.0), ValueError, "tau"),
        (dict(tau=1.5), ValueError, "tau"),
        (dict(connectivity=6), ValueError, "connectivity"),
    ], ids=["fms-ndim", "reps-ndim", "count", "depth", "zero-row", "tau-0", "tau-1.5",
            "connectivity"])
    def test_rejects_bad_input_before_any_work(self, monkeypatch, change, error, match):
        stages = []

        def entering(name, fn=None):
            def stage(*args):
                stages.append(name)
                return fn(*args)
            return stage

        monkeypatch.setattr(loc, "similarity_map", entering("similarity_map", loc.similarity_map))
        for name in ("bilinear_resize", "segment_mask", "largest_component"):
            monkeypatch.setattr(loc, name, entering(name))
        with pytest.raises(error, match=match) as excinfo:
            loc.propose_boxes(**{**self.BASE, **change})
        assert excinfo.type is error
        # similarity_map checks every norm before it computes any map
        assert stages == (["similarity_map"] if error is DegenerateRepresentation else [])


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


@st.composite
def _box(draw):
    y0, y1 = sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=2)))
    x0, x1 = sorted(draw(st.lists(st.integers(0, 12), min_size=2, max_size=2)))
    return BoundingBox(y0, x0, y1, x1)


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

    @given(a=_box(), b=_box())
    @example(a=BoundingBox(0, 0, 1, 1), b=BoundingBox(5, 5, 6, 6))      # disjoint
    @example(a=BoundingBox(0, 0, 1, 1), b=BoundingBox(2, 0, 3, 1))      # adjacent, no shared pixel
    @example(a=BoundingBox(0, 0, 2, 2), b=BoundingBox(2, 2, 4, 4))      # corners share one pixel
    @example(a=BoundingBox(1, 1, 8, 8), b=BoundingBox(3, 2, 5, 6))      # nested
    @example(a=BoundingBox(4, 7, 4, 7), b=BoundingBox(4, 7, 4, 7))      # one pixel, twice
    @example(a=BoundingBox(4, 7, 4, 7), b=BoundingBox(0, 0, 12, 12))    # one pixel inside
    def test_matches_pixel_oracle(self, a, b):
        score = loc.iou(a, b)
        assert isinstance(score, float)
        assert score == iou_oracle(a, b) == loc.iou(b, a)

    @given(pairs=st.lists(st.tuples(_box(), _box()), max_size=20))
    def test_stack_call_equals_per_pair_calls(self, pairs):
        a = np.array([p for p, _ in pairs], dtype=np.int64).reshape(-1, 4)
        b = np.array([q for _, q in pairs], dtype=np.int64).reshape(-1, 4)
        scores = loc.iou(a, b)
        assert scores.shape == (len(pairs),) and scores.dtype == np.float64
        np.testing.assert_array_equal(scores, [loc.iou(p, q) for p, q in pairs])

    def test_empty_stacks_give_no_scores(self):
        none = np.zeros((0, 4), dtype=np.int64)
        assert loc.iou(none, none).shape == (0,)
