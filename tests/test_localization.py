import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from protoloc import localization as loc
from protoloc.kernels import ShapeError, bilinear_resize
from protoloc.localization import BoundingBox, DegenerateRepresentation

from oracles import (blob_masks, component_box_oracle, flood_fill_components, iou_oracle,
                     propose_box_oracle)


class TestSimilarityMap:
    def test_constant_fm_equal_to_rep(self):
        rep = np.array([3.0, 4.0])
        fm = np.broadcast_to(rep, (2, 3, 2)).copy()
        sm, = loc.similarity_map(fm[None], rep[None])
        np.testing.assert_allclose(sm, 5.0, rtol=0, atol=1e-12)   # ||rep|| = 5

    def test_orthogonal_cell_is_zero(self):
        fm = np.zeros((2, 2, 2))
        fm[0, 1] = [0.0, 2.0]
        sm, = loc.similarity_map(fm[None], np.array([[1.0, 0.0]]))
        assert sm[0, 1] == 0.0

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(2, 2, 3))
        rep = rng.normal(size=3)
        sm, = loc.similarity_map(fm[None], rep[None])
        unit = rep / np.linalg.norm(rep)
        for i in range(2):
            for j in range(2):
                assert abs(sm[i, j] - float(unit @ fm[i, j])) <= 1e-12

    def test_rep_scale_invariance(self):
        rng = np.random.default_rng(1)
        fm = rng.normal(size=(3, 3, 4))
        rep = rng.normal(size=4)
        a = loc.similarity_map(fm[None], rep[None])
        b = loc.similarity_map(fm[None], 2.5 * rep[None])
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
            loc.similarity_map(np.zeros((1, 2, 2, 3)), np.zeros((1, 3)))


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

    @pytest.mark.parametrize("tau", [0.3, 0.5, 1.0])
    def test_one_comparison_equals_threshold_and_positive_max(self, tau):
        # planes all negative, all zero, all +-inf, and planes holding NaN,
        # +inf or -inf (NaN and +inf together too), beside ordinary ones
        rng = np.random.default_rng(int(10 * tau))
        base = rng.normal(size=(4, 5))
        planes = [base, np.abs(base), -np.abs(base) - 0.1, np.zeros((4, 5)),
                  np.full((4, 5), np.inf), np.full((4, 5), -np.inf), np.full((4, 5), np.nan)]
        for marks in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf], [np.inf, -np.inf]):
            for sign in (1.0, -1.0):
                plane = sign * np.abs(base)
                plane.flat[rng.choice(20, size=len(marks), replace=False)] = marks
                planes.append(plane)
        up = np.stack(planes)
        mx = up.max(axis=(-2, -1), keepdims=True)
        np.testing.assert_array_equal(loc.segment_mask(up, tau), (up >= tau * mx) & (mx > 0))
        for plane in up:
            np.testing.assert_array_equal(loc.segment_mask(plane, tau),
                                          (plane >= tau * plane.max()) & (plane.max() > 0))

    def test_max_pixel_always_kept(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            m.flat[rng.integers(25)] = abs(m).max() + 1.0
            mask = loc.segment_mask(m, 1.0)
            assert mask[np.unravel_index(np.argmax(m), m.shape)]


class TestLargestComponent:
    def test_single_pixel(self):
        mask = np.zeros((1, 4, 4), dtype=bool)
        mask[0, 2, 1] = True
        np.testing.assert_array_equal(loc.largest_component(mask, 4), [BoundingBox(2, 1, 2, 1)])

    def test_picks_bigger_of_two(self):
        mask = np.zeros((1, 5, 5), dtype=bool)
        mask[0, 3, 3] = mask[0, 3, 4] = True                   # pair, size 2
        mask[0, 1, 0] = mask[0, 2, 0] = mask[0, 2, 1] = True   # L-shape, size 3
        np.testing.assert_array_equal(loc.largest_component(mask, 4), [BoundingBox(1, 0, 2, 1)])

    def test_diagonal_is_disconnected_at_4(self):
        mask = np.eye(3, dtype=bool)[None]
        # earliest-pixel tie rule among the three single pixels
        np.testing.assert_array_equal(loc.largest_component(mask, connectivity=4),
                                      [BoundingBox(0, 0, 0, 0)])
        np.testing.assert_array_equal(loc.largest_component(mask, connectivity=8),
                                      [BoundingBox(0, 0, 2, 2)])

    def test_tie_goes_to_the_earliest_first_pixel(self):
        # two size-12 components whose first pixels share row 0: a 2 x 6 block
        # from (0, 2), and a hook from (0, 9) whose foot reaches column 1, so
        # its box starts left of the block's; plane 1 is plane 0 mirrored
        mask = np.zeros((2, 4, 12), dtype=bool)
        mask[0, 0:2, 2:8] = mask[0, 0:4, 9] = mask[0, 3, 1:10] = True
        mask[1] = mask[0, :, ::-1]
        for connectivity in (4, 8):
            np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                          [BoundingBox(0, 2, 1, 7), BoundingBox(0, 2, 3, 10)])

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_planes_are_labelled_apart(self, connectivity):
        # a pair on plane 0's bottom row over a pair on plane 1's top row:
        # joined across the planes they would be the largest component of both
        mask = np.zeros((2, 4, 6), dtype=bool)
        mask[0, 3, 0:2] = mask[1, 0, 0:2] = True
        mask[0, 0, 3:6] = mask[1, 2, 3:6] = True
        np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                      [BoundingBox(0, 3, 0, 5), BoundingBox(2, 3, 2, 5)])

    def test_empty_mask(self):
        # a plane with no true pixel gets the full-image box
        np.testing.assert_array_equal(loc.largest_component(np.zeros((1, 3, 4), dtype=bool), 4),
                                      [BoundingBox(0, 0, 2, 3)])

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(3)
        ties = 0
        for _ in range(40):
            n = int(rng.integers(1, 9))
            h, w = (int(v) for v in rng.integers(1, 17, size=2))
            mask = rng.uniform(size=(n, h, w)) < rng.uniform(0.1, 0.7)
            mask[rng.uniform(size=n) < 0.25] = False
            boxes = loc.largest_component(mask, connectivity)
            assert boxes.shape == (n, 4) and boxes.dtype == np.int64
            np.testing.assert_array_equal(
                boxes, [component_box_oracle(plane, connectivity) for plane in mask])
            for m in mask:
                sizes = [len(c) for c in flood_fill_components(m, connectivity)]
                ties += sizes.count(max(sizes, default=0)) > 1
        assert ties


class TestBboxOf:
    """The box that largest_component reads off each plane's winning component."""

    def test_single_pixel(self):
        mask = np.zeros((1, 10, 10), dtype=bool)
        mask[0, 3, 5] = True
        np.testing.assert_array_equal(loc.largest_component(mask, 4), [BoundingBox(3, 5, 3, 5)])

    def test_full_image(self):
        mask = np.ones((1, 4, 6), dtype=bool)
        np.testing.assert_array_equal(loc.largest_component(mask, 4), [BoundingBox(0, 0, 3, 5)])

    def test_min_max_oracle(self):
        # one cross per plane, a connected shape whose box is the extent of its arms
        rng = np.random.default_rng(4)
        mask = np.zeros((6, 20, 23), dtype=bool)
        want = []
        for plane in mask:
            y0, y1 = np.sort(rng.integers(0, 20, size=2))
            x0, x1 = np.sort(rng.integers(0, 23, size=2))
            y, x = rng.integers(y0, y1 + 1), rng.integers(x0, x1 + 1)
            plane[y0:y1 + 1, x] = plane[y, x0:x1 + 1] = True
            want.append(BoundingBox(y0, x0, y1, x1))
        boxes = loc.largest_component(mask, 4)
        assert boxes.shape == (6, 4) and boxes.dtype == np.int64
        np.testing.assert_array_equal(boxes, want)

    def test_empty_component(self):
        # an empty plane is a map with no positive value: full-image fallback
        mask = np.zeros((3, 4, 6), dtype=bool)
        mask[0, 1, 2] = mask[2, 3, 0] = True
        np.testing.assert_array_equal(loc.largest_component(mask, 4), [
            BoundingBox(1, 2, 1, 2), BoundingBox(0, 0, 3, 5), BoundingBox(3, 0, 3, 0)])
        for connectivity in (4, 8):
            none = loc.largest_component(np.zeros((0, 4, 6), dtype=bool), connectivity)
            assert none.shape == (0, 4) and none.dtype == np.int64


def _plane(*rows):
    """A boolean plane drawn as text rows, '#' true and '.' false."""
    return np.array([[c == "#" for c in row] for row in rows])


# Planes that are not one band, each with the rule it breaks
NOT_ONE_BAND = {
    "u_shape": _plane("#...#", "#...#", "#####"),                # two runs in a row
    "ring": _plane("#####", "#...#", "#####"),                   # two runs in a row
    "side_by_side": _plane("##.###", "##.###"),                  # two runs, two components
    "two_bands": _plane("###..", ".....", ".####"),              # an empty row between runs
    "diagonal_touch": _plane("##...", "..###", "....."),         # runs share no column
    "diagonal_pixels": _plane("#..", ".#.", "..#"),              # steps share no column
}
ONE_BAND = {
    "empty": np.zeros((3, 5), dtype=bool),
    "full": np.ones((3, 5), dtype=bool),
    "single_pixel": _plane(".....", "..#..", "....."),
    "one_column_staircase": _plane("###....", "..###..", "....###"),  # steps share one column
    "diamond": _plane("..#..", ".###.", "#####", ".###.", "..#.."),
    "column": _plane(".#.", ".#.", ".#."),
}


def _padded(planes, h=7, w=8):
    """Planes as one (N, h, w) stack, each at the top left of a false plane."""
    stack = np.zeros((len(planes), h, w), dtype=bool)
    for out, plane in zip(stack, planes):
        out[:plane.shape[0], :plane.shape[1]] = plane
    return stack


class Labelled(Exception):
    """Raised by a stand-in for localization._label."""


@pytest.fixture
def no_labelling(monkeypatch):
    def label(*args):
        raise Labelled
    monkeypatch.setattr(loc, "_label", label)


class TestOneBand:
    """largest_component boxes one-band planes without labelling them."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(NOT_ONE_BAND) + sorted(ONE_BAND))
    def test_shape_matches_component_oracle(self, name, connectivity):
        plane = {**NOT_ONE_BAND, **ONE_BAND}[name]
        for mask in (plane[None], _padded([plane])):
            np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                          [component_box_oracle(mask[0], connectivity)])

    def test_diagonal_runs_are_two_components_at_4_and_one_at_8(self):
        plane = NOT_ONE_BAND["diagonal_touch"]
        assert len(flood_fill_components(plane, 4)) == 2
        assert len(flood_fill_components(plane, 8)) == 1
        np.testing.assert_array_equal(loc.largest_component(plane[None], 4), [(1, 2, 1, 4)])
        np.testing.assert_array_equal(loc.largest_component(plane[None], 8), [(0, 0, 1, 4)])

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_mixed_stack_matches_component_oracle(self, connectivity):
        # labelled and unlabelled planes interleaved in one stack
        planes = [p for pair in zip(NOT_ONE_BAND.values(), ONE_BAND.values()) for p in pair]
        mask = _padded(planes)
        np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                      [component_box_oracle(m, connectivity) for m in mask])

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_one_band_planes_are_never_labelled(self, no_labelling, connectivity):
        mask = _padded(list(ONE_BAND.values()))
        np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                      [component_box_oracle(m, connectivity) for m in mask])

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(NOT_ONE_BAND))
    def test_a_plane_that_is_not_one_band_reaches_the_label_call(self, no_labelling,
                                                                 name, connectivity):
        mask = _padded(list(ONE_BAND.values()) + [NOT_ONE_BAND[name]])
        with pytest.raises(Labelled):
            loc.largest_component(mask, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_blob_stacks_match_component_oracle(self, monkeypatch, connectivity):
        label = loc._label
        labelled = []

        def counting(mask, connectivity):
            labelled.append(len(mask))
            return label(mask, connectivity)
        monkeypatch.setattr(loc, "_label", counting)
        rng = np.random.default_rng(connectivity)
        planes = 0
        for _ in range(30):
            n = int(rng.integers(1, 13))
            h, w = (int(v) for v in rng.integers(1, 25, size=2))
            mask = blob_masks(rng, n, h, w, rng.uniform(0.3, 0.95))
            np.testing.assert_array_equal(loc.largest_component(mask, connectivity),
                                          [component_box_oracle(m, connectivity) for m in mask])
            planes += n
        # both paths ran: some planes were labelled, the others were not
        assert 0 < sum(labelled) < planes


class TestLabel:
    """_label's runs tile the mask in row-major order, and its ids group them
    into the components the flood-fill oracle finds, plane by plane."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_components_match_flood_fill(self, connectivity):
        rng = np.random.default_rng(10 + connectivity)
        shapes = list(NOT_ONE_BAND.values()) + list(ONE_BAND.values())
        stacks = [_padded(shapes), _padded(shapes[::-1], h=8)]
        for _ in range(20):
            n = int(rng.integers(1, 9))
            h, w = (int(v) for v in rng.integers(1, 25, size=2))
            stacks.append(blob_masks(rng, n, h, w, rng.uniform(0.3, 0.95)))
            stacks.append(rng.uniform(size=(n, h, w)) < rng.uniform(0.1, 0.7))
        for mask in stacks:
            spans, comp = loc._label(mask, connectivity)
            assert spans.tolist() == sorted(spans.tolist())
            assert (spans[:, 3] - spans[:, 2] + 1).sum() == mask.sum()
            painted = np.full(mask.shape, -1)
            planes = {}
            for (p, y, x0, x1), c in zip(spans.tolist(), comp.tolist()):
                assert not mask[p, y, x0 - 1:x0].any() and not mask[p, y, x1 + 1:x1 + 2].any()
                painted[p, y, x0:x1 + 1] = c
                assert planes.setdefault(c, p) == p             # no id spans two planes
            np.testing.assert_array_equal(painted >= 0, mask)
            for plane, ids in zip(mask, painted):
                got = sorted(sorted(zip(*np.nonzero(ids == c))) for c in np.unique(ids[ids >= 0]))
                want = sorted(sorted(c) for c in flood_fill_components(plane, connectivity))
                assert got == want


class TestLabelNumbering:
    """largest_component reads no order into the component ids _label gives."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_permuted_labels_give_the_same_boxes(self, monkeypatch, connectivity):
        label = loc._label
        rng = np.random.default_rng(connectivity)
        permuted_calls = []

        def permuted(mask, connectivity):
            # the same components, renumbered by a seeded permutation of the ids
            spans, comp = label(mask, connectivity)
            permuted_calls.append(len(mask))
            return spans, rng.permutation(len(comp))[comp]

        # two size-12 components, a block and a hook, that tie in each plane
        tie = np.zeros((4, 12), dtype=bool)
        tie[0:2, 2:8] = tie[0:4, 9] = tie[3, 1:10] = True
        shapes = [*NOT_ONE_BAND.values(), ONE_BAND["empty"], tie, tie[:, ::-1],
                  ONE_BAND["diamond"], np.tile(NOT_ONE_BAND["diagonal_pixels"], (2, 3))]
        stacks = [_padded(shapes, w=12), _padded(shapes[::-1], w=12)]
        for _ in range(20):
            n = int(rng.integers(2, 9))
            h, w = (int(v) for v in rng.integers(2, 17, size=2))
            mask = rng.uniform(size=(n, h, w)) < rng.uniform(0.1, 0.7)
            mask[rng.uniform(size=n) < 0.25] = False
            stacks.append(mask)
        wants = [[component_box_oracle(m, connectivity) for m in mask] for mask in stacks]
        sizes = [[len(c) for c in flood_fill_components(m, connectivity)]
                 for mask in stacks for m in mask]
        assert sum(s.count(max(s, default=0)) > 1 for s in sizes) >= 8     # ties
        monkeypatch.setattr(loc, "_label", permuted)
        for mask, want in zip(stacks, wants):
            for _ in range(3):
                np.testing.assert_array_equal(loc.largest_component(mask, connectivity), want)
        assert len(permuted_calls) >= 6     # the stand-in ran, on both shape stacks at least


class TestProposeBox:
    def test_equals_manual_chain(self):
        rng = np.random.default_rng(5)
        fm = np.abs(rng.normal(size=(4, 4, 8)))
        rep = np.abs(rng.normal(size=8)) + 0.1
        got, = loc.propose_boxes(fm[None], rep[None], 0.5, 32, 32, 4)
        sm, = loc.similarity_map(fm[None], rep[None])
        up = bilinear_resize(sm, 32, 32)
        mask = loc.segment_mask(up, 0.5)
        want, = loc.largest_component(mask[None], 4)
        np.testing.assert_array_equal(got, want)

    def test_dominant_cell(self):
        # one cell aligned with the representation, the rest orthogonal
        fm = np.zeros((4, 4, 3))
        fm[1, 2] = [2.0, 0.0, 0.0]
        fm[0, 0] = [0.0, 1.0, 0.0]
        rep = np.array([1.0, 0.0, 0.0])
        got, = loc.propose_boxes(fm[None], rep[None], 0.5, 32, 32, 4)
        # compositional oracle: chain the public steps directly
        up = bilinear_resize(loc.similarity_map(fm[None], rep[None])[0], 32, 32)
        want, = loc.largest_component(loc.segment_mask(up, 0.5)[None], 4)
        np.testing.assert_array_equal(got, want)
        # frozen: the hot cell upsamples to triangular lobes peaked at
        # (11.5, 19.5); the half-max region spans rows 8..15, cols 16..23
        assert got.tolist() == [8, 16, 15, 23]

    def test_returns_one_bounding_box_of_ints(self):
        # callers read the single box as a named tuple of plain ints
        rng = np.random.default_rng(8)
        box = loc.propose_box(np.abs(rng.normal(size=(4, 4, 3))), np.ones(3), 0.5, 16, 16, 4)
        assert type(box) is BoundingBox and all(type(v) is int for v in box)

    def test_equals_propose_boxes_over_a_stack_of_one(self):
        # a diagonal mask is three pixels at 4-connectivity and one component
        # at 8, so the connectivity must reach propose_boxes
        fm = np.where(np.eye(3, dtype=bool), 1.0, -1.0)[:, :, None]
        for connectivity, want in ((4, [0, 0, 0, 0]), (8, [0, 0, 2, 2])):
            box, = loc.propose_boxes(fm[None], np.ones((1, 1)), 0.5, 3, 3, connectivity)
            assert box.tolist() == want
            assert loc.propose_box(fm, np.ones(1), 0.5, 3, 3, connectivity) == BoundingBox(*want)

    def test_degenerate_map_falls_back_to_full_image(self):
        fm = np.zeros((4, 4, 2))
        fm[2, 2] = [-1.0, -1.0]     # similarity everywhere <= 0
        box, = loc.propose_boxes(fm[None], np.array([[1.0, 1.0]]), 0.5, 32, 32, 4)
        assert box.tolist() == [0, 0, 31, 31]

    def test_fm_scaling_leaves_box_unchanged(self):
        rng = np.random.default_rng(6)
        fm = np.abs(rng.normal(size=(4, 4, 5)))
        rep = np.abs(rng.normal(size=5)) + 0.1
        a, = loc.propose_boxes(fm[None], rep[None], 0.5, 32, 32, 4)
        b, = loc.propose_boxes(fm[None] * 7.5, rep[None], 0.5, 32, 32, 4)
        np.testing.assert_array_equal(a, b)

    def test_box_contains_component_tightly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fm = np.abs(rng.normal(size=(4, 4, 3)))
            rep = np.abs(rng.normal(size=3)) + 0.1
            sm, = loc.similarity_map(fm[None], rep[None])
            up = bilinear_resize(sm, 24, 24)
            mask = loc.segment_mask(up, 0.6)
            box, = loc.largest_component(mask[None], 4)
            assert mask.any()
            np.testing.assert_array_equal(box, component_box_oracle(mask))


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
                np.testing.assert_array_equal(
                    real["similarity_map"](fms[i:i + 1], reps[i:i + 1])[0], sm)
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

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_empty_stack_gives_no_boxes(self, connectivity):
        boxes = loc.propose_boxes(np.zeros((0, 4, 4, 3)), np.zeros((0, 3)), 0.5, 16, 16,
                                  connectivity)
        assert boxes.shape == (0, 4) and boxes.dtype == np.int64

    BASE = dict(fms=np.ones((2, 4, 4, 3)), reps=np.ones((2, 3)), tau=0.5,
                image_h=8, image_w=8, connectivity=4)

    @pytest.mark.parametrize("change, error, match", [
        (dict(fms=np.ones((4, 4, 3)), reps=np.ones((1, 3))), ShapeError, "not an"),
        (dict(reps=np.ones(3)), ShapeError, "not an"),
        (dict(reps=np.ones((3, 3))), ShapeError, "not an"),
        (dict(reps=np.ones((2, 4))), ShapeError, "not an"),
        (dict(reps=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
         DegenerateRepresentation, "row 1 has norm"),
        (dict(reps=np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]])),
         DegenerateRepresentation, "row 1 has norm nan, not a finite value above 1e-12"),
        (dict(reps=np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 1.0]])),
         DegenerateRepresentation, "row 1 has norm inf, not a finite value above 1e-12"),
    ], ids=["fms-ndim", "reps-ndim", "count", "depth", "zero-row", "nan-row", "inf-row"])
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
            (y0, x0, y1, x1), = loc.propose_boxes(fm[None], rep[None], 0.5, 16, 16, 4)
            assert 0 <= y0 <= y1 < 16 and 0 <= x0 <= x1 < 16


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
