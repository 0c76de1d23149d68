import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import roi
from protoloc.dataset import Episode, SplitData
from protoloc.encoder import CacheMismatch, EncoderArch
from protoloc.config import RunConfig
from protoloc.episodic import distance_logit_loss, episode_loss_and_gradient
from protoloc.kernels import ShapeError, global_avg_pool_batch
from protoloc.localization import BoundingBox

from oracles import fd_grad, rel_err, roi_align_dense, roi_align_reference

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def feature(fm, box, image_extents, cfg=(3, 2)):
    """roi_feature of one map at cfg = (grid, samples): row 0 of a stack of one."""
    return roi.roi_feature(np.asarray(fm)[None], np.array([box]), image_extents, *cfg)[0][0]


def feature_vjp(fm, box, image_extents, cfg, grad):
    """roi_feature_vjp of one map, through the weights its forward call
    returns: row 0 of a stack of one."""
    _, weights = roi.roi_feature(np.asarray(fm)[None], np.array([box]), image_extents, *cfg)
    return roi.roi_feature_vjp(weights, np.asarray(grad)[None])[0]


def bin_mean_reference(fm, box, image_extents, cfg):
    """The RoI feature as the mean over the loop oracle's grid x grid bins."""
    return roi_align_reference(fm, box, image_extents, *cfg).mean(axis=(0, 1))


class TestRoiAlign:
    """roi_feature against the bin-level loop oracles, averaged over bins."""

    def test_constant_fm_any_box(self):
        fm = np.full((4, 4, 3), 2.5)
        for box in [BoundingBox(0, 0, 31, 31), BoundingBox(5, 9, 12, 20),
                    BoundingBox(3, 3, 3, 3)]:
            out = feature(fm, box, (32, 32), (3, 2))
            np.testing.assert_allclose(out, 2.5, rtol=0, atol=1e-12)

    def test_linear_field_analytic_means(self):
        # channel 0 = column index, channel 1 = row index; bilinear sampling
        # is exact on linear fields, so the feature is the mean sample
        # coordinate in the cell-center frame
        cols, rows = np.meshgrid(np.arange(8.0), np.arange(8.0))
        fm = np.stack([cols, rows], axis=2)
        cfg = (2, 2)
        # full image, 32x32 -> feature [0, 8): sample centers 1,3,5,7 -> 0.5..6.5
        full = feature(fm, BoundingBox(0, 0, 31, 31), (32, 32), cfg)
        np.testing.assert_allclose(full, [3.5, 3.5], rtol=0, atol=1e-12)
        # right half, top quarter: x in [4, 8) samples 4, 5, 6, 7; y in
        # [0, 2) samples -0.25 (clamped to 0), 0.25, 0.75, 1.25
        part = feature(fm, BoundingBox(0, 16, 7, 31), (32, 32), cfg)
        np.testing.assert_allclose(part, [5.5, 2.25 / 4], rtol=0, atol=1e-12)

    def test_matches_stated_position_reference(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(6, 6, 4))
        for box in [BoundingBox(2, 5, 17, 26), BoundingBox(0, 0, 31, 31),
                    BoundingBox(10, 10, 12, 14)]:
            for cfg in [(3, 2), (2, 3), (1, 1)]:
                got = feature(fm, box, (32, 32), cfg)
                want = bin_mean_reference(fm, box, (32, 32), cfg)
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_dense_oversampling_oracle(self):
        # unit-interval fields, the scale the encoder's relu features live at
        rng = np.random.default_rng(1)
        for _ in range(3):
            fm = rng.uniform(size=(6, 6, 3))
            box = BoundingBox(3, 4, 20, 27)
            got = feature(fm, box, (32, 32), (3, 2))
            dense = roi_align_dense(fm, box, (32, 32), grid=3, samples=64).mean(axis=(0, 1))
            assert np.max(np.abs(got - dense)) <= 0.05

    def test_box_outside_image_raises(self):
        fm = np.zeros((4, 4, 1))
        for box in [BoundingBox(0, 0, 32, 31), BoundingBox(-1, 0, 3, 3)]:
            with pytest.raises(ShapeError):
                feature(fm, box, (32, 32))
            with pytest.raises(ShapeError):
                feature_vjp(fm, box, (32, 32), (3, 2), np.ones(1))
        with pytest.raises(ShapeError):       # one map, not a stack of maps
            roi.roi_feature(fm, np.array([[0, 0, 3, 3]]), (32, 32), 3, 2)


class TestRoiFeature:
    def test_constant_fm(self):
        fm = np.full((4, 4, 5), -1.25)
        out = feature(fm, BoundingBox(2, 3, 10, 11), (32, 32))
        np.testing.assert_allclose(out, -1.25, rtol=0, atol=1e-12)

    def test_degenerate_config_is_center_sample(self):
        # grid=1, samples=1, same-size image: a single-pixel box samples the
        # box center, which lands exactly on the cell
        rng = np.random.default_rng(2)
        fm = rng.normal(size=(6, 6, 3))
        out = feature(fm, BoundingBox(2, 3, 2, 3), (6, 6), (1, 1))
        np.testing.assert_allclose(out, fm[2, 3], rtol=0, atol=1e-15)

    def test_mean_of_bins_oracle(self):
        # non-square map and image: rows and columns scale independently
        rng = np.random.default_rng(3)
        fm = rng.normal(size=(5, 3, 4))
        box = BoundingBox(4, 4, 27, 20)
        cfg = (3, 2)
        want = bin_mean_reference(fm, box, (32, 24), cfg)
        assert np.max(np.abs(feature(fm, box, (32, 24), cfg) - want)) <= 1e-12

    def test_full_box_aligned_grid_equals_gap(self):
        # same-size geometry, grid = h, samples = 1: sample points land on
        # every cell center, so pooling the bins is exactly GAP
        rng = np.random.default_rng(4)
        fm = rng.normal(size=(4, 4, 3))
        out = feature(fm, BoundingBox(0, 0, 3, 3), (4, 4), (4, 1))
        np.testing.assert_allclose(out, global_avg_pool_batch(fm[None])[0], rtol=0, atol=1e-12)

    def test_constant_fm_equals_gap_any_geometry(self):
        fm = np.full((4, 4, 2), 0.75)
        out = feature(fm, BoundingBox(5, 5, 20, 30), (32, 32), (3, 2))
        np.testing.assert_allclose(out, global_avg_pool_batch(fm[None])[0], rtol=0, atol=1e-12)

    def test_step_field_monotonicity(self):
        # fm is a step field, larger on the right half; shrinking the box
        # into the larger region raises every channel of the feature
        fm = np.zeros((4, 4, 2))
        fm[:, 2:] = 3.0
        wide = feature(fm, BoundingBox(0, 0, 31, 31), (32, 32))
        right = feature(fm, BoundingBox(0, 20, 31, 31), (32, 32))
        assert np.all(right >= wide)


class TestStackChecks:
    """A bad box or a box count that is not the map count fails before any
    cell weight is read or feature computed; the adjoint reads the weights
    of a checked forward call, and fails on grads that are not (N, D')."""

    FMS = np.zeros((3, 4, 4, 2))
    BOXES = np.array([[0, 0, 31, 31], [2, 3, 10, 11], [5, 5, 20, 30]])

    def calls(self, boxes, grads=np.zeros((3, 2))):
        yield lambda: roi.roi_feature(self.FMS, boxes, (32, 32), 3, 2)
        yield lambda: roi.roi_feature_vjp(roi.roi_feature(self.FMS, boxes, (32, 32), 3, 2)[1],
                                          grads)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_one_out_of_image_row_is_named(self, row):
        boxes = self.BOXES.copy()
        boxes[row] = [4, 4, 3, 9] if row == 1 else [0, 0, 31, 32]
        roi._cell_weights.cache_clear()
        for call in self.calls(boxes):
            with pytest.raises(ShapeError, match=rf"box row {row} \("):
                call()
        assert roi._cell_weights.cache_info().currsize == 0

    def test_box_count_must_be_the_map_count(self):
        # and the boxes are pixel rows: a float stack is refused, not truncated
        for boxes in (self.BOXES[:2], np.vstack([self.BOXES, self.BOXES[:1]]),
                      self.BOXES[:, :3], self.BOXES.ravel(), self.BOXES + 0.5):
            for call in self.calls(boxes):
                with pytest.raises(ShapeError, match="are not an"):
                    call()

    def test_grads_must_be_n_by_d(self):
        # each of these would broadcast against the (3, 4, 4) cell weights;
        # an (N, D') grad is the adjoint of D' channels, shaped (N, h, w, D')
        _, weights = roi.roi_feature(self.FMS, self.BOXES, (32, 32), 3, 2)
        for grads in (np.zeros(2), np.zeros((1, 2)), np.zeros((3, 1, 1, 2))):
            with pytest.raises(CacheMismatch, match="grads shape"):
                roi.roi_feature_vjp(weights, grads)
        for d in (1, 2, 3):
            assert roi.roi_feature_vjp(weights, np.ones((3, d))).shape == (3, 4, 4, d)


class TestCellWeightCache:
    """Cell weights are cached per (span, axis, config); a hit must hand back
    the bits a fresh computation gives, and nothing may write into them."""

    BOX = BoundingBox(3, 5, 20, 27)

    def test_cached_weights_are_read_only(self):
        # the weight stacks roi_feature returns are gathered copies; the cache
        # entries they are read from stay read-only
        roi._cell_weights.cache_clear()
        _, (ay, ax) = roi.roi_feature(np.zeros((1, 4, 6, 2)), [self.BOX], (32, 48), 3, 2)
        ay[...], ax[...] = 1.0, 1.0
        for p0, p1, n, size in [(3, 20, 4, 32), (5, 27, 6, 48)]:
            cached = roi._cell_weights(p0, p1, n, size, 3, 2)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1.0
            assert not np.any(cached == 1.0)
        assert roi._cell_weights.cache_info().currsize == 2

    def test_hits_equal_fresh_computation_bitwise(self):
        rng = np.random.default_rng(11)
        fm, grad = rng.normal(size=(4, 6, 3)), rng.normal(size=3)
        runs = []
        for clear in (True, False, True):
            if clear:
                roi._cell_weights.cache_clear()
            runs.append((feature(fm, self.BOX, (32, 48), (3, 2)),
                         feature_vjp(fm, self.BOX, (32, 48), (3, 2), grad)))
        for feat, vjp in runs[1:]:
            np.testing.assert_array_equal(feat, runs[0][0])
            np.testing.assert_array_equal(vjp, runs[0][1])

    def test_int_and_int64_coordinates_share_an_entry(self):
        fm = np.ones((4, 4, 2))
        roi._cell_weights.cache_clear()
        roi.roi_feature(fm[None], [self.BOX], (32, 32), 3, 2)
        before = roi._cell_weights.cache_info()
        stack = np.array([self.BOX], dtype=np.int64)
        roi.roi_feature(fm[None], stack, np.array([32, 32]), 3, 2)
        after = roi._cell_weights.cache_info()
        assert (after.hits - before.hits, after.misses, after.currsize) == (2, 2, 2)


class TestRefineRepresentation:
    """Refined representations are per-class means of RoI features; with
    lambda = 1 the episode loss is the base term plus the loss against them."""

    @pytest.fixture(autouse=True)
    def _fix_boxes(self, fix_boxes):
        self.fix_boxes = fix_boxes

    def losses(self, seed, n_way, k_shot, boxes, images=None):
        params = enc.init_params(SMALL, seed)
        rng = np.random.default_rng(seed)
        ns, nq = n_way * k_shot, 2 * n_way
        if images is None:
            images = rng.uniform(size=(ns + nq, 16, 16, 3))
        # the supports are the split's first N*K rows, the queries the rest
        split = SplitData("tiny", images, np.arange(ns + nq),
                          np.tile([2, 2, 10, 10], (ns + nq, 1)))
        episode = Episode(split, n_way, k_shot, np.arange(ns), np.arange(ns, ns + nq))
        self.fix_boxes(boxes)
        cfg = RunConfig(arch_blocks=2, arch_channels=(4, 6), arch_input_size=16, image_size=16,
                        temperature=8.0)
        got, grad, _ = episode_loss_and_gradient(params, episode, cfg, 1.0)
        fms, _ = enc.forward_batch(params, images)
        emb = global_avg_pool_batch(fms)
        feats, _ = roi.roi_feature(fms[:ns], boxes, (16, 16), cfg.roi_grid, cfg.roi_samples)
        protos = emb[:ns].reshape(n_way, k_shot, -1).mean(axis=1)
        base = distance_logit_loss(emb[ns:], episode.query_labels, protos, 8.0)[0]
        return got, grad, base, feats, emb[ns:], episode.query_labels

    def test_single_item(self):
        boxes = [BoundingBox(2, 2, 12, 12), BoundingBox(0, 3, 9, 15)]
        got, _, base, feats, q_emb, labels = self.losses(5, 2, 1, boxes)
        refined = distance_logit_loss(q_emb, labels, np.stack(feats), 8.0)[0]
        assert got == base + refined

    def test_constant_fms_any_boxes(self):
        # zero images under zero biases give all-zero feature maps: every
        # representation and embedding coincides, each term is log N
        boxes = [BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 15, 15),
                 BoundingBox(2, 9, 3, 12)]
        got, _, _, feats, _, _ = self.losses(6, 3, 1, boxes, np.zeros((9, 16, 16, 3)))
        assert not np.any(feats)
        assert abs(got - 2.0 * np.log(3)) <= 1e-12

    def test_mean_oracle_and_permutation_invariance(self):
        boxes = [BoundingBox(1, 1, 14, 14), BoundingBox(0, 0, 15, 15),
                 BoundingBox(3, 2, 9, 12), BoundingBox(5, 5, 15, 10)]
        got, grad, base, feats, q_emb, labels = self.losses(7, 2, 2, boxes)
        refined = np.stack([(feats[2 * c] + feats[2 * c + 1]) / 2 for c in range(2)])
        want = base + distance_logit_loss(q_emb, labels, refined, 8.0)[0]
        assert abs(got - want) <= 1e-15
        # fixed summation order: identical input order gives identical bits
        again, grad_again, *_ = self.losses(7, 2, 2, boxes)
        assert again == got
        np.testing.assert_array_equal(grad_again, grad)


class TestRoiAlignVjp:
    def test_zero_grad(self):
        fm = np.random.default_rng(7).normal(size=(4, 4, 2))
        g = feature_vjp(fm, BoundingBox(0, 0, 31, 31), (32, 32), (3, 2), np.zeros(2))
        assert not g.any()

    def test_partition_of_unity_single_sample(self):
        fm = np.zeros((4, 4, 1))
        cfg = (1, 1)
        for box in [BoundingBox(5, 9, 12, 20), BoundingBox(0, 0, 31, 31),
                    BoundingBox(0, 0, 2, 2), BoundingBox(29, 29, 31, 31)]:
            g = feature_vjp(fm, box, (32, 32), cfg, np.ones(1))
            assert np.count_nonzero(g) <= 4
            assert abs(g.sum() - 1.0) <= 1e-12

    def test_grad_shape_mismatch(self):
        # a grad must have the weights' N rows: a (D,) or (1, D) grad would
        # broadcast to an (N, h, w, D) gradient
        _, weights = roi.roi_feature(np.zeros((2, 4, 4, 2)), np.tile([0, 0, 31, 31], (2, 1)),
                                     (32, 32), 3, 2)
        for grad in [np.zeros(2), np.zeros((1, 2)), np.zeros((3, 2)), np.zeros((3, 3, 2))]:
            with pytest.raises(CacheMismatch):
                roi.roi_feature_vjp(weights, grad)

    def test_finite_differences(self):
        # non-square geometry, box on the image edges: the outer samples
        # fall on the clamped border cells
        rng = np.random.default_rng(8)
        fm = rng.normal(size=(5, 4, 3))
        box = BoundingBox(0, 6, 31, 23)
        cfg = (2, 3)
        g = rng.normal(size=3)

        def loss(flat):
            return float(feature(flat.reshape(fm.shape), box, (32, 24), cfg) @ g)

        grad = feature_vjp(fm, box, (32, 24), cfg, g)
        assert rel_err(grad.ravel(), fd_grad(loss, fm.ravel())) <= 1e-6

    def test_feature_vjp_finite_differences(self):
        rng = np.random.default_rng(9)
        fm = rng.normal(size=(4, 4, 2))
        box = BoundingBox(2, 2, 29, 25)
        cfg = (3, 2)
        g = rng.normal(size=2)

        def loss(flat):
            return float(feature(flat.reshape(fm.shape), box, (32, 32), cfg) @ g)

        grad = feature_vjp(fm, box, (32, 32), cfg, g)
        assert rel_err(grad.ravel(), fd_grad(loss, fm.ravel())) <= 1e-6
