import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import roi
from protoloc.encoder import CacheMismatch, EncoderArch
from protoloc.episodic import (EmptyClass, Episode, LossConfig,
                               distance_logit_loss, episode_loss_and_gradient)
from protoloc.kernels import ShapeError, global_avg_pool_batch
from protoloc.localization import BoundingBox
from protoloc.roi import RoiConfig

from oracles import fd_grad, rel_err, roi_align_dense, roi_align_reference

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def test_config_validation():
    with pytest.raises(ValueError):
        RoiConfig(grid=0)
    with pytest.raises(ValueError):
        RoiConfig(samples=0)


class TestRoiAlign:
    def test_constant_fm_any_box(self):
        fm = np.full((4, 4, 3), 2.5)
        for box in [BoundingBox(0, 0, 31, 31), BoundingBox(5, 9, 12, 20),
                    BoundingBox(3, 3, 3, 3)]:
            out = roi.roi_align(fm, box, (32, 32), RoiConfig(3, 2))
            np.testing.assert_allclose(out, 2.5, rtol=0, atol=1e-12)

    def test_linear_field_analytic_means(self):
        # fm value = column index; bilinear sampling is exact on linear
        # fields, so each bin equals the mean of its sample x-coordinates
        fm = np.tile(np.arange(8, dtype=np.float64)[None, :, None], (8, 1, 2))
        cfg = RoiConfig(grid=2, samples=2)
        box = BoundingBox(0, 0, 31, 31)     # full image, 32x32 -> feature [0, 8)
        out = roi.roi_align(fm, box, (32, 32), cfg)
        # bins span x in [0,4) and [4,8); sample centers at 1,3 and 5,7 in
        # continuous coords -> 0.5,2.5 and 4.5,6.5 in cell-center coords
        np.testing.assert_allclose(out[:, 0], 1.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], 5.5, rtol=0, atol=1e-12)

    def test_matches_stated_position_reference(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(6, 6, 4))
        for box in [BoundingBox(2, 5, 17, 26), BoundingBox(0, 0, 31, 31),
                    BoundingBox(10, 10, 12, 14)]:
            for cfg in [RoiConfig(3, 2), RoiConfig(2, 3), RoiConfig(1, 1)]:
                got = roi.roi_align(fm, box, (32, 32), cfg)
                want = roi_align_reference(fm, box, (32, 32), cfg.grid, cfg.samples)
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_matches_dense_oversampling_oracle(self):
        # unit-interval fields, the scale the encoder's relu features live at
        rng = np.random.default_rng(1)
        for _ in range(3):
            fm = rng.uniform(size=(6, 6, 3))
            box = BoundingBox(3, 4, 20, 27)
            got = roi.roi_align(fm, box, (32, 32), RoiConfig(3, 2))
            dense = roi_align_dense(fm, box, (32, 32), grid=3, samples=64)
            assert np.max(np.abs(got - dense)) <= 0.05

    def test_box_outside_image_raises(self):
        fm = np.zeros((4, 4, 1))
        with pytest.raises(ShapeError):
            roi.roi_align(fm, BoundingBox(0, 0, 32, 31), (32, 32))
        with pytest.raises(ShapeError):
            roi.roi_align(fm, BoundingBox(-1, 0, 3, 3), (32, 32))


class TestRoiFeature:
    def test_constant_fm(self):
        fm = np.full((4, 4, 5), -1.25)
        out = roi.roi_feature(fm, BoundingBox(2, 3, 10, 11), (32, 32))
        np.testing.assert_allclose(out, -1.25, rtol=0, atol=1e-12)

    def test_degenerate_config_is_center_sample(self):
        # grid=1, samples=1, same-size image: a single-pixel box samples the
        # box center, which lands exactly on the cell
        rng = np.random.default_rng(2)
        fm = rng.normal(size=(6, 6, 3))
        out = roi.roi_feature(fm, BoundingBox(2, 3, 2, 3), (6, 6), RoiConfig(1, 1))
        np.testing.assert_allclose(out, fm[2, 3], rtol=0, atol=1e-15)

    def test_mean_of_bins_oracle(self):
        rng = np.random.default_rng(3)
        fm = rng.normal(size=(5, 5, 4))
        box = BoundingBox(4, 4, 27, 24)
        cfg = RoiConfig(3, 2)
        want = roi.roi_align(fm, box, (32, 32), cfg).mean(axis=(0, 1))
        np.testing.assert_array_equal(roi.roi_feature(fm, box, (32, 32), cfg), want)

    def test_full_box_aligned_grid_equals_gap(self):
        # same-size geometry, grid = h, samples = 1: sample points land on
        # every cell center, so pooling the bins is exactly GAP
        rng = np.random.default_rng(4)
        fm = rng.normal(size=(4, 4, 3))
        out = roi.roi_feature(fm, BoundingBox(0, 0, 3, 3), (4, 4), RoiConfig(4, 1))
        np.testing.assert_allclose(out, global_avg_pool_batch(fm[None])[0], rtol=0, atol=1e-12)

    def test_constant_fm_equals_gap_any_geometry(self):
        fm = np.full((4, 4, 2), 0.75)
        out = roi.roi_feature(fm, BoundingBox(5, 5, 20, 30), (32, 32), RoiConfig(3, 2))
        np.testing.assert_allclose(out, global_avg_pool_batch(fm[None])[0], rtol=0, atol=1e-12)

    def test_step_field_monotonicity(self):
        # fm is a step field, larger on the right half; shrinking the box
        # into the larger region raises every channel of the feature
        fm = np.zeros((4, 4, 2))
        fm[:, 2:] = 3.0
        wide = roi.roi_feature(fm, BoundingBox(0, 0, 31, 31), (32, 32))
        right = roi.roi_feature(fm, BoundingBox(0, 20, 31, 31), (32, 32))
        assert np.all(right >= wide)


class TestRefineRepresentation:
    """Refined representations are per-class means of RoI features; with
    lambda = 1 the episode loss is the base term plus the loss against them."""

    @staticmethod
    def losses(seed, n_way, k_shot, boxes, images=None):
        params = enc.init_params(SMALL, seed)
        rng = np.random.default_rng(seed)
        ns, nq = n_way * k_shot, 2 * n_way
        if images is None:
            images = rng.uniform(size=(ns + nq, 16, 16, 3))
        episode = Episode(
            n_way=n_way, k_shot=k_shot,
            support_images=images[:ns], support_labels=np.repeat(np.arange(n_way), k_shot),
            support_boxes=np.tile([2, 2, 10, 10], (ns, 1)),
            query_images=images[ns:], query_labels=np.repeat(np.arange(n_way), 2),
            query_boxes=np.tile([2, 2, 10, 10], (nq, 1)))
        got, grad = episode_loss_and_gradient(params, episode, "refined",
                                              LossConfig(8.0, 1.0), frozen_boxes=boxes)
        fms, _ = enc.forward_batch(params, images)
        emb = global_avg_pool_batch(fms)
        feats = [roi.roi_feature(fms[i], boxes[i], (16, 16)) for i in range(ns)]
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

    def test_empty_class(self):
        # a class with no supports has no refined representation to average
        with pytest.raises(EmptyClass):
            self.losses(8, 2, 0, [])


class TestRoiAlignVjp:
    def test_zero_grad(self):
        fm = np.random.default_rng(7).normal(size=(4, 4, 2))
        g = roi.roi_align_vjp(fm, BoundingBox(0, 0, 31, 31), (32, 32),
                              RoiConfig(3, 2), np.zeros((3, 3, 2)))
        assert not g.any()

    def test_partition_of_unity_single_sample(self):
        fm = np.zeros((4, 4, 1))
        cfg = RoiConfig(1, 1)
        for box in [BoundingBox(5, 9, 12, 20), BoundingBox(0, 0, 31, 31),
                    BoundingBox(0, 0, 2, 2), BoundingBox(29, 29, 31, 31)]:
            g = roi.roi_align_vjp(fm, box, (32, 32), cfg, np.ones((1, 1, 1)))
            assert np.count_nonzero(g) <= 4
            assert abs(g.sum() - 1.0) <= 1e-12

    def test_grad_shape_mismatch(self):
        fm = np.zeros((4, 4, 2))
        with pytest.raises(CacheMismatch):
            roi.roi_align_vjp(fm, BoundingBox(0, 0, 31, 31), (32, 32),
                              RoiConfig(3, 2), np.zeros((2, 2, 2)))

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        fm = rng.normal(size=(5, 5, 3))
        box = BoundingBox(3, 6, 22, 28)
        cfg = RoiConfig(3, 2)
        gout = rng.normal(size=(3, 3, 3))

        def loss(flat):
            out = roi.roi_align(flat.reshape(fm.shape), box, (32, 32), cfg)
            return float((out * gout).sum())

        grad = roi.roi_align_vjp(fm, box, (32, 32), cfg, gout)
        assert rel_err(grad.ravel(), fd_grad(loss, fm.ravel())) <= 1e-6

    def test_feature_vjp_finite_differences(self):
        rng = np.random.default_rng(9)
        fm = rng.normal(size=(4, 4, 2))
        box = BoundingBox(2, 2, 29, 25)
        cfg = RoiConfig(3, 2)
        g = rng.normal(size=2)

        def loss(flat):
            return float(roi.roi_feature(flat.reshape(fm.shape), box, (32, 32), cfg) @ g)

        grad = roi.roi_feature_vjp(fm, box, (32, 32), cfg, g)
        assert rel_err(grad.ravel(), fd_grad(loss, fm.ravel())) <= 1e-6
