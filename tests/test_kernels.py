import numpy as np
import pytest

from protoloc import kernels, roi
from protoloc.kernels import ShapeError
from protoloc.localization import BoundingBox

from oracles import conv2d_loops, fd_grad, rel_err

SINGLE = roi.RoiConfig(grid=1, samples=1)


def _point_box(fm, y, x):
    """A box, in an image 4x the map's size, whose RoIAlign center sample
    lands at continuous cell coordinates (y, x): (y0 + y1 + 1) / 8 - 1/2 = y."""
    sy, sx = 8 * y + 3, 8 * x + 3
    assert sy == int(sy) and sx == int(sx)
    box = BoundingBox(int(sy) // 2, int(sx) // 2, int(sy) - int(sy) // 2,
                      int(sx) - int(sx) // 2)
    return box, (4 * fm.shape[0], 4 * fm.shape[1])


def sample(fm, y, x):
    """Bilinear sample of fm at (y, x): one RoIAlign bin of one sample."""
    box, extents = _point_box(fm, y, x)
    return roi.roi_feature(fm, box, extents, SINGLE)


def sample_vjp(fm, y, x, g):
    box, extents = _point_box(fm, y, x)
    return roi.roi_feature_vjp(fm, box, extents, SINGLE, g)


class TestConv2d:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        k = np.eye(3)[None, None]           # 1x1xCxC identity over channels
        out = kernels.conv2d_batch(x[None], k, np.zeros(3), stride=1, pad=0)
        np.testing.assert_array_equal(out[0], x)

    def test_zero_input_gives_bias(self):
        k = np.random.default_rng(1).normal(size=(3, 3, 2, 4))
        bias = np.array([0.5, -1.0, 2.0, 0.0])
        out = kernels.conv2d_batch(np.zeros((2, 6, 6, 2)), k, bias, stride=1, pad=1)
        assert out.shape == (2, 6, 6, 4)
        np.testing.assert_array_equal(out, np.broadcast_to(bias, (2, 6, 6, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        bias = rng.normal(size=4)
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            got = kernels.conv2d_batch(x[None], k, bias, stride=stride, pad=pad)[0]
            want = conv2d_loops(x, k, bias, stride=stride, pad=pad)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_shape_errors(self):
        x = np.zeros((1, 4, 4, 2))
        k = np.zeros((3, 3, 3, 4))      # channel mismatch
        with pytest.raises(ShapeError):
            kernels.conv2d_batch(x, k, np.zeros(4))
        with pytest.raises(ShapeError):
            kernels.conv2d_batch(x, np.zeros((3, 3, 2, 4)), np.zeros(5))
        with pytest.raises(ShapeError):
            kernels.conv2d_batch(x, np.zeros((5, 5, 2, 4)), np.zeros(4), pad=0)
        with pytest.raises(ShapeError):
            kernels.conv2d_batch(x, np.zeros((3, 3, 2, 4)), np.zeros(4), stride=0)
        with pytest.raises(ShapeError):
            kernels.conv2d_batch(x[0], np.zeros((3, 3, 2, 4)), np.zeros(4))

    def test_nan_propagates(self):
        x = np.zeros((1, 4, 4, 1))
        x[0, 1, 1, 0] = np.nan
        out = kernels.conv2d_batch(x, np.ones((3, 3, 1, 1)), np.zeros(1), pad=1)
        assert np.isnan(out).any()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 6, 3))
        k = rng.normal(size=(3, 3, 3, 5))
        b = rng.normal(size=5)
        a = kernels.conv2d_batch(x, k, b, pad=1)
        np.testing.assert_array_equal(a, kernels.conv2d_batch(x, k, b, pad=1))


class TestConv2dVjp:
    def test_zero_grad(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        gx, gk, gb = kernels.conv2d_vjp_batch(x, k, 1, 1, np.zeros((1, 5, 5, 3)))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_bias_grad_counts_positions(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        # loss = sum(output) puts a unit gradient on every output position
        g = np.ones((2, 6, 6, 3))
        _, _, gb = kernels.conv2d_vjp_batch(x, k, 1, 1, g)
        np.testing.assert_array_equal(gb, np.full(3, 72.0))

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_finite_differences(self, stride, pad):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        bias = rng.normal(size=3)
        out = kernels.conv2d_batch(x, k, bias, stride, pad)
        gout = rng.normal(size=out.shape)

        gx, gk, gb = kernels.conv2d_vjp_batch(x, k, stride, pad, gout)

        def loss_x(v):
            return float((kernels.conv2d_batch(v.reshape(x.shape), k, bias, stride, pad)
                          * gout).sum())

        def loss_k(v):
            return float((kernels.conv2d_batch(x, v.reshape(k.shape), bias, stride, pad)
                          * gout).sum())

        def loss_b(v):
            return float((kernels.conv2d_batch(x, k, v, stride, pad) * gout).sum())

        assert rel_err(gx.ravel(), fd_grad(loss_x, x.ravel())) <= 1e-6
        assert rel_err(gk.ravel(), fd_grad(loss_k, k.ravel())) <= 1e-6
        assert rel_err(gb, fd_grad(loss_b, bias)) <= 1e-6


class TestRelu:
    def test_all_negative(self):
        assert not kernels.relu(-np.ones((3, 3))).any()

    def test_all_positive_identity(self):
        x = np.abs(np.random.default_rng(7).normal(size=(3, 3))) + 0.1
        np.testing.assert_array_equal(kernels.relu(x), x)

    def test_vjp_gate(self):
        t = np.array([-1.0, 0.0, 2.0])
        g = np.array([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(kernels.relu_vjp(t, g), [0.0, 0.0, 5.0])

    def test_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=20)
        t = np.where(np.abs(t) < 0.05, 0.2, t)     # keep the step off the kink
        g = rng.normal(size=20)

        def loss(v):
            return float((kernels.relu(v) * g).sum())

        assert rel_err(kernels.relu_vjp(t, g), fd_grad(loss, t)) <= 1e-6


class TestMaxPool:
    def test_constant_routes_to_first_cell(self):
        x = np.full((1, 4, 4, 2), 3.0)
        out = kernels.maxpool2d_batch(x)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.0))
        g = np.ones((1, 2, 2, 2))
        gx = kernels.maxpool2d_vjp_batch(x, g)
        # gradient lands on each window's top-left cell only
        expect = np.zeros((1, 4, 4, 2))
        expect[:, ::2, ::2] = 1.0
        np.testing.assert_array_equal(gx, expect)

    def test_increasing_ramp_picks_bottom_right(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = kernels.maxpool2d_batch(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_indivisible_extent_raises(self):
        with pytest.raises(ShapeError):
            kernels.maxpool2d_batch(np.zeros((1, 5, 4, 1)))

    def test_finite_differences_off_ties(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 6, 2))
        g = rng.normal(size=(2, 3, 3, 2))

        def loss(v):
            return float((kernels.maxpool2d_batch(v.reshape(x.shape)) * g).sum())

        gx = kernels.maxpool2d_vjp_batch(x, g)
        assert rel_err(gx.ravel(), fd_grad(loss, x.ravel())) <= 1e-6


class TestGlobalAvgPool:
    def test_constant(self):
        fms = np.full((2, 4, 4, 3), 2.5)
        np.testing.assert_array_equal(kernels.global_avg_pool_batch(fms),
                                      np.full((2, 3), 2.5))

    def test_single_nonzero_cell(self):
        fms = np.zeros((1, 4, 5, 2))
        fms[0, 1, 3, 0] = 7.0
        np.testing.assert_allclose(kernels.global_avg_pool_batch(fms), [[7.0 / 20, 0.0]])

    def test_matches_mean_oracle(self):
        fms = np.random.default_rng(10).normal(size=(2, 3, 5, 4))
        want = np.array([[fm[:, :, c].sum() / 15 for c in range(4)] for fm in fms])
        assert np.max(np.abs(kernels.global_avg_pool_batch(fms) - want)) <= 1e-12

    def test_vjp_finite_differences(self):
        rng = np.random.default_rng(11)
        fms = rng.normal(size=(2, 3, 4, 2))
        g = rng.normal(size=(2, 2))

        def loss(v):
            return float((kernels.global_avg_pool_batch(v.reshape(fms.shape)) * g).sum())

        gx = kernels.gap_vjp_batch(fms.shape, g)
        assert rel_err(gx.ravel(), fd_grad(loss, fms.ravel())) <= 1e-6


class TestBilinearResize:
    def test_same_size_is_identity(self):
        m = np.random.default_rng(12).uniform(1.0, 2.0, size=(5, 7))
        np.testing.assert_array_equal(kernels.bilinear_resize(m, 5, 7), m)

    def test_constant_map(self):
        m = np.full((3, 3), 4.2)
        out = kernels.bilinear_resize(m, 8, 5)
        np.testing.assert_allclose(out, 4.2, rtol=0, atol=1e-15)

    def test_2x2_to_4x4_matches_formula(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0]])
        # direct per-pixel evaluation of the half-pixel-center formula
        want = np.zeros((4, 4))
        for y in range(4):
            for x in range(4):
                sy = min(max((y + 0.5) * 2 / 4 - 0.5, 0.0), 1.0)
                sx = min(max((x + 0.5) * 2 / 4 - 0.5, 0.0), 1.0)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y0, x0 = min(y0, 0), min(x0, 0)
                wy, wx = sy - y0, sx - x0
                want[y, x] = ((1 - wy) * (1 - wx) * m[y0, x0]
                              + (1 - wy) * wx * m[y0, x0 + 1]
                              + wy * (1 - wx) * m[y0 + 1, x0]
                              + wy * wx * m[y0 + 1, x0 + 1])
        got = kernels.bilinear_resize(m, 4, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # frozen corner values: clamped corners replicate the source corners
        np.testing.assert_allclose(
            got, np.array([[0.0, 0.25, 0.75, 1.0],
                           [0.5, 0.75, 1.25, 1.5],
                           [1.5, 1.75, 2.25, 2.5],
                           [2.0, 2.25, 2.75, 3.0]]), rtol=0, atol=1e-15)

    def test_affine_field_exact_in_interior(self):
        # value = column index; away from clamped borders the blend is exact
        m = np.tile(np.arange(6, dtype=np.float64), (6, 1))
        out = kernels.bilinear_resize(m, 12, 12)
        for x in range(3, 9):
            sx = (x + 0.5) * 6 / 12 - 0.5
            assert abs(out[6, x] - sx) <= 1e-12


class TestBilinearSample:
    """Bilinear sampling of a feature map, as RoIAlign takes it."""

    def test_integer_coordinates_hit_cells(self):
        fm = np.random.default_rng(13).normal(size=(4, 5, 3))
        np.testing.assert_array_equal(sample(fm, 2, 3), fm[2, 3])
        np.testing.assert_array_equal(sample(fm, 0, 0), fm[0, 0])
        np.testing.assert_array_equal(sample(fm, 3, 4), fm[3, 4])

    def test_constant_fm_any_coordinate(self):
        fm = np.full((3, 3, 2), 1.5)
        for y, x in [(-0.375, 0.25), (1.25, 1.75), (2.375, 2.375)]:
            np.testing.assert_allclose(sample(fm, y, x), 1.5)

    def test_exact_on_linear_field(self):
        fm = np.tile(np.arange(4, dtype=np.float64)[None, :, None], (3, 1, 2))
        np.testing.assert_allclose(sample(fm, 1.0, 1.25), [1.25, 1.25])

    def test_vjp_partition_of_unity(self):
        fm = np.zeros((4, 4, 1))
        for y, x in [(1.25, 2.75), (0.0, 0.0), (-0.375, 3.375), (3.375, 1.25)]:
            grad = sample_vjp(fm, y, x, np.array([1.0]))
            assert abs(grad.sum() - 1.0) <= 1e-12

    def test_vjp_finite_differences(self):
        rng = np.random.default_rng(14)
        fm = rng.normal(size=(4, 4, 3))
        g = rng.normal(size=3)
        y, x = 1.375, 2.625

        def loss(v):
            return float(sample(v.reshape(fm.shape), y, x) @ g)

        grad = sample_vjp(fm, y, x, g)
        assert rel_err(grad.ravel(), fd_grad(loss, fm.ravel())) <= 1e-6
