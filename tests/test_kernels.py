import tracemalloc

import numpy as np
import pytest

from protoloc import kernels, roi
from protoloc.localization import BoundingBox

from oracles import (bilinear_resize_gathers, conv2d_loops, conv2d_vjp_loops, fd_grad,
                     maxpool2d_vjp_loops, rel_err)

SINGLE = (1, 1)   # RoIAlign grid and samples: one bin of one sample


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
    return roi.roi_feature(fm[None], np.array([box]), extents, *SINGLE)[0][0]


def sample_vjp(fm, y, x, g):
    box, extents = _point_box(fm, y, x)
    _, weights = roi.roi_feature(fm[None], np.array([box]), extents, *SINGLE)
    return roi.roi_feature_vjp(weights, g[None])[0]


class TestConv2d:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 3))
        k = np.eye(3)[None, None]           # 1x1xCxC identity over channels
        out = kernels.conv2d_batch(x[None], k, np.zeros(3))
        np.testing.assert_array_equal(out[0], x)

    def test_zero_input_gives_bias(self):
        k = np.random.default_rng(1).normal(size=(3, 3, 2, 4))
        bias = np.array([0.5, -1.0, 2.0, 0.0])
        out = kernels.conv2d_batch(np.zeros((2, 6, 6, 2)), k, bias)
        assert out.shape == (2, 6, 6, 4)
        np.testing.assert_array_equal(out, np.broadcast_to(bias, (2, 6, 6, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 2))
        bias = rng.normal(size=4)
        for k in (1, 3, 5):
            w = rng.normal(size=(k, k, 2, 4))
            got = kernels.conv2d_batch(x[None], w, bias)[0]
            want = conv2d_loops(x, w, bias, stride=1, pad=k // 2)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_nan_propagates(self):
        x = np.zeros((1, 4, 4, 1))
        x[0, 1, 1, 0] = np.nan
        out = kernels.conv2d_batch(x, np.ones((3, 3, 1, 1)), np.zeros(1))
        assert np.isnan(out).any()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6, 6, 3))
        k = rng.normal(size=(3, 3, 3, 5))
        b = rng.normal(size=5)
        a = kernels.conv2d_batch(x, k, b)
        np.testing.assert_array_equal(a, kernels.conv2d_batch(x, k, b))


class TestConv2dVjp:
    def test_zero_grad(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        gx, gk, gb = kernels.conv2d_vjp_batch(x, k, np.zeros((1, 5, 5, 3)))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_bias_grad_counts_positions(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        # loss = sum(output) puts a unit gradient on every output position
        g = np.ones((2, 6, 6, 3))
        _, _, gb = kernels.conv2d_vjp_batch(x, k, g)
        np.testing.assert_array_equal(gb, np.full(3, 72.0))

    # ids read stride-pad: stride 1 with pad k // 2, the same-size geometry
    @pytest.mark.parametrize("ksize", [1, 3, 5], ids=["1-0", "1-1", "1-2"])
    def test_finite_differences(self, ksize):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(ksize, ksize, 2, 3))
        bias = rng.normal(size=3)
        gout = rng.normal(size=(1, 5, 5, 3))

        gx, gk, gb = kernels.conv2d_vjp_batch(x, k, gout)

        def loss_x(v):
            return float((kernels.conv2d_batch(v.reshape(x.shape), k, bias) * gout).sum())

        def loss_k(v):
            return float((kernels.conv2d_batch(x, v.reshape(k.shape), bias) * gout).sum())

        def loss_b(v):
            return float((kernels.conv2d_batch(x, k, v) * gout).sum())

        assert rel_err(gx.ravel(), fd_grad(loss_x, x.ravel())) <= 1e-6
        assert rel_err(gk.ravel(), fd_grad(loss_k, k.ravel())) <= 1e-6
        assert rel_err(gb, fd_grad(loss_b, bias)) <= 1e-6

    @pytest.mark.parametrize("ksize", [1, 3, 5], ids=["1-0", "1-1", "1-2"])
    def test_without_input_grad_parameter_grads_bitwise_equal(self, ksize):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 7, 5, 3))
        k = rng.normal(size=(ksize, ksize, 3, 4))
        gout = rng.normal(size=(2, 7, 5, 4))
        _, gk, gb = kernels.conv2d_vjp_batch(x, k, gout)
        gx, gk_only, gb_only = kernels.conv2d_vjp_batch(x, k, gout, need_input_grad=False)
        assert gx is None
        assert gk_only.tobytes() == gk.tobytes()
        assert gb_only.tobytes() == gb.tobytes()

    # a stride-s convolution padded k // 2 is the same-size one read at every
    # s-th cell, so its adjoint is the same-size adjoint of grad_out spread
    # onto those cells with zeros between
    @pytest.mark.parametrize("stride,pad,k", [(s, k // 2, k) for s in (1, 2, 3)
                                              for k in (1, 3, 5)])
    def test_matches_loop_oracle(self, stride, pad, k):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 7, 5, 2))
        w = rng.normal(size=(k, k, 2, 3))
        gout = np.zeros((2, 7, 5, 3))
        gout[:, ::stride, ::stride] = rng.normal(size=gout[:, ::stride, ::stride].shape)
        want = [conv2d_vjp_loops(xi, w, stride, pad, gi[::stride, ::stride])
                for xi, gi in zip(x, gout)]
        want_gx = np.stack([gx for gx, _, _ in want])
        want_gk = sum(gk for _, gk, _ in want)
        want_gb = sum(gb for _, _, gb in want)
        for need_input_grad in (True, False):
            gx, gk, gb = kernels.conv2d_vjp_batch(x, w, gout, need_input_grad)
            if need_input_grad:
                assert np.max(np.abs(gx - want_gx)) <= 1e-12
            else:
                assert gx is None
            assert np.max(np.abs(gk - want_gk)) <= 1e-12
            assert np.max(np.abs(gb - want_gb)) <= 1e-12

    # the 80-image shapes of the default encoder's three blocks; training
    # never takes block 0's input gradient
    @pytest.mark.parametrize("shape, cout, need_input_grad", [((80, 32, 32, 3), 8, False),
                                                              ((80, 16, 16, 8), 16, True),
                                                              ((80, 8, 8, 16), 32, True)])
    def test_peak_memory_stays_near_operand_size(self, shape, cout, need_input_grad):
        # a buffer k^2 times the input or the gradient (im2col columns) breaks the bound
        rng = np.random.default_rng(17)
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, 3, shape[3], cout))
        gout = rng.normal(size=shape[:3] + (cout,))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kernels.conv2d_vjp_batch(x, w, gout, need_input_grad)
        peak = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
        assert peak <= 2 * (x.nbytes + gout.nbytes)


class TestMaxPool:
    @staticmethod
    def _relu_pool(x):
        return np.maximum(kernels.maxpool2d_batch(x), 0.0)

    def test_constant_routes_to_first_cell(self):
        x = np.full((1, 4, 4, 2), 3.0)
        out, switch = kernels.maxpool2d_switches(x)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.0))
        assert switch.dtype == np.uint8 and not switch.any()
        g = np.ones((1, 2, 2, 2))
        gx = kernels.maxpool2d_vjp_batch(switch, g)
        # gradient lands on each window's top-left cell only
        expect = np.zeros((1, 4, 4, 2))
        expect[:, ::2, ::2] = 1.0
        np.testing.assert_array_equal(gx, expect)

    def test_increasing_ramp_picks_bottom_right(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        out = kernels.maxpool2d_batch(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])
        out, switch = kernels.maxpool2d_switches(x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])
        np.testing.assert_array_equal(switch, np.full((1, 2, 2, 1), 3))

    @pytest.mark.parametrize("window", [2])
    def test_tie_routing_matches_loop_oracle(self, window):
        # values from {1, 2, 3}: every window is positive, most hold their max more than once
        rng = np.random.default_rng(16)
        x = rng.integers(1, 4, size=(2, 4 * window, 3 * window, 3)).astype(np.float64)
        g = rng.normal(size=(2, 4, 3, 3))
        gx = kernels.maxpool2d_vjp_batch(kernels.maxpool2d_switches(x)[1], g)
        assert gx.tobytes() == maxpool2d_vjp_loops(x, g, window).tobytes()

    def test_nonpositive_windows_get_positive_zero(self):
        # a window whose max is 0 or below sends nothing: negative windows,
        # windows of zeros (a four-way tie) and windows with one zero
        rng = np.random.default_rng(17)
        x = -np.abs(rng.normal(size=(2, 6, 6, 2)))
        x[:, :2, :, 0] = 0.0
        x[:, ::2, ::2, 1] = 0.0
        g = rng.normal(size=(2, 3, 3, 2))
        out, switch = kernels.maxpool2d_switches(x)
        assert out.tobytes() == self._relu_pool(x).tobytes()
        assert (switch == 4).all()
        gx = kernels.maxpool2d_vjp_batch(switch, g)
        assert gx.tobytes() == np.zeros_like(x).tobytes()

    def test_nan_window_routes_nothing(self):
        # a window holding a NaN pools to NaN and sends nothing, though its
        # other cells are positive; the other windows route as the oracle does
        rng = np.random.default_rng(18)
        x = rng.integers(1, 4, size=(2, 6, 6, 2)).astype(np.float64)
        nan_cells = rng.random(size=x.shape) < 0.1
        x[nan_cells] = np.nan
        g = rng.normal(size=(2, 3, 3, 2))
        nan_windows = nan_cells.reshape(2, 3, 2, 3, 2, 2).any(axis=(2, 4))
        assert 0.2 < nan_windows.mean() < 0.8
        out, switch = kernels.maxpool2d_switches(x)
        assert np.isnan(out[nan_windows]).all() and (switch[nan_windows] == 4).all()
        gx = kernels.maxpool2d_vjp_batch(switch, g)
        expect = maxpool2d_vjp_loops(np.where(nan_cells, -1.0, x), np.where(nan_windows, 0.0, g), 2)
        assert gx.tobytes() == expect.tobytes()

    def test_finite_differences_off_ties(self):
        # about half the windows have a negative max, where relu zeroes the gradient
        rng = np.random.default_rng(9)
        x = rng.normal(-0.5, 1.0, size=(2, 6, 6, 2))
        g = rng.normal(size=(2, 3, 3, 2))
        out, switch = kernels.maxpool2d_switches(x)
        assert out.tobytes() == self._relu_pool(x).tobytes()
        assert 0.2 < (out == 0).mean() < 0.8

        def loss(v):
            return float((self._relu_pool(v.reshape(x.shape)) * g).sum())

        gx = kernels.maxpool2d_vjp_batch(switch, g)
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

    def test_bitwise_equal_to_four_gathers(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            h, w, out_h, out_w = rng.integers(1, 40, size=4)
            m = rng.normal(size=(h, w))
            np.testing.assert_array_equal(kernels.bilinear_resize(m, out_h, out_w),
                                          bilinear_resize_gathers(m, out_h, out_w))
        # a stack resizes each plane bitwise as if alone
        for lead in [(1,), (7,), (80,), (2, 3), (0,)]:
            h, w, out_h, out_w = rng.integers(1, 40, size=4)
            m = rng.normal(size=(*lead, h, w))
            got = kernels.bilinear_resize(m, out_h, out_w)
            assert got.shape == (*lead, out_h, out_w)
            for index in np.ndindex(*lead):
                np.testing.assert_array_equal(got[index],
                                              bilinear_resize_gathers(m[index], out_h, out_w))

    def test_cached_axis_weights_are_read_only(self):
        kernels.bilinear_resize(np.ones((4, 4)), 32, 32)
        for a in kernels._resize_axis(4, 32):
            with pytest.raises(ValueError):
                a[0] = 0


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
