import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import kernels
from protoloc.encoder import CacheMismatch, EncoderArch
from protoloc.kernels import ShapeError

from oracles import fd_grad, rel_err

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def test_arch_validation():
    with pytest.raises(ValueError):
        EncoderArch(blocks=2, channels=(4,), kernel=3, input_size=16)
    with pytest.raises(ValueError):
        EncoderArch(blocks=3, channels=(4, 4, 4), kernel=4, input_size=32)
    with pytest.raises(ValueError):
        EncoderArch(blocks=3, channels=(4, 4, 4), kernel=3, input_size=20)


def test_arch_output_contract():
    arch = EncoderArch()
    assert arch.feature_hw == 4
    assert arch.embed_dim == 32


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = enc.init_params(SMALL, 11)
        b = enc.init_params(SMALL, 11)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_biases_zero(self):
        params = enc.init_params(SMALL, 3)
        for _, bias in params.block_views():
            assert not bias.any()

    def test_kernel_distribution(self):
        # one wide block gives >= 10^4 kernel draws at a single fan-in
        arch = EncoderArch(blocks=1, channels=(400,), kernel=3, input_size=8)
        params = enc.init_params(arch, 17)
        w, _ = params.block_views()[0]
        a = np.sqrt(6.0 / 27.0)
        assert w.size >= 10_000
        assert np.all(w > -a) and np.all(w < a)
        assert abs(w.mean()) < a / 10


class TestForward:
    def test_default_arch_shapes(self):
        params = enc.init_params(EncoderArch(), 0)
        fms, _ = enc.forward_batch(params, np.zeros((1, 32, 32, 3)))
        assert fms.shape == (1, 4, 4, 32)

    def test_zero_image_zero_bias_gives_zero_fm(self):
        params = enc.init_params(SMALL, 5)
        fms, _ = enc.forward_batch(params, np.zeros((1, 16, 16, 3)))
        assert not fms.any()

    def test_matches_manual_kernel_chain(self):
        params = enc.init_params(SMALL, 8)
        images = np.random.default_rng(8).uniform(size=(2, 16, 16, 3))
        fms, _ = enc.forward_batch(params, images)

        x = images
        for w, b in params.block_views():
            x = kernels.conv2d_batch(x, w, b, 1, SMALL.pad)
            x = kernels.maxpool2d_batch(kernels.relu(x))
        np.testing.assert_array_equal(fms, x)

    def test_batch_matches_single(self):
        params = enc.init_params(SMALL, 9)
        images = np.random.default_rng(9).uniform(size=(4, 16, 16, 3))
        fms, _ = enc.forward_batch(params, images)
        for i in range(4):
            single, _ = enc.forward_batch(params, images[i:i + 1])
            np.testing.assert_allclose(fms[i], single[0], rtol=0, atol=1e-12)

    def test_wrong_image_size_raises(self):
        params = enc.init_params(SMALL, 0)
        with pytest.raises(ShapeError):
            enc.forward_batch(params, np.zeros((1, 8, 8, 3)))
        with pytest.raises(ShapeError):
            enc.forward_batch(params, np.zeros((16, 16, 3)))


class TestEmbed:
    """The embedding is the global average pool of the feature map."""

    def test_equals_gap_of_forward(self):
        params = enc.init_params(SMALL, 12)
        images = np.random.default_rng(12).uniform(size=(3, 16, 16, 3))
        fms, _ = enc.forward_batch(params, images, keep_cache=False)
        embeds = kernels.global_avg_pool_batch(fms)
        assert embeds.shape == (3, SMALL.embed_dim)
        for i in range(3):
            np.testing.assert_allclose(embeds[i], fms[i].sum(axis=(0, 1)) / 16,
                                       rtol=0, atol=1e-15)

    def test_zero_image_zero_embedding(self):
        params = enc.init_params(SMALL, 1)
        fms, _ = enc.forward_batch(params, np.zeros((2, 16, 16, 3)), keep_cache=False)
        assert not kernels.global_avg_pool_batch(fms).any()


class TestBackward:
    def test_zero_grad_fm(self):
        params = enc.init_params(SMALL, 2)
        images = np.random.default_rng(2).uniform(size=(1, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        grad = enc.backward_batch(params, cache, np.zeros_like(fms))
        assert grad.shape == params.flat.shape
        assert not grad.any()

    def test_gradient_layout_length(self):
        params = enc.init_params(SMALL, 2)
        images = np.random.default_rng(3).uniform(size=(1, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        grad = enc.backward_batch(params, cache, np.ones_like(fms))
        assert grad.size == enc.param_count(SMALL)

    def test_sum_fm_loss_matches_finite_differences(self):
        params = enc.init_params(SMALL, 21)
        images = np.random.default_rng(21).uniform(size=(1, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        grad = enc.backward_batch(params, cache, np.ones_like(fms))

        def loss(flat):
            out, _ = enc.forward_batch(enc.EncoderParams(SMALL, flat), images,
                                       keep_cache=False)
            return float(out.sum())

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_embedding_loss_matches_finite_differences(self):
        # end-to-end through GAP: a random linear functional of the embedding
        params = enc.init_params(SMALL, 22)
        rng = np.random.default_rng(22)
        images = rng.uniform(size=(1, 16, 16, 3))
        g = rng.normal(size=(1, SMALL.embed_dim))
        fms, cache = enc.forward_batch(params, images)
        grad = enc.backward_batch(params, cache, kernels.gap_vjp_batch(fms.shape, g))

        def loss(flat):
            out, _ = enc.forward_batch(enc.EncoderParams(SMALL, flat), images,
                                       keep_cache=False)
            return float((kernels.global_avg_pool_batch(out) * g).sum())

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_cache_mismatch(self):
        params = enc.init_params(SMALL, 2)
        other = enc.init_params(EncoderArch(blocks=2, channels=(4, 6), kernel=3,
                                            input_size=32), 2)
        images = np.random.default_rng(4).uniform(size=(1, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        with pytest.raises(CacheMismatch):
            enc.backward_batch(other, cache, np.zeros_like(fms))
        with pytest.raises(CacheMismatch):
            enc.backward_batch(params, cache, np.zeros((1, 2, 2, 6)))
        _, no_cache = enc.forward_batch(params, images, keep_cache=False)
        with pytest.raises(CacheMismatch):
            enc.backward_batch(params, no_cache, np.zeros_like(fms))


class TestSgdStep:
    def test_zero_lr_identity(self):
        params = enc.init_params(SMALL, 6)
        out = enc.sgd_step(params, np.ones_like(params.flat), 0.0)
        np.testing.assert_array_equal(out.flat, params.flat)

    def test_full_step_to_zero(self):
        params = enc.init_params(SMALL, 6)
        out = enc.sgd_step(params, params.flat, 1.0)
        assert not out.flat.any()

    def test_two_half_steps_equal_one(self):
        params = enc.init_params(SMALL, 6)
        grads = np.random.default_rng(6).normal(size=params.flat.shape)
        one = enc.sgd_step(params, grads, 0.2)
        two = enc.sgd_step(enc.sgd_step(params, grads, 0.1), grads, 0.1)
        np.testing.assert_allclose(two.flat, one.flat, rtol=0, atol=1e-15)

    def test_length_mismatch(self):
        params = enc.init_params(SMALL, 6)
        with pytest.raises(ShapeError):
            enc.sgd_step(params, np.zeros(3), 0.1)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = enc.init_params(SMALL, 33)
        enc.save_checkpoint(tmp_path / "ckpt.tns", params, seed=33)
        loaded, seed = enc.load_checkpoint(tmp_path / "ckpt.tns")
        assert seed == 33
        assert loaded.arch == SMALL
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_sidecar_manifest_fields(self, tmp_path):
        import json
        params = enc.init_params(EncoderArch(), 7)
        enc.save_checkpoint(tmp_path / "c.tns", params, seed=7)
        manifest = json.loads((tmp_path / "c.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["arch"]["channels"] == [8, 16, 32]
