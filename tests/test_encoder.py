import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import kernels
from protoloc.config import RunConfig
from protoloc.encoder import CacheMismatch, EncoderArch
from protoloc.kernels import ShapeError

from oracles import fd_grad, rel_err, relu_first_encoder

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def test_arch_validation():
    with pytest.raises(ValueError):
        EncoderArch(blocks=2, channels=(4,), kernel=3, input_size=16)
    with pytest.raises(ValueError):
        EncoderArch(blocks=3, channels=(4, 4, 4), kernel=4, input_size=32)
    with pytest.raises(ValueError):
        EncoderArch(blocks=3, channels=(4, 4, 4), kernel=3, input_size=20)


def test_arch_output_contract():
    arch = RunConfig().arch
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
        params = enc.init_params(RunConfig().arch, 0)
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
            x = kernels.conv2d_batch(x, w, b)
            x = kernels.maxpool2d_batch(np.maximum(x, 0.0))
        np.testing.assert_array_equal(fms, x)

    def test_batch_matches_single(self):
        params = enc.init_params(SMALL, 9)
        images = np.random.default_rng(9).uniform(size=(4, 16, 16, 3))
        fms, _ = enc.forward_batch(params, images)
        for i in range(4):
            single, _ = enc.forward_batch(params, images[i:i + 1])
            np.testing.assert_allclose(fms[i], single[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch", [RunConfig().arch, SMALL], ids=["default", "small"])
    def test_rows_do_not_depend_on_batch_composition(self, arch):
        # evaluation encodes each image once, in whichever batch first needs
        # it, and relies on these bits being the same in every batch
        params = enc.init_params(arch, 10)
        rng = np.random.default_rng(10)
        images = rng.uniform(size=(40, arch.input_size, arch.input_size, 3))
        fms, _ = enc.forward_batch(params, images, keep_cache=False)
        for size in (1, 2, 7, 16, 40):
            ids = rng.permutation(40)[:size]
            sub, _ = enc.forward_batch(params, images[ids], keep_cache=False)
            np.testing.assert_array_equal(sub, fms[ids])

    def test_peak_memory_stays_near_input_size(self):
        # one pass of the block stack over all 80 images of an episode would
        # hold block 0's im2col columns for all of them (25 MB)
        params = enc.init_params(RunConfig().arch, 11)
        images = np.random.default_rng(11).uniform(size=(80, 32, 32, 3))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enc.forward_batch(params, images, keep_cache=False)
        peak = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
        assert peak <= 4 * images.nbytes

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

    def test_bitwise_equal_to_relu_first_oracle(self):
        # negative biases leave many pooling windows with no positive cell,
        # where the textbook order routes a gradient that its relu mask zeroes
        params = enc.init_params(SMALL, 23)
        rng = np.random.default_rng(23)
        for _, bias in params.block_views():
            bias[:] = rng.normal(-0.2, 0.2, size=bias.shape)
        images = rng.uniform(size=(3, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        grad_fms = rng.normal(size=fms.shape)
        grad = enc.backward_batch(params, cache, grad_fms)

        fms_ref, grad_ref = relu_first_encoder(params, images, grad_fms)
        assert 0.2 < (fms == 0).mean() < 0.8
        (acts, _), = cache.chunks
        assert all(0.1 < (x == 0).mean() < 0.9 for x in acts[1:])
        assert fms.tobytes() == fms_ref.tobytes()
        assert grad.tobytes() == grad_ref.tobytes()

    def test_sums_chunk_gradients_in_chunk_order(self):
        # 40 images run as chunks of 16 + 16 + 8
        params = enc.init_params(SMALL, 24)
        rng = np.random.default_rng(24)
        images = rng.uniform(size=(40, 16, 16, 3))
        fms, cache = enc.forward_batch(params, images)
        grad_fms = rng.normal(size=fms.shape)
        grad = enc.backward_batch(params, cache, grad_fms)

        chunk_grads = []
        for i in range(0, 40, enc.CHUNK):
            chunk_fms, chunk_cache = enc.forward_batch(params, images[i:i + enc.CHUNK])
            assert chunk_fms.tobytes() == fms[i:i + enc.CHUNK].tobytes()
            chunk_grads.append(enc.backward_batch(params, chunk_cache,
                                                  grad_fms[i:i + enc.CHUNK]))
        assert len(chunk_grads) == len(cache.chunks) == 3
        assert grad.tobytes() == ((chunk_grads[0] + chunk_grads[1]) + chunk_grads[2]).tobytes()
        _, grad_ref = relu_first_encoder(params, images, grad_fms)
        assert rel_err(grad, grad_ref) <= 1e-12

    def test_two_chunk_batch_matches_finite_differences(self):
        params = enc.init_params(SMALL, 25)
        rng = np.random.default_rng(25)
        images = rng.uniform(size=(20, 16, 16, 3))
        g = rng.normal(size=(20, 4, 4, SMALL.embed_dim))
        fms, cache = enc.forward_batch(params, images)
        assert len(cache.chunks) == 2
        grad = enc.backward_batch(params, cache, g)

        def loss(flat):
            out, _ = enc.forward_batch(enc.EncoderParams(SMALL, flat), images,
                                       keep_cache=False)
            return float((out * g).sum())

        # 20 images hold enough pooling windows that a 1e-5 step flips one
        # window's max (a kink, where the difference quotient is not the slope)
        assert rel_err(grad, fd_grad(loss, params.flat, step=1e-6)) <= 1e-5

    def test_cache_holds_block_outputs_and_switches_not_conv_outputs(self):
        # an episode's 80 images: the cache holds the images, each pooled
        # cell of every block but the last as a float, and every block's
        # one-byte switches; the conv outputs (four times the pooled cells,
        # 9.2 MB) are dropped as each block is pooled, and the last block's
        # output is the returned map, held only there
        arch = RunConfig().arch
        params = enc.init_params(arch, 26)
        images = np.random.default_rng(26).uniform(size=(80, 32, 32, 3))
        _, cache = enc.forward_batch(params, images)
        sides = [arch.input_size >> b for b in range(arch.blocks)]
        conv_shapes = {(side, side, c) for side, c in zip(sides, arch.channels)}
        pooled = [80 * (side // 2) ** 2 * c for side, c in zip(sides, arch.channels)]
        arrays = [a for acts, switches in cache.chunks for a in acts + switches]
        assert not [a.shape for a in arrays if a.dtype == np.float64 and a.shape[1:] in conv_shapes]
        assert all(s.dtype == np.uint8 for _, switches in cache.chunks for s in switches)
        assert sum(a.nbytes for a in arrays) == images.nbytes + 8 * sum(pooled[:-1]) + sum(pooled)

    def test_forward_and_backward_peak_memory(self):
        # the 80-image cache plus one chunk's transients; keeping the conv
        # outputs would add 9.2 MB to the peak
        params = enc.init_params(RunConfig().arch, 27)
        rng = np.random.default_rng(27)
        images = rng.uniform(size=(80, 32, 32, 3))
        grad_fms = rng.normal(size=(80, *params.arch.map_shape))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, cache = enc.forward_batch(params, images)
        enc.backward_batch(params, cache, grad_fms)
        peak = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
        assert peak <= 5 * images.nbytes

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

    @pytest.mark.parametrize("failing", ["tns", "json"])
    def test_failed_write_keeps_previous_pair(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "ckpt.tns"
        enc.save_checkpoint(path, enc.init_params(SMALL, 1), seed=1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write_tns, real_write_text = enc.write_tns, Path.write_text

        def write_tns(target, arr):
            real_write_tns(target, arr[:arr.size // 2])
            if failing == "tns":
                raise OSError("disk full")

        def write_text(self, text, *args, **kwargs):
            real_write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(enc, "write_tns", write_tns)
        if failing == "json":
            monkeypatch.setattr(Path, "write_text", write_text)
        with pytest.raises(OSError, match="disk full"):
            enc.save_checkpoint(path, enc.init_params(SMALL, 2), seed=2)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_json_path_raises_before_writing(self, tmp_path):
        # model.json's sidecar is model.json itself
        with pytest.raises(ValueError, match="must not end in .json"):
            enc.save_checkpoint(tmp_path / "out" / "model.json", enc.init_params(SMALL, 1),
                                seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_manifest_fields(self, tmp_path):
        params = enc.init_params(RunConfig().arch, 7)
        enc.save_checkpoint(tmp_path / "c.tns", params, seed=7)
        manifest = json.loads((tmp_path / "c.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["arch"]["channels"] == [8, 16, 32]

    @pytest.mark.parametrize("edit, error", [
        (lambda m: json.dumps({"seed": m["seed"]}), "lacks 'arch'"),
        (lambda m: json.dumps({"arch": m["arch"]}), "lacks 'seed'"),
        (lambda m: json.dumps(m)[:-2], ": Expecting"),
        (lambda m: json.dumps({**m, "arch": {**m["arch"], "channels": [4]}}),
         ": channels (4,) must list 2 entries"),
        (lambda m: json.dumps({**m, "arch": {**m["arch"], "channels": [4, 7]}}),
         ": flat vector length 334 != 371"),
    ], ids=["no-arch", "no-seed", "bad-json", "invalid-arch", "other-arch"])
    def test_bad_sidecar_error_names_the_checkpoint_and_sidecar(self, tmp_path, edit, error):
        path, sidecar = tmp_path / "ckpt.tns", tmp_path / "ckpt.json"
        enc.save_checkpoint(path, enc.init_params(SMALL, 1), seed=1)
        sidecar.write_text(edit(json.loads(sidecar.read_text())))
        with pytest.raises(ValueError) as info:
            enc.load_checkpoint(path)
        assert info.type is ValueError
        assert str(info.value).startswith(f"checkpoint {path}: sidecar {sidecar}")
        assert error in str(info.value)

    def test_reference_checkpoint_saves_back_byte_identical(self, tmp_path):
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
        params, seed = enc.load_checkpoint(reference / "encoder.tns")
        enc.save_checkpoint(tmp_path / "encoder.tns", params, seed)
        for name in ("encoder.tns", "encoder.json"):
            assert (tmp_path / name).read_bytes() == (reference / name).read_bytes(), name
