import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import episodic as ep
from protoloc.encoder import EncoderArch
from protoloc.episodic import (EmptyClass, Episode, LossConfig, NegativeLambda,
                               NonPositiveTemperature, distance_logit_loss,
                               nearest_class)
from protoloc.kernels import global_avg_pool_batch
from protoloc.localization import BoundingBox, propose_box
from protoloc.roi import RoiConfig

from oracles import fd_grad, rel_err

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def loss_of(embeds, labels, reps, temperature):
    return distance_logit_loss(np.asarray(embeds, dtype=np.float64),
                               np.asarray(labels), np.asarray(reps, dtype=np.float64),
                               temperature)[0]


def loss_value(params, episode, mode, cfg, **kwargs):
    return ep.episode_loss_and_gradient(params, episode, mode, cfg, **kwargs)[0]


def embeddings(params, episode):
    """(support, query) embeddings from one forward pass over the episode's
    images in the order the episode loss runs it."""
    images = np.concatenate([episode.support_images, episode.query_images])
    emb = global_avg_pool_batch(enc.forward_batch(params, images)[0])
    ns = episode.support_labels.size
    return emb[:ns], emb[ns:]


def tiny_episode(seed=0, n_way=2, k_shot=1, queries=2, size=16):
    rng = np.random.default_rng(seed)
    ns, nq = n_way * k_shot, n_way * queries
    return Episode(
        n_way=n_way, k_shot=k_shot,
        support_images=rng.uniform(size=(ns, size, size, 3)),
        support_labels=np.repeat(np.arange(n_way), k_shot),
        support_boxes=np.tile([2, 2, 10, 10], (ns, 1)),
        query_images=rng.uniform(size=(nq, size, size, 3)),
        query_labels=np.repeat(np.arange(n_way), queries),
        query_boxes=np.tile([2, 2, 10, 10], (nq, 1)),
    )


class TestEpisodeInvariants:
    def test_counts(self):
        epi = tiny_episode(n_way=5, k_shot=1, queries=15)
        assert epi.query_labels.size == 75
        assert epi.queries_per_class == 15

    def test_rejects_ungrouped_support(self):
        with pytest.raises(ValueError):
            Episode(n_way=2, k_shot=1,
                    support_images=np.zeros((2, 16, 16, 3)),
                    support_labels=np.array([1, 0]),
                    support_boxes=np.zeros((2, 4)),
                    query_images=np.zeros((2, 16, 16, 3)),
                    query_labels=np.array([0, 1]),
                    query_boxes=np.zeros((2, 4)))

    def test_rejects_unbalanced_queries(self):
        with pytest.raises(ValueError):
            Episode(n_way=2, k_shot=1,
                    support_images=np.zeros((2, 16, 16, 3)),
                    support_labels=np.array([0, 1]),
                    support_boxes=np.zeros((2, 4)),
                    query_images=np.zeros((3, 16, 16, 3)),
                    query_labels=np.array([0, 0, 1]),
                    query_boxes=np.zeros((3, 4)))




class TestComputePrototypes:
    """Prototypes are the per-class support means inside the episode loss."""

    def test_one_shot_is_the_embedding(self):
        params = enc.init_params(SMALL, 30)
        episode = tiny_episode(seed=30, n_way=3, k_shot=1, queries=2)
        cfg = LossConfig(temperature=8.0, lambda_roi=0.0)
        s_emb, q_emb = embeddings(params, episode)
        want = loss_of(q_emb, episode.query_labels, s_emb, 8.0)
        assert loss_value(params, episode, "prototype", cfg) == want

    def test_arithmetic_mean(self):
        params = enc.init_params(SMALL, 31)
        episode = tiny_episode(seed=31, n_way=2, k_shot=2, queries=2)
        cfg = LossConfig(temperature=8.0, lambda_roi=0.0)
        s_emb, q_emb = embeddings(params, episode)
        protos = np.stack([(s_emb[2 * c] + s_emb[2 * c + 1]) / 2 for c in range(2)])
        want = loss_of(q_emb, episode.query_labels, protos, 8.0)
        assert loss_value(params, episode, "prototype", cfg) == want

    def test_empty_class(self):
        # a mean over no supports would turn the loss and gradient into NaN
        with pytest.raises(EmptyClass):
            tiny_episode(k_shot=0)
        with pytest.raises(EmptyClass):
            tiny_episode(n_way=0)


class TestClassify:
    def test_exact_match_wins(self):
        reps = np.array([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]])
        assert nearest_class(np.array([[1.0, 1.0]]), reps).tolist() == [2]

    def test_tie_breaks_to_lowest_class(self):
        reps = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert nearest_class(np.zeros((1, 2)), reps).tolist() == [0]
        assert nearest_class(np.zeros((1, 2)), reps[1:]).tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        reps = rng.normal(size=(5, 4))
        queries = rng.normal(size=(50, 4))
        want = [int(np.argmin([np.sum((q - r) ** 2) for r in reps])) for q in queries]
        assert nearest_class(queries, reps).tolist() == want


class TestLogits:
    """The logit of class c is -||e - rep_c||^2 / T."""

    def test_unit_distance_scaled_by_temperature(self):
        reps = [[0.0, 0.0], [8.0, 0.0]]              # d^2 = 0 and 64: logit 0 and -1
        assert abs(loss_of([[0.0, 0.0]], [0], reps, 64.0) - np.log1p(np.exp(-1.0))) <= 1e-15
        assert abs(loss_of([[0.0, 0.0]], [1], reps, 64.0)
                   - (1.0 + np.log1p(np.exp(-1.0)))) <= 1e-15

    def test_equidistant_reps_constant(self):
        reps = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
        for label in range(3):
            assert abs(loss_of([[0.0, 0.0]], [label], reps, 7.0) - np.log(3)) <= 1e-15

    def test_argmax_invariant_to_temperature(self):
        # the label with the lowest loss is the argmax logit at every temperature
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(4, 3))
        q = rng.normal(size=(1, 3))
        picks = {int(np.argmin([loss_of(q, [y], reps, t) for y in range(4)]))
                 for t in (0.01, 1.0, 64.0, 1e6)}
        assert len(picks) == 1
        assert picks == {int(nearest_class(q, reps)[0])}

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            LossConfig(temperature=0.0)
        with pytest.raises(NonPositiveTemperature):
            LossConfig(temperature=-1.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        reps = np.ones((5, 3))
        assert abs(loss_of([[0.5, -1.0, 2.0]], [2], reps, 64.0) - np.log(5)) <= 1e-12

    def test_closed_form_two_logits(self):
        got = loss_of([[0.0, 0.0]], [0], [[0.0, 0.0], [1.0, 1.0]], 2.0)   # logit 0 and -1
        assert abs(got - np.log1p(np.exp(-1.0))) <= 1e-15
        assert abs(got - 0.3132616875182228) <= 1e-12

    def test_softmax_sums_to_one(self):
        # one query in one dimension: d loss / d rep_n = 2 (p_n - y_n) (e - rep_n) / T,
        # so the class probabilities p sum to one iff the recovered p - y sum to 0
        rng = np.random.default_rng(4)
        for _ in range(20):
            e = rng.normal(scale=5, size=(1, 1))
            reps = rng.normal(scale=5, size=(6, 1))
            label = int(rng.integers(6))
            _, _, d_reps = distance_logit_loss(e, np.array([label]), reps, 0.5)
            p_minus_y = d_reps[:, 0] * 0.5 / (2.0 * (e[0, 0] - reps[:, 0]))
            assert abs(p_minus_y.sum()) <= 1e-12

    def test_bad_index(self):
        # query labels reach the loss only through an Episode, which rejects
        # a class index outside 0..N-1
        for labels in ([0, 2], [-1, 1]):
            with pytest.raises(ValueError):
                Episode(n_way=2, k_shot=1,
                        support_images=np.zeros((2, 16, 16, 3)),
                        support_labels=np.array([0, 1]),
                        support_boxes=np.zeros((2, 4)),
                        query_images=np.zeros((2, 16, 16, 3)),
                        query_labels=np.array(labels),
                        query_boxes=np.zeros((2, 4)))


class TestLosses:
    def test_query_on_own_prototype_far_from_rest(self):
        loss = loss_of(np.zeros((1, 2)), [0], [[0.0, 0.0], [80.0, 0.0]], 64.0)   # d^2/T = 100
        assert 0.0 <= loss <= 1e-12

    def test_identical_prototypes_give_log_n(self):
        rng = np.random.default_rng(5)
        loss = loss_of(rng.normal(size=(6, 3)), [0, 1, 2, 3, 0, 1], np.ones((4, 3)), 64.0)
        assert abs(loss - np.log(4)) <= 1e-12

    def test_matches_per_query_oracle(self):
        rng = np.random.default_rng(6)
        protos = rng.normal(size=(3, 4))
        embeds = rng.normal(size=(7, 4))
        labels = rng.integers(0, 3, size=7)
        got = loss_of(embeds, labels, protos, 16.0)
        per_query = []
        for e, y in zip(embeds, labels):
            logit = [-sum((e[j] - p[j]) ** 2 for j in range(4)) / 16.0 for p in protos]
            per_query.append(np.log(sum(np.exp(v) for v in logit)) - logit[y])
        assert abs(got - np.mean(per_query)) <= 1e-12

    def test_loss_roi_equals_base_when_reps_coincide(self):
        # full-image boxes sampled at every cell center: RoI features are
        # the support embeddings, so the RoI term repeats the base term
        params = enc.init_params(SMALL, 7)
        episode = tiny_episode(seed=7, n_way=3, k_shot=1, queries=2)
        boxes = [BoundingBox(0, 0, 15, 15)] * 3
        base = loss_value(params, episode, "prototype", LossConfig(64.0, 0.0))
        both = loss_value(params, episode, "refined", LossConfig(64.0, 1.0),
                            roi_cfg=RoiConfig(4, 1), frozen_boxes=boxes)
        assert abs(both - 2.0 * base) <= 1e-12

    def test_loss_ours_arithmetic(self):
        # combined loss = base + lambda * roi term
        params = enc.init_params(SMALL, 8)
        episode = tiny_episode(seed=8)
        kw = dict(roi_cfg=RoiConfig(2, 2), tau=0.5)
        base = loss_value(params, episode, "prototype", LossConfig(64.0, 0.0))
        ours = {lam: loss_value(params, episode, "refined", LossConfig(64.0, lam), **kw)
                for lam in (0.0, 0.5, 1.0)}
        assert ours[0.0] == base
        assert abs((ours[0.5] - base) - 0.5 * (ours[1.0] - base)) <= 1e-12
        assert ours[1.0] > base

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            LossConfig(64.0, -1.0)


class TestEpisodeGradient:
    def test_prototype_mode_matches_finite_differences(self):
        params = enc.init_params(SMALL, 41)
        episode = tiny_episode(seed=41)
        cfg = LossConfig(temperature=8.0, lambda_roi=0.0)
        _, grad = ep.episode_loss_and_gradient(params, episode, "prototype", cfg)

        def loss(flat):
            return loss_value(enc.EncoderParams(SMALL, flat), episode, "prototype", cfg)

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_gradient_vanishes_at_saturated_minimum(self):
        # queries identical to their supports: embeddings sit exactly on the
        # prototypes; a tiny temperature saturates the class probabilities
        params = enc.init_params(SMALL, 42)
        rng = np.random.default_rng(42)
        sup = rng.uniform(size=(2, 16, 16, 3))
        episode = Episode(
            n_way=2, k_shot=1,
            support_images=sup, support_labels=np.array([0, 1]),
            support_boxes=np.tile([2, 2, 10, 10], (2, 1)),
            query_images=sup.copy(), query_labels=np.array([0, 1]),
            query_boxes=np.tile([2, 2, 10, 10], (2, 1)),
        )
        _, grad = ep.episode_loss_and_gradient(
            params, episode, "prototype", LossConfig(temperature=1e-4, lambda_roi=0.0))
        assert np.linalg.norm(grad) <= 1e-8

    def test_refined_mode_matches_finite_differences_with_frozen_boxes(self):
        params = enc.init_params(SMALL, 43)
        episode = tiny_episode(seed=43)
        cfg = LossConfig(temperature=8.0, lambda_roi=0.7)
        roi_cfg = RoiConfig(2, 2)

        # freeze boxes at their forward-pass values (stop-gradient convention)
        fms, _ = enc.forward_batch(params, episode.support_images)
        embeds = global_avg_pool_batch(fms)
        protos = embeds.reshape(2, 1, -1).mean(axis=1)
        boxes = [propose_box(fms[i], protos[episode.support_labels[i]], 0.5, 16, 16)
                 for i in range(2)]

        _, grad = ep.episode_loss_and_gradient(params, episode, "refined", cfg,
                                               roi_cfg=roi_cfg, frozen_boxes=boxes)
        _, live = ep.episode_loss_and_gradient(params, episode, "refined", cfg,
                                               roi_cfg=roi_cfg, tau=0.5)
        np.testing.assert_array_equal(grad, live)   # same boxes either way

        def loss(flat):
            return loss_value(enc.EncoderParams(SMALL, flat), episode, "refined", cfg,
                                roi_cfg=roi_cfg, frozen_boxes=boxes)

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_refined_with_zero_lambda_equals_prototype_bitwise(self):
        params = enc.init_params(SMALL, 44)
        episode = tiny_episode(seed=44)
        cfg = LossConfig(temperature=64.0, lambda_roi=0.0)
        _, a = ep.episode_loss_and_gradient(params, episode, "prototype", cfg)
        _, b = ep.episode_loss_and_gradient(params, episode, "refined", cfg)
        np.testing.assert_array_equal(a, b)

    def test_unknown_mode(self):
        params = enc.init_params(SMALL, 45)
        with pytest.raises(ValueError):
            ep.episode_loss_and_gradient(params, tiny_episode(), "other", LossConfig())
