import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import episodic as ep
from protoloc.config import RunConfig
from protoloc.dataset import Episode, SplitData
from protoloc.encoder import EncoderArch
from protoloc.episodic import distance_logit_loss, nearest_class, softmax_cross_entropy
from protoloc.kernels import global_avg_pool_batch
from protoloc.localization import BoundingBox, propose_boxes
from protoloc.roi import roi_feature_vjp

from oracles import fd_grad, refined_reps_loop, rel_err, roi_feature_vjp_loop

SMALL = EncoderArch(blocks=2, channels=(4, 6), kernel=3, input_size=16)


def small_cfg(**kw):
    """A run config on SMALL's 16-pixel grid: the episode loss reads its
    loss.T, loc.tau_train, loc.connectivity and roi.* keys."""
    return RunConfig(arch_blocks=2, arch_channels=(4, 6), arch_input_size=16, image_size=16,
                     **kw)


def loss_of(embeds, labels, reps, temperature):
    return distance_logit_loss(np.asarray(embeds, dtype=np.float64),
                               np.asarray(labels), np.asarray(reps, dtype=np.float64),
                               temperature)[0]


def loss_value(params, episode, cfg, lambda_roi):
    return ep.episode_loss_and_gradient(params, episode, cfg, lambda_roi)[0]


def embeddings(params, episode):
    """(support, query) embeddings from one forward pass over the episode's
    rows in the order the episode loss runs it."""
    images = episode.split.images[np.concatenate([episode.support_ids, episode.query_ids])]
    emb = global_avg_pool_batch(enc.forward_batch(params, images)[0])
    ns = len(episode.support_ids)
    return emb[:ns], emb[ns:]


def split_of(images):
    """A split whose rows are the given images, one class per row."""
    n = len(images)
    return SplitData("tiny", images, np.arange(n), np.tile([2, 2, 10, 10], (n, 1)))


def tiny_episode(seed=0, n_way=2, k_shot=1, queries=2, size=16):
    """The supports are the split's first N*K rows, the queries the rest."""
    rng = np.random.default_rng(seed)
    ns, nq = n_way * k_shot, n_way * queries
    split = split_of(rng.uniform(size=(ns + nq, size, size, 3)))
    return Episode(split, n_way, k_shot, np.arange(ns), np.arange(ns, ns + nq))


class TestEpisodeInvariants:
    def test_counts(self):
        epi = tiny_episode(n_way=5, k_shot=1, queries=15)
        assert epi.query_labels.size == 75
        np.testing.assert_array_equal(np.bincount(epi.query_labels), [15] * 5)

    def test_labels_and_boxes_follow_the_rows(self):
        epi = tiny_episode(n_way=3, k_shot=2, queries=2)
        np.testing.assert_array_equal(epi.ids, np.arange(12))
        np.testing.assert_array_equal(epi.query_labels, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(epi.support_boxes, epi.split.boxes[:6])
        np.testing.assert_array_equal(epi.query_boxes, epi.split.boxes[6:])


class TestComputePrototypes:
    """Prototypes are the per-class support means inside the episode loss."""

    def test_one_shot_is_the_embedding(self):
        params = enc.init_params(SMALL, 30)
        episode = tiny_episode(seed=30, n_way=3, k_shot=1, queries=2)
        cfg = small_cfg(temperature=8.0)
        s_emb, q_emb = embeddings(params, episode)
        want = loss_of(q_emb, episode.query_labels, s_emb, 8.0)
        assert loss_value(params, episode, cfg, 0.0) == want

    def test_arithmetic_mean(self):
        params = enc.init_params(SMALL, 31)
        episode = tiny_episode(seed=31, n_way=2, k_shot=2, queries=2)
        cfg = small_cfg(temperature=8.0)
        s_emb, q_emb = embeddings(params, episode)
        protos = np.stack([(s_emb[2 * c] + s_emb[2 * c + 1]) / 2 for c in range(2)])
        want = loss_of(q_emb, episode.query_labels, protos, 8.0)
        assert loss_value(params, episode, cfg, 0.0) == want


class TestRefinedReps:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_support_is_boxed_against_its_own_class(self, k):
        # every support map holds a hot cell in each of three directions, at
        # three corners; prototype c is direction c, so a support boxed
        # against another class's prototype gets another corner's box
        rng = np.random.default_rng(k)
        n, corners = 3, [(0, 0), (3, 3), (0, 3)]
        s_fms = 0.05 * rng.uniform(size=(n * k, 4, 4, 3))
        for c, (y, x) in enumerate(corners):
            s_fms[:, y, x, c] += 2.0 + rng.uniform(size=n * k)
        protos = np.eye(3) + 0.01 * rng.uniform(size=(3, 3))
        cfg = small_cfg(roi_grid=2, roi_samples=2)
        reps, boxes, _ = ep.refined_reps(s_fms, protos, k, 0.5, cfg)
        want_reps, want_boxes = refined_reps_loop(s_fms, protos, k, 0.5, (16, 16), 2, 2, 4)
        assert (boxes.dtype, boxes.shape) == (np.int64, (n * k, 4))
        assert list(map(tuple, boxes.tolist())) == want_boxes
        assert len({want_boxes[c * k] for c in range(n)}) == n      # a wrong class shows
        np.testing.assert_array_equal(reps, want_reps)

    @pytest.mark.parametrize("k", [1, 5])
    def test_batched_forward_and_vjp_equal_the_per_support_loop(self, k):
        # encoder maps of random images; the class means are distinct
        # prototypes, and the RoI gradient is the episode loss's lam * dref / k
        n, cfg, lam = 3, small_cfg(roi_grid=3, roi_samples=2), 0.7
        rng = np.random.default_rng(40 + k)
        fms, _ = enc.forward_batch(enc.init_params(SMALL, k), rng.uniform(size=(n * k, 16, 16, 3)))
        protos = global_avg_pool_batch(fms).reshape(n, k, -1).mean(axis=1)
        assert len(np.unique(protos, axis=0)) == n
        for tau in (0.5, 0.7):
            reps, boxes, weights = ep.refined_reps(fms, protos, k, tau, cfg)
            want_reps, want_boxes = refined_reps_loop(fms, protos, k, tau, (16, 16), 3, 2, 4)
            assert list(map(tuple, boxes.tolist())) == want_boxes
            np.testing.assert_array_equal(reps, want_reps)
            dref = rng.normal(size=(n, fms.shape[3]))
            got = roi_feature_vjp(weights, np.repeat(lam * dref / k, k, axis=0))
            want = roi_feature_vjp_loop(fms, want_boxes, (16, 16), 3, 2,
                                        [lam * dref[i // k] / k for i in range(n * k)])
            np.testing.assert_array_equal(got, want)


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

    def test_softmax_cross_entropy_matches_row_loop(self):
        # per-row loop oracle; logits up to ~100 in size test the max shift
        rng = np.random.default_rng(7)
        for scale in (1.0, 100.0):
            logits = rng.normal(scale=scale, size=(5, 4))
            labels = rng.integers(0, 4, size=5)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            want_loss, want_grad = 0.0, np.zeros((5, 4))
            for i in range(5):
                top = max(logits[i])
                total = sum(np.exp(v - top) for v in logits[i])
                want_loss += (top + np.log(total) - logits[i, labels[i]]) / 5
                for j in range(4):
                    want_grad[i, j] = (np.exp(logits[i, j] - top) / total
                                       - (j == labels[i])) / 5
            assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
            assert np.max(np.abs(dlogits - want_grad)) <= 1e-15


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

    def test_loss_roi_equals_base_when_reps_coincide(self, fix_boxes):
        # full-image boxes sampled at every cell center: RoI features are
        # the support embeddings, so the RoI term repeats the base term
        params = enc.init_params(SMALL, 7)
        episode = tiny_episode(seed=7, n_way=3, k_shot=1, queries=2)
        cfg = small_cfg(roi_grid=4, roi_samples=1)
        base = loss_value(params, episode, cfg, 0.0)
        fix_boxes([BoundingBox(0, 0, 15, 15)] * 3)
        both = loss_value(params, episode, cfg, 1.0)
        assert abs(both - 2.0 * base) <= 1e-12

    def test_loss_ours_arithmetic(self):
        # combined loss = base + lambda * roi term
        params = enc.init_params(SMALL, 8)
        episode = tiny_episode(seed=8)
        cfg = small_cfg(roi_grid=2, roi_samples=2, tau_train=0.5)
        base = loss_value(params, episode, cfg, 0.0)
        ours = {lam: loss_value(params, episode, cfg, lam) for lam in (0.5, 1.0)}
        assert abs((ours[0.5] - base) - 0.5 * (ours[1.0] - base)) <= 1e-12
        assert ours[1.0] > base

    def test_terms_hold_both_loss_terms_and_the_support_boxes(self, fix_boxes):
        # the loss is rebuilt bit for bit from its terms; at lambda = 0 no
        # RoI term is computed and no box is proposed
        params = enc.init_params(SMALL, 9)
        episode = tiny_episode(seed=9)
        cfg, lam = small_cfg(temperature=8.0, roi_grid=2, roi_samples=2), 0.3
        boxes = [BoundingBox(0, 0, 15, 15), BoundingBox(3, 5, 12, 14)]
        fix_boxes(boxes)
        loss, _, terms = ep.episode_loss_and_gradient(params, episode, cfg, lam)
        assert terms.base + lam * terms.roi == loss
        assert terms.support_boxes.tolist() == [list(box) for box in boxes]
        base, _, zero = ep.episode_loss_and_gradient(params, episode, cfg, 0.0)
        assert base == zero.base == terms.base
        assert (zero.roi, zero.support_boxes) == (None, None)


class TestEpisodeGradient:
    def test_prototype_mode_matches_finite_differences(self):
        params = enc.init_params(SMALL, 41)
        episode = tiny_episode(seed=41)
        cfg = small_cfg(temperature=8.0)
        _, grad, _ = ep.episode_loss_and_gradient(params, episode, cfg, 0.0)

        def loss(flat):
            return loss_value(enc.EncoderParams(SMALL, flat), episode, cfg, 0.0)

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_gradient_vanishes_at_saturated_minimum(self):
        # queries identical to their supports: embeddings sit exactly on the
        # prototypes; a tiny temperature saturates the class probabilities
        params = enc.init_params(SMALL, 42)
        rng = np.random.default_rng(42)
        rows = np.arange(2)
        episode = Episode(split_of(rng.uniform(size=(2, 16, 16, 3))), 2, 1, rows, rows)
        _, grad, _ = ep.episode_loss_and_gradient(params, episode, small_cfg(temperature=1e-4), 0.0)
        assert np.linalg.norm(grad) <= 1e-8

    def test_refined_mode_matches_finite_differences_at_fixed_boxes(self, fix_boxes):
        params = enc.init_params(SMALL, 43)
        episode = tiny_episode(seed=43)
        cfg, lam = small_cfg(temperature=8.0, roi_grid=2, roi_samples=2, tau_train=0.5), 0.7

        # freeze boxes at their forward-pass values (stop-gradient convention)
        fms, _ = enc.forward_batch(params, episode.split.images[episode.support_ids])
        embeds = global_avg_pool_batch(fms)
        protos = embeds.reshape(2, 1, -1).mean(axis=1)
        boxes = propose_boxes(fms, protos, 0.5, 16, 16, 4)

        _, live, _ = ep.episode_loss_and_gradient(params, episode, cfg, lam)
        fix_boxes(boxes)
        _, grad, _ = ep.episode_loss_and_gradient(params, episode, cfg, lam)
        np.testing.assert_array_equal(grad, live)   # same boxes either way

        # both live boxes are the full image; with distinct boxes, a support
        # sent another support's RoI gradient shows
        assert boxes.tolist() == [[0, 0, 15, 15]] * 2
        fix_boxes([[0, 0, 15, 15], [3, 5, 12, 14]])
        _, grad, _ = ep.episode_loss_and_gradient(params, episode, cfg, lam)

        def loss(flat):
            return loss_value(enc.EncoderParams(SMALL, flat), episode, cfg, lam)

        assert rel_err(grad, fd_grad(loss, params.flat)) <= 1e-5

    def test_zero_lambda_proposes_no_box(self, monkeypatch):
        # lambda = 0 is the base loss alone: no box is proposed, no RoI taken
        def no_box(*args):
            raise AssertionError("propose_boxes called at lambda = 0")

        monkeypatch.setattr(ep, "propose_boxes", no_box)
        params = enc.init_params(SMALL, 44)
        episode = tiny_episode(seed=44)
        loss, grad, _ = ep.episode_loss_and_gradient(params, episode, small_cfg(), 0.0)
        assert np.isfinite(loss) and grad.any()
