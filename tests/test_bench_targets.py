"""The benchmark's layer tracer patches functions by (module, attribute);
every name it lists must still resolve, or a refactor silently drops a
layer from the benchmark. The workloads call the program by name; every
name they read must resolve too. Reads bench/spans.py and bench/workloads.py
only."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from protoloc import encoder as enc
from protoloc import episodic, harness, kernels, localization, roi
from protoloc.config import RunConfig
from protoloc.dataset import Episode, SplitData
from protoloc.localization import BoundingBox, iou

from oracles import refined_reps_loop

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_program_name_the_workloads_use_resolves():
    # module attributes read through `from protoloc import x [as y]` names,
    # and the keywords of every RunConfig(...) call
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"protoloc.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "protoloc"
               for alias in node.names}
    assert set(modules) == {"cli", "harness", "ds", "enc"}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in modules}
    missing = sorted(f"{name}.{attr}" for name, attr in read
                     if not hasattr(modules[name], attr))
    keywords = {kw.arg for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "RunConfig" for kw in node.keywords if kw.arg}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert read and keywords
    assert missing == []
    assert keywords - fields == set()


def test_backward_makes_one_conv_vjp_call_per_block(monkeypatch):
    # the tracer names conv2d_vjp_batch spans b0/b1/b2 from the input side
    # (args[0].shape[1]); a split call would leave a block's metric at 0
    real = kernels.conv2d_vjp_batch
    signature = inspect.signature(real)
    calls = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((args[0].shape[1], bound.arguments["need_input_grad"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "conv2d_vjp_batch", recording)
    params = enc.init_params(enc.EncoderArch(), 0)
    images = np.random.default_rng(0).uniform(size=(2, 32, 32, 3))
    fms, cache = enc.forward_batch(params, images)
    enc.backward_batch(params, cache, np.ones(fms.shape))
    assert sorted(calls) == [(8, True), (16, True), (32, False)]


def counting(monkeypatch, calls, module, name, size=len):
    """Record size(args[0]) of every call of module.name under calls[name]."""
    real = getattr(module, name)

    def counted(*args):
        calls[name].append(size(args[0]))
        return real(*args)
    monkeypatch.setattr(module, name, counted)


def test_refined_eval_task_localizes_queries_in_one_call(monkeypatch):
    # a refined task boxes its N*K supports in one episodic.propose_boxes
    # call (episodic.refined_reps), then its N*Q queries in one harness call;
    # the one-map episodic.propose_box the tracer wraps is never entered
    calls = {"propose_box": [], "propose_boxes": []}
    counting(monkeypatch, calls, episodic, "propose_box")
    counting(monkeypatch, calls, episodic, "propose_boxes")
    counting(monkeypatch, calls, harness, "propose_boxes")
    cfg = RunConfig(n_way=3, k_shot=2, queries=4, arch_blocks=2, arch_channels=(4, 6),
                    arch_input_size=16, image_size=16)
    rng = np.random.default_rng(0)
    split = SplitData("test", rng.uniform(size=(24, 16, 16, 3)), np.repeat(np.arange(4), 6),
                      np.tile([2, 3, 11, 12], (24, 1)))
    features = harness._split_features(enc.init_params(cfg.arch, 0), split.images)
    harness._eval_task(cfg, features, split, 0, "refined")
    assert calls == {"propose_box": [], "propose_boxes": [3 * 2, 3 * 4]}


def test_propose_boxes_labels_once_per_call(monkeypatch):
    # the tracer times localization.largest_component as one span per
    # propose_boxes call, box extraction included
    calls = []
    real = localization.largest_component

    def largest_component(mask, *args):
        calls.append(mask.shape)
        return real(mask, *args)

    monkeypatch.setattr(localization, "largest_component", largest_component)
    rng = np.random.default_rng(2)
    boxes = localization.propose_boxes(rng.normal(size=(7, 4, 4, 3)), rng.normal(size=(7, 3)),
                                       0.5, 16, 16, 4)
    localization.propose_box(rng.normal(size=(4, 4, 3)), rng.normal(size=3), 0.5, 16, 16)
    assert boxes.shape == (7, 4)
    assert calls == [(7, 16, 16), (1, 16, 16)]


def test_ours_episode_boxes_and_pools_each_support_once(monkeypatch):
    # an "ours" episode boxes its N*K supports in one propose_boxes call and
    # pools them in one roi.roi_feature call and one roi.roi_feature_vjp
    # call, each over all N*K maps; the adjoint reads the forward's cell
    # weights, so they are looked up once, a row and a column span per
    # support, and no one-map propose_box call is made
    calls = {"propose_box": [], "propose_boxes": [], "roi_feature": [], "roi_feature_vjp": [],
             "_cell_weights": []}
    counting(monkeypatch, calls, episodic, "propose_box")
    counting(monkeypatch, calls, episodic, "propose_boxes")
    counting(monkeypatch, calls, roi, "roi_feature")
    counting(monkeypatch, calls, roi, "roi_feature_vjp", lambda weights: len(weights[0]))
    counting(monkeypatch, calls, roi, "_cell_weights", lambda p0: 1)
    cfg = RunConfig(n_way=3, k_shot=2, queries=2, arch_blocks=2, arch_channels=(4, 6),
                    arch_input_size=16, image_size=16, workers=1, lambda_roi=0.5,
                    epochs_ours=1, episodes_per_epoch=1)
    rng = np.random.default_rng(3)
    split = SplitData("train", rng.uniform(size=(24, 16, 16, 3)), np.repeat(np.arange(4), 6),
                      np.tile([2, 3, 11, 12], (24, 1)))
    harness.train_episodic(cfg, enc.init_params(cfg.arch, 0), "ours", split)
    assert calls == {"propose_box": [], "propose_boxes": [3 * 2], "roi_feature": [3 * 2],
                     "roi_feature_vjp": [3 * 2], "_cell_weights": [1] * (2 * 3 * 2)}


def test_tracer_scores_each_support_box_against_its_split_row(monkeypatch):
    # Tripwire for a known gap: the tracer scores support boxes only through
    # the one-map episodic.propose_box, which neither refined eval nor "ours"
    # training calls since refined_reps boxes all supports in one
    # propose_boxes call, so support_box_iou and support_corloc50 read 0.
    # ROADMAP item 1 switches bench/spans.py TARGETS to episodic.propose_boxes;
    # this test then fails and is restated to score every support box.
    episodes, entered = [], []
    real_sample, real_box = harness.sample_episode, episodic.propose_box

    def sample_episode(*args):
        episodes.append(real_sample(*args))
        return episodes[-1]

    def propose_box(*args):
        entered.append(args)
        return real_box(*args)

    monkeypatch.setattr(harness, "sample_episode", sample_episode)
    monkeypatch.setattr(episodic, "propose_box", propose_box)
    cfg = RunConfig(n_way=3, k_shot=2, queries=2, arch_blocks=2, arch_channels=(4, 6),
                    arch_input_size=16, image_size=16, tasks=2, workers=1,
                    epochs_ours=1, episodes_per_epoch=2)
    rng = np.random.default_rng(1)
    split = SplitData("train", rng.uniform(size=(24, 16, 16, 3)), np.repeat(np.arange(4), 6),
                      rng.integers(0, 8, size=(24, 4)) + [0, 0, 8, 8])
    params = enc.init_params(cfg.arch, 0)
    tracer = load_spans().Tracer(cfg.arch_input_size)
    with tracer.installed():
        harness.evaluate(cfg, params, "refined", split)
        harness.train_episodic(cfg, params, "ours", split)
    assert tracer.missing == []
    assert len(episodes) == 4
    assert entered == []
    assert tracer.support_ious == []


@pytest.mark.parametrize("k", [1, 2])
def test_refined_reps_boxes_score_like_the_per_support_oracle(k):
    # the figure the bench will read: refined_reps' (N*K, 4) boxes scored
    # against the episode's support rows in one iou call give the IoUs of
    # the boxes a per-support loop proposes
    n, q = 3, 2
    rng = np.random.default_rng(20 + k)
    split = SplitData("train", rng.uniform(size=(n * (k + q), 16, 16, 3)),
                      np.repeat(np.arange(n), k + q),
                      rng.integers(0, 8, size=(n * (k + q), 4)) + [0, 0, 8, 8])
    rows = np.arange(n * (k + q)).reshape(n, k + q)
    episode = Episode(split, n, k, rows[:, :k].ravel(), rows[:, k:].ravel())
    fms, _ = enc.forward_batch(enc.init_params(enc.EncoderArch(2, (4, 6), 3, 16), k),
                               split.images[episode.support_ids])
    protos = kernels.global_avg_pool_batch(fms).reshape(n, k, -1).mean(axis=1)
    cfg = RunConfig(arch_blocks=2, arch_channels=(4, 6), arch_input_size=16, image_size=16)
    _, boxes, _ = episodic.refined_reps(fms, protos, k, 0.5, cfg)
    _, want_boxes = refined_reps_loop(fms, protos, k, 0.5, (16, 16), cfg.roi_grid, cfg.roi_samples,
                                     cfg.connectivity)
    got = iou(boxes, episode.support_boxes)
    want = [iou(BoundingBox(*box), BoundingBox(*row))
            for box, row in zip(want_boxes, episode.support_boxes.tolist())]
    assert got.shape == (n * k,)
    assert got.tolist() == want
    assert len(set(want)) > 1
