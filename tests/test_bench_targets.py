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
import json
import statistics
from pathlib import Path

import numpy as np

from protoloc import encoder as enc
from protoloc import episodic, harness, kernels, localization, roi
from protoloc.config import RunConfig
from protoloc.dataset import SplitData
from protoloc.localization import BoundingBox, iou

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


def test_refined_eval_task_localizes_queries_in_one_call(monkeypatch):
    # the tracer scores support boxes per episodic.propose_box call (refined
    # eval builds its representations with episodic.refined_reps); the
    # queries of a task go through one batched propose_boxes call
    calls = {"propose_box": 0, "propose_boxes": []}
    real_box, real_boxes = episodic.propose_box, harness.propose_boxes

    def propose_box(*args):
        calls["propose_box"] += 1
        return real_box(*args)

    def propose_boxes(fms, *args):
        calls["propose_boxes"].append(len(fms))
        return real_boxes(fms, *args)

    monkeypatch.setattr(episodic, "propose_box", propose_box)
    monkeypatch.setattr(harness, "propose_boxes", propose_boxes)
    cfg = RunConfig(n_way=3, k_shot=2, queries=4, arch_blocks=2, arch_channels=(4, 6),
                    arch_input_size=16, image_size=16)
    rng = np.random.default_rng(0)
    split = SplitData("test", rng.uniform(size=(24, 16, 16, 3)), np.repeat(np.arange(4), 6),
                      np.tile([2, 3, 11, 12], (24, 1)))
    features = harness._split_features(enc.init_params(cfg.arch, 0), split.images)
    harness._eval_task(cfg, features, split, 0, "refined")
    assert calls == {"propose_box": 3 * 2, "propose_boxes": [3 * 4]}


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
                                       0.5, 16, 16)
    localization.propose_box(rng.normal(size=(4, 4, 3)), rng.normal(size=3), 0.5, 16, 16)
    assert boxes.shape == (7, 4)
    assert calls == [(7, 16, 16), (1, 16, 16)]


def test_ours_episode_boxes_and_pools_each_support_once(monkeypatch):
    # bench/selftest.py and the tracer count one episodic.propose_box and one
    # roi.roi_feature (and its VJP) call per support of an "ours" episode
    calls = {"propose_box": 0, "roi_feature": 0, "roi_feature_vjp": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counting(episodic, "propose_box")
    counting(roi, "roi_feature")
    counting(roi, "roi_feature_vjp")
    cfg = RunConfig(n_way=3, k_shot=2, queries=2, arch_blocks=2, arch_channels=(4, 6),
                    arch_input_size=16, image_size=16, workers=1, lambda_roi=0.5,
                    epochs_ours=1, episodes_per_epoch=1)
    rng = np.random.default_rng(3)
    split = SplitData("train", rng.uniform(size=(24, 16, 16, 3)), np.repeat(np.arange(4), 6),
                      np.tile([2, 3, 11, 12], (24, 1)))
    harness.train_episodic(cfg, enc.init_params(cfg.arch, 0), "ours", split)
    assert calls == {"propose_box": 3 * 2, "roi_feature": 3 * 2, "roi_feature_vjp": 3 * 2}


def test_tracer_scores_each_support_box_against_its_split_row(monkeypatch):
    # the tracer reads the drawn episode's support_boxes; record the episodes
    # and support boxes under its wrappers and recompute every IoU from the rows
    episodes, boxes = [], []
    real_sample = harness.sample_episode

    def sample_episode(*args):
        episodes.append(real_sample(*args))
        boxes.append([])
        return episodes[-1]

    def recording(real):
        def propose_box(*args):
            boxes[-1].append(real(*args))
            return boxes[-1][-1]
        return propose_box

    monkeypatch.setattr(harness, "sample_episode", sample_episode)
    for module in (harness, episodic):
        monkeypatch.setattr(module, "propose_box", recording(module.propose_box))
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
    want = [iou(box, BoundingBox(*split.boxes[episode.support_ids[i]]))
            for episode, drawn in zip(episodes, boxes) for i, box in enumerate(drawn)]
    assert [len(drawn) for drawn in boxes] == [3 * 2] * 4
    assert tracer.support_ious == want
    # bench/layers.py writes these two figures to JSON; a 0-d array or an
    # np.bool_ leaking out of iou would make json.dumps fail there
    ious = tracer.support_ious
    assert all(isinstance(v, float) for v in ious)
    json.dumps({"localization.support_box_iou": statistics.fmean(ious),
                "localization.support_corloc50": sum(v >= 0.5 for v in ious) / len(ious)})
