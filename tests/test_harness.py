import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from protoloc import dataset as ds
from protoloc import encoder as enc
from protoloc import episodic, harness, roi
from protoloc.config import RunConfig
from protoloc.encoder import EncoderArch
from protoloc.harness import (ArchMismatch, DeadEncoder, NonFiniteLoss, SpecMismatch,
                              UnknownId)
from protoloc.localization import BoundingBox, DegenerateRepresentation, iou

SMALL = dict(arch_blocks=2, arch_channels=(4, 6), arch_input_size=16, image_size=16)


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = RunConfig(per_class_count=8, queries=3, **SMALL)
    ds.generate_dataset(cfg.spec, 5, root)
    return root


@pytest.fixture(scope="module")
def splits(data_root):
    return ds.load_dataset(data_root)[1]


def small_config(**kw):
    return RunConfig(n_way=3, k_shot=1, queries=3, **SMALL, **kw)


def test_zero_lambda_ours_replays_base(splits):
    cfg = small_config(lambda_roi=0.0, epochs_base=2, epochs_ours=2,
                       episodes_per_epoch=2, lr=0.05)
    params = enc.init_params(cfg.arch, 3)
    base_params, base_losses = harness.train_episodic(cfg, params, "base", splits["train"])
    ours_params, ours_losses = harness.train_episodic(cfg, params, "ours", splits["train"])
    assert len(base_losses) == 4
    assert ours_losses == base_losses
    np.testing.assert_array_equal(ours_params.flat, base_params.flat)
    assert not np.array_equal(base_params.flat, params.flat)


def test_five_shot_ours_training_boxes_supports_at_tau_train(splits, monkeypatch):
    # the 5-shot defaults differ: supports are boxed at tau_train = 0.7 in
    # training, while eval boxes at tau_eval = 0.5
    cfg = RunConfig(n_way=3, k_shot=5, queries=3, epochs_ours=1, episodes_per_epoch=2, **SMALL)
    assert (cfg.tau_train, cfg.tau_eval) == (0.7, 0.5)
    real, taus = episodic.propose_boxes, []

    def propose_boxes(fms, reps, tau, *args):
        taus.append(tau)
        return real(fms, reps, tau, *args)

    monkeypatch.setattr(episodic, "propose_boxes", propose_boxes)
    harness.train_episodic(cfg, enc.init_params(cfg.arch, 3), "ours", splits["train"])
    assert taus == [0.7] * 2     # one call boxes an episode's 3 * 5 supports


def test_training_and_refined_eval_box_and_pool_at_the_config_settings(splits, monkeypatch):
    # the loss and refined eval read loc.connectivity and roi.* from the run
    # config; at values other than the defaults, every box and pool call shows them
    cfg = small_config(connectivity=8, roi_grid=2, roi_samples=1, tau_train=0.6,
                       epochs_ours=1, episodes_per_epoch=2, tasks=2)
    real_boxes, real_feature, calls = episodic.propose_boxes, roi.roi_feature, []

    def propose_boxes(fms, reps, tau, image_h, image_w, connectivity):
        calls.append(("boxes", len(fms), tau, image_h, image_w, connectivity))
        return real_boxes(fms, reps, tau, image_h, image_w, connectivity)

    def roi_feature(fms, boxes, image_extents, grid, samples):
        calls.append(("pool", len(fms), image_extents, grid, samples))
        return real_feature(fms, boxes, image_extents, grid, samples)

    monkeypatch.setattr(episodic, "propose_boxes", propose_boxes)
    monkeypatch.setattr(roi, "roi_feature", roi_feature)
    params = enc.init_params(cfg.arch, 3)
    harness.train_episodic(cfg, params, "ours", splits["train"])
    harness.evaluate(cfg, params, "refined", splits["test"])
    pool = ("pool", 3, (16, 16), 2, 1)
    train, test = ("boxes", 3, 0.6, 16, 16, 8), ("boxes", 3, 0.5, 16, 16, 8)
    assert calls == [train, pool] * 2 + [test, pool] * 2


def test_prototype_eval_boxes_only_the_queries_and_pools_nothing(splits, monkeypatch):
    # a prototype task classifies against the support means: it boxes no
    # support and takes no RoI feature, and boxes its 3 * 3 queries in one call
    cfg = small_config(tasks=3)
    real, calls = harness.propose_boxes, []

    def refuse(*args):
        raise AssertionError("prototype eval boxed or pooled a support")

    def propose_boxes(fms, *args):
        calls.append(len(fms))
        return real(fms, *args)

    monkeypatch.setattr(episodic, "propose_boxes", refuse)
    monkeypatch.setattr(roi, "roi_feature", refuse)
    monkeypatch.setattr(harness, "propose_boxes", propose_boxes)
    harness.evaluate(cfg, enc.init_params(cfg.arch, 3), "prototype", splits["test"])
    assert calls == [3 * 3] * 3


# sha256 of the losses (repr) and of the final parameter bytes of the run
# below; the losses were recorded while episodes still held copies of their
# images, the parameters once the conv adjoint summed its input gradient per
# kernel tap; a change to any training bit changes them
TRAIN_SHA256 = {
    "losses": "8e67a25e202f945666c714d557455728e6b28165a60feb2d083741735b9eed7b",
    "params": "8b0b4f24a81927b971632055fb42ef34102d0dcc4603ebb624069e1900c6d415",
}


def test_base_then_ours_training_bits_unchanged(splits):
    cfg = small_config(epochs_base=1, epochs_ours=1, episodes_per_epoch=3, lr=0.05)
    params = enc.init_params(cfg.arch, 3)
    params, base_losses = harness.train_episodic(cfg, params, "base", splits["train"])
    params, ours_losses = harness.train_episodic(cfg, params, "ours", splits["train"])
    losses = repr(base_losses + ours_losses).encode()
    assert hashlib.sha256(losses).hexdigest() == TRAIN_SHA256["losses"]
    assert hashlib.sha256(params.flat.tobytes()).hexdigest() == TRAIN_SHA256["params"]


# sha256 of the rendered reports below, recorded before evaluation shared
# feature maps between tasks; a change to any eval bit changes them
REPORT_SHA256 = {
    "prototype": "ce55c65cef9206476d6b01ab6de4960cd1e2ec3b0e462eb5e17b4fa77938a344",
    "refined": "433bf9d3f56e444e68e5588dc7d1a558115ffa6fed55602350d57eec6f90104c",
}


@pytest.mark.parametrize("mode", ["prototype", "refined"])
def test_report_bytes_identical_across_equal_seed_runs(splits, mode):
    # 6 tasks of 12 images over a 40-image split: tasks share images
    def run():
        params = enc.init_params(small_config().arch, 4)
        return harness.render_report(harness.evaluate(small_config(tasks=6), params, mode,
                                                      splits["test"]))

    texts = [run(), run()]
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == REPORT_SHA256[mode]


@pytest.mark.parametrize("mode", ["prototype", "refined"])
def test_task_records_rebuild_the_report(splits, monkeypatch, mode):
    # evaluate keeps no record, so a spy collects them; folded as evaluate
    # folds them, they give the report's figures bit for bit
    records, reps_boxes = [], []
    real_task, real_reps = harness._eval_task, episodic.refined_reps

    def eval_task(*args):
        records.append(real_task(*args))
        return records[-1]

    def refined_reps(*args):
        out = real_reps(*args)
        reps_boxes.append(out[1])
        return out

    monkeypatch.setattr(harness, "_eval_task", eval_task)
    monkeypatch.setattr(episodic, "refined_reps", refined_reps)
    cfg = RunConfig(n_way=3, k_shot=2, queries=3, tasks=6, **SMALL)
    report = harness.evaluate(cfg, enc.init_params(cfg.arch, 4), mode, splits["test"])
    assert [float((r.pred == r.episode.query_labels).mean())
            for r in records] == report.task_accuracies
    count = sum(len(r.ious) for r in records)
    assert sum(sum(r.ious.tolist(), 0.0) for r in records) / count == report.mean_iou
    assert sum(int((r.ious >= 0.5).sum()) for r in records) / count == report.corloc_at_50
    for r in records:
        assert r.ious.tolist() == iou(r.boxes, r.episode.query_boxes).tolist()
    if mode == "refined":   # one refined_reps call per task
        assert len(reps_boxes) == len(records) == 6
        assert all(np.array_equal(r.support_boxes, b) for r, b in zip(records, reps_boxes))
    else:
        assert reps_boxes == [] and all(r.support_boxes is None for r in records)


def test_refined_eval_with_full_image_boxes_replays_prototype_eval(splits, fix_boxes):
    # on a 4 x 4 map with one RoI sample per cell center, the full-image
    # RoI feature is the global average, i.e. the support embedding
    fix_boxes([BoundingBox(0, 0, 15, 15)])
    cfg = RunConfig(n_way=3, k_shot=2, queries=3, tasks=6, roi_grid=4, roi_samples=1,
                    **SMALL)
    params = enc.init_params(cfg.arch, 4)
    prototype, refined = (harness.evaluate(cfg, params, mode, splits["test"]).task_accuracies
                          for mode in ("prototype", "refined"))
    assert refined == prototype


def test_corloc_counts_a_box_of_iou_exactly_one_half(splits, monkeypatch):
    # every query is boxed (0, 0, 1, 1) against ground truth (0, 0, 1, 3):
    # a 2 x 2 overlap over a 2 x 4 union, IoU 0.5 exactly, which CorLoc@0.5 counts
    test = splits["test"]
    split = dataclasses.replace(test, boxes=np.tile([0, 0, 1, 3], (len(test.boxes), 1)))
    monkeypatch.setattr(harness, "propose_boxes",
                        lambda fms, *args: np.tile([0, 0, 1, 1], (len(fms), 1)))
    report = harness.evaluate(small_config(tasks=2), enc.init_params(small_config().arch, 4),
                              "prototype", split)
    assert (report.mean_iou, report.corloc_at_50) == (0.5, 1.0)


def test_evaluate_encodes_each_drawn_image_once(splits, monkeypatch):
    split = splits["test"]
    rows = {split.images[i].tobytes(): i for i in range(split.images.shape[0])}
    encoded, drawn = [], []
    real_forward, real_sample = enc.forward_batch, harness.sample_episode

    def forward_batch(params, images, keep_cache=True):
        encoded.extend(rows[image.tobytes()] for image in images)
        return real_forward(params, images, keep_cache)

    def sample_episode(*args):
        episode = real_sample(*args)
        drawn.extend(np.concatenate([episode.support_ids, episode.query_ids]).tolist())
        return episode

    monkeypatch.setattr(enc, "forward_batch", forward_batch)
    monkeypatch.setattr(harness, "sample_episode", sample_episode)
    harness.evaluate(small_config(tasks=12), enc.init_params(small_config().arch, 4),
                     "refined", split)
    assert len(drawn) == 12 * 12 > split.images.shape[0]
    assert sorted(encoded) == sorted(set(drawn))


def test_non_finite_map_is_refused_by_its_split_row(splits, monkeypatch):
    # the first task's last query encodes to NaN; scored, it would only
    # lower that task's accuracy
    real_forward, real_sample, first = enc.forward_batch, harness.sample_episode, []

    def forward_batch(params, images, keep_cache=True):
        fms, cache = real_forward(params, images, keep_cache)
        fms[-1, 0, 0, 0] = np.nan
        return fms, cache

    def sample_episode(*args):
        episode = real_sample(*args)
        first.append(int(episode.query_ids[-1]))
        return episode

    monkeypatch.setattr(enc, "forward_batch", forward_batch)
    monkeypatch.setattr(harness, "sample_episode", sample_episode)
    with pytest.raises(DegenerateRepresentation) as info:
        harness.evaluate(small_config(tasks=2), enc.init_params(small_config().arch, 4),
                         "refined", splits["test"])
    assert str(info.value) == f"split row {first[0]} has a non-finite feature map"


def test_evaluate_rejects_arch_mismatch(tmp_path):
    # the checkpoint is 32 px; a 64 px config would propose boxes in the
    # wrong frame. The check runs before the (missing) dataset is read.
    params = enc.init_params(RunConfig().arch, 0)
    cfg = RunConfig(data_dir=str(tmp_path / "missing"), arch_input_size=64, image_size=64)
    with pytest.raises(ArchMismatch):
        harness.evaluate(cfg, params, "refined")


@pytest.mark.parametrize("entry, message", [("train_episodic", "unknown phase 'bogus'"),
                                            ("evaluate", "unknown reps_mode 'bogus'")])
def test_unknown_phase_or_mode_fails_before_the_dataset_is_read(tmp_path, monkeypatch,
                                                                entry, message):
    # the CLI's --phase and --mode choices keep users from these errors;
    # library callers, the benchmark among them, can reach them
    def unread(*args):
        raise AssertionError("the dataset was read before the phase or mode was checked")

    monkeypatch.setattr(harness, "load_dataset", unread)
    cfg = RunConfig(data_dir=str(tmp_path / "missing"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(harness, entry)(cfg, enc.init_params(cfg.arch, 0), "bogus")


def test_localize_cmd_rejects_arch_mismatch(tmp_path):
    params = enc.init_params(RunConfig().arch, 0)
    cfg = RunConfig(data_dir=str(tmp_path / "missing"), arch_channels=(8, 16, 64))
    out_dir = tmp_path / "overlays"
    with pytest.raises(ArchMismatch):
        harness.localize_cmd(cfg, params, [0], "test", out_dir)
    assert not out_dir.exists()


def test_localize_cmd_boxes_unchanged(data_root, tmp_path):
    # recorded when every id was encoded in a batch of its own
    out_dir = tmp_path / "overlays"
    cfg = small_config(data_dir=str(data_root), per_class_count=8)
    harness.localize_cmd(cfg, enc.init_params(cfg.arch, 4), [7, 0, 39, 12, 7],
                         "test", out_dir)
    digest = hashlib.sha256((out_dir / "boxes.txt").read_bytes()).hexdigest()
    assert digest == "5e8df8b3a765fd9eade8d00362c43cbd05b97509d2b8a43261a6858d87040089"


def test_localize_cmd_rejects_late_unknown_id_before_writing(data_root, tmp_path):
    out_dir = tmp_path / "overlays"
    cfg = small_config(data_dir=str(data_root), per_class_count=8)
    with pytest.raises(UnknownId, match="id 1000000 outside split 'test'"):
        harness.localize_cmd(cfg, enc.init_params(cfg.arch, 4), [0, 10**6],
                             "test", out_dir)
    assert not out_dir.exists()


@pytest.mark.parametrize("ids, split, message", [([], "test", "no image ids given"),
                                                  ([0], "tset", "unknown split 'tset'")],
                         ids=["no-ids", "unknown-split"])
def test_localize_cmd_rejects_no_ids_or_unknown_split_before_any_work(
        data_root, tmp_path, monkeypatch, ids, split, message):
    def unread(*args):
        raise AssertionError("dataset read before the ids and split were checked")

    monkeypatch.setattr(harness, "load_dataset", unread)
    out_dir = tmp_path / "overlays"
    cfg = small_config(data_dir=str(data_root), per_class_count=8)
    with pytest.raises(UnknownId, match=message):
        harness.localize_cmd(cfg, enc.init_params(cfg.arch, 4), ids, split, out_dir)
    assert not out_dir.exists()


def test_train_rejects_checkpoint_arch_before_loading_or_stepping(tmp_path, monkeypatch):
    # the config asks for channels (4, 6); the checkpoint holds (4, 8), and
    # the dataset directory does not exist
    cfg = small_config(data_dir=str(tmp_path / "missing"))
    params = enc.init_params(EncoderArch(blocks=2, channels=(4, 8), kernel=3, input_size=16), 0)
    stepped = []
    monkeypatch.setattr(enc, "sgd_step", lambda *args: stepped.append(args))
    with pytest.raises(ArchMismatch, match="channels=\\(4, 8\\)"):
        harness.train_episodic(cfg, params, "base")
    assert not stepped


@pytest.mark.parametrize("entry", ["pretrain", "train_episodic", "evaluate", "localize_cmd"])
def test_entry_points_reject_dataset_spec_mismatch(data_root, tmp_path, entry):
    # the dataset holds 8 solid-noise images per class with at most 3 distractors
    cfg = small_config(data_dir=str(data_root), per_class_count=500,
                       background="gradient", distractors_max=9)
    params = enc.init_params(cfg.arch, 0)
    out_dir = tmp_path / "overlays"
    run = {
        "pretrain": lambda: harness.pretrain(cfg),
        "train_episodic": lambda: harness.train_episodic(cfg, params, "base"),
        "evaluate": lambda: harness.evaluate(cfg, params, "refined"),
        "localize_cmd": lambda: harness.localize_cmd(cfg, params, [0], "test", out_dir),
    }[entry]
    with pytest.raises(SpecMismatch, match="'per_class_count': \\(8, 500\\)"):
        run()
    assert not out_dir.exists()


def test_invalid_config_spec_fails_before_reading_the_dataset():
    # the spec is checked while the config is built, so no entry point can
    # reach the dataset with it
    with pytest.raises(ValueError, match=re.escape(
            "data.distractors_min must lie in [0, distractors_max = 1], got 5")):
        small_config(distractors_min=5, distractors_max=1)


def _recolor_first_class(spec):
    spec["classes"][0][1] = [0.5, 0.5, 0.5]


def _move_val_class_to_test(spec):
    spec["splits"]["test"].append(spec["splits"]["val"].pop())


def _drop_distractors_min(spec):
    del spec["distractors_min"]


@pytest.mark.parametrize("edit, key", [(_recolor_first_class, "classes"),
                                       (_move_val_class_to_test, "splits"),
                                       (_drop_distractors_min, "distractors_min")])
def test_edited_manifest_spec_names_its_key(data_root, tmp_path, edit, key):
    root = tmp_path / "data"
    shutil.copytree(data_root, root)
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest["spec"])
    (root / "manifest.json").write_text(json.dumps(manifest))
    cfg = small_config(data_dir=str(root), per_class_count=8)
    with pytest.raises(SpecMismatch) as info:
        harness.evaluate(cfg, enc.init_params(cfg.arch, 0), "refined")
    assert re.findall(r"'(\w+)': \(", str(info.value)) == [key]


def test_diverging_run_raises_before_stepping_on_nan(tmp_path, monkeypatch):
    # default arch, 5-way 1-shot 15-query at lr=1e6: the loss overflows to
    # nan on the fourth episode
    cfg = RunConfig(per_class_count=20, n_way=5, lr=1e6, epochs_base=1,
                    episodes_per_epoch=8)
    ds.generate_dataset(cfg.spec, 0, tmp_path)
    real_step = enc.sgd_step
    stepped = []

    def sgd_step(params, grads, lr):
        stepped.append(real_step(params, grads, lr))
        return stepped[-1]

    monkeypatch.setattr(enc, "sgd_step", sgd_step)
    with pytest.raises(NonFiniteLoss, match="base phase, epoch 0, episode 3"):
        harness.train_episodic(cfg, enc.init_params(cfg.arch, 0), "base",
                               ds.load_dataset(tmp_path)[1]["train"])
    assert len(stepped) == 3
    assert all(np.isfinite(p.flat).all() for p in stepped)


def test_dead_encoder_raises_before_stepping(tmp_path, monkeypatch):
    # 3-way at lr=1e6 the loss climbs to ~1e112, then every embedding is
    # equal: the loss is exactly log 3 and the gradient exactly zero
    cfg = RunConfig(per_class_count=20, n_way=3, lr=1e6, epochs_base=1,
                    episodes_per_epoch=8)
    ds.generate_dataset(cfg.spec, 0, tmp_path)
    real_step = enc.sgd_step
    stepped = []

    def sgd_step(params, grads, lr):
        stepped.append(real_step(params, grads, lr))
        return stepped[-1]

    monkeypatch.setattr(enc, "sgd_step", sgd_step)
    with pytest.raises(DeadEncoder, match="base phase, epoch 0, episode 3"):
        harness.train_episodic(cfg, enc.init_params(cfg.arch, 0), "base",
                               ds.load_dataset(tmp_path)[1]["train"])
    assert len(stepped) == 3
    assert all(np.isfinite(p.flat).all() for p in stepped)


@pytest.mark.parametrize("field", ["mean_iou", "task_accuracies", "config"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_with_a_non_finite_real_does_not_render(field, bad):
    value = {"mean_iou": bad, "task_accuracies": [0.5, bad], "config": {"loss.T": bad}}
    report = harness.EvalReport(seed=1, mode="prototype", n_tasks=2, mean_accuracy=0.5,
                                ci95=0.1, mean_iou=0.25, corloc_at_50=0.0,
                                task_accuracies=[0.4, 0.6], config={"seed": 1})
    with pytest.raises(ValueError, match="non-finite real"):
        harness.render_report(dataclasses.replace(report, **{field: value[field]}))


def test_failed_report_write_keeps_previous_report(tmp_path, monkeypatch):
    report = harness.EvalReport(seed=1, mode="prototype", n_tasks=2, mean_accuracy=0.5,
                                ci95=0.1, mean_iou=0.25, corloc_at_50=0.0,
                                task_accuracies=[0.4, 0.6], config={"seed": 1})
    path = tmp_path / "report.json"
    harness.report_emit(report, path)
    before = path.read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        harness.report_emit(dataclasses.replace(report, seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


_OVERFLOWS = {
    "pretrain": (NonFiniteLoss, r"^pretrain, epoch 0, batch 0 \(index 0\): .*non-finite map"),
    "train_episodic": (NonFiniteLoss, r"^base phase, epoch 0, episode 0 \(index 0\): loss nan"),
    "evaluate": (DegenerateRepresentation, r"^split row \d+ has a non-finite feature map"),
    "localize_cmd": (DegenerateRepresentation, r"^representation row 0 has norm inf"),
}


@pytest.mark.parametrize("entry", _OVERFLOWS)
def test_overflowing_encoder_raises_the_named_error(data_root, tmp_path, entry):
    # weights scaled by 1e200, or stepped at pretrain_lr = 1e300, overflow the
    # forward pass; tier-1 turns every RuntimeWarning into an error, so numpy's
    # overflow warning would otherwise pre-empt the named check
    cfg = small_config(data_dir=str(data_root), per_class_count=8, pretrain_lr=1e300,
                       pretrain_epochs=1, epochs_base=1, episodes_per_epoch=1, tasks=1)
    init = enc.init_params(cfg.arch, 0)
    params = enc.EncoderParams(cfg.arch, init.flat * 1e200)
    out_dir = tmp_path / "overlays"
    run = {
        "pretrain": lambda: harness.pretrain(cfg),
        "train_episodic": lambda: harness.train_episodic(cfg, params, "base"),
        "evaluate": lambda: harness.evaluate(cfg, params, "refined"),
        "localize_cmd": lambda: harness.localize_cmd(cfg, params, [0], "test", out_dir),
    }[entry]
    error, message = _OVERFLOWS[entry]
    with pytest.raises(error, match=message):
        run()
    assert not out_dir.exists()
