import numpy as np
import pytest

from protoloc import dataset as ds
from protoloc import encoder as enc
from protoloc import harness
from protoloc.config import RunConfig
from protoloc.encoder import EncoderArch
from protoloc.harness import ArchMismatch

SMALL = dict(arch_blocks=2, arch_channels=(4, 6), arch_input_size=16, image_size=16)


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = RunConfig(per_class_count=8, **SMALL)
    ds.generate_dataset(harness.dataset_spec_from_config(cfg), 5, root)
    return ds.load_dataset(root)[1]


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


@pytest.mark.parametrize("mode", ["prototype", "refined"])
def test_report_bytes_identical_across_workers(splits, mode):
    params = enc.init_params(small_config().arch, 4)
    texts = [harness.render_report(harness.evaluate(small_config(tasks=6, workers=w),
                                                    params, mode, splits["test"]))
             for w in (1, 2)]
    assert texts[0] == texts[1]


def test_evaluate_rejects_arch_mismatch(tmp_path):
    # the checkpoint is 32 px; a 64 px config would propose boxes in the
    # wrong frame. The check runs before the (missing) dataset is read.
    params = enc.init_params(EncoderArch(), 0)
    cfg = RunConfig(data_dir=str(tmp_path / "missing"), arch_input_size=64)
    with pytest.raises(ArchMismatch):
        harness.evaluate(cfg, params, "refined")


def test_localize_cmd_rejects_arch_mismatch(tmp_path):
    params = enc.init_params(EncoderArch(), 0)
    cfg = RunConfig(data_dir=str(tmp_path / "missing"), arch_channels=(8, 16, 64))
    out_dir = tmp_path / "overlays"
    with pytest.raises(ArchMismatch):
        harness.localize_cmd(cfg, params, [0], out_dir=out_dir)
    assert not out_dir.exists()
