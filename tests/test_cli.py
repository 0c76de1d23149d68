"""End-to-end smoke test of the command line at a tiny scale."""

from pathlib import Path

import pytest

from protoloc import cli, harness

CONFIG = """\
dataset.path = data
arch.blocks = 2
arch.channels = 4,6
arch.input_size = 16
data.image_size = 16
data.per_class_count = 8
train.pretrain_epochs = 1
train.epochs_base = 1
train.epochs_ours = 1
train.episodes_per_epoch = 2
eval.n_way = 3
eval.queries = 3
eval.tasks = 3
"""

STAGES = [
    ["gen-data"],
    ["pretrain", "--out", "pre.tns"],
    ["train", "--phase", "base", "--checkpoint", "pre.tns", "--out", "base.tns"],
    ["train", "--phase", "ours", "--checkpoint", "base.tns", "--out", "ours.tns"],
    ["eval", "--mode", "prototype", "--checkpoint", "ours.tns", "--report", "prototype.json"],
    ["eval", "--mode", "refined", "--checkpoint", "ours.tns", "--report", "refined.json"],
    ["localize", "--checkpoint", "ours.tns", "--ids", "0,1,2", "--out-dir", "overlays"],
]
OUTPUTS = ["data/manifest.json", "pre.tns", "pre.json", "base.tns", "ours.tns",
           "prototype.json", "refined.json", "overlays/boxes.txt",
           "overlays/overlay_test_00002.ppm"]


def _run_chain(run_dir: Path, monkeypatch) -> dict:
    """Run every stage in run_dir with relative paths; returns the report bytes."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    Path("run.cfg").write_text(CONFIG)
    for argv in STAGES:
        assert cli.main(argv + ["--config", "run.cfg", "--seed", "7"]) == 0, argv
    missing = [name for name in OUTPUTS if not Path(name).is_file()]
    assert not missing
    return {mode: Path(f"{mode}.json").read_bytes() for mode in ("prototype", "refined")}


def test_chain_runs_and_reports_repeat_bytewise(tmp_path, monkeypatch, capsys):
    first = _run_chain(tmp_path / "a", monkeypatch)
    second = _run_chain(tmp_path / "b", monkeypatch)
    assert first == second
    assert b'"seed": 7' in first["refined"]
    assert "overlays in overlays" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["pretrain"],
                                  ["train", "--phase", "base", "--checkpoint", "pre.tns"]],
                         ids=["pretrain", "train"])
def test_json_checkpoint_out_fails_before_any_work(tmp_path, monkeypatch, argv):
    # model.json's sidecar is model.json itself: the write would destroy the checkpoint
    def unrun(*args):
        raise AssertionError("work started before --out was checked")

    for module, name in [(cli.enc, "load_checkpoint"), (harness, "load_dataset"),
                         (cli, "pretrain"), (cli, "train_episodic")]:
        monkeypatch.setattr(module, name, unrun)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="must not end in .json"):
        cli.main(argv + ["--out", "model.json"])
    assert list(tmp_path.iterdir()) == []
