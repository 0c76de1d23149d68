"""End-to-end smoke test of the command line at a tiny scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protoloc
from protoloc import cli, harness
from protoloc.localization import DegenerateRepresentation, propose_boxes

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


def test_each_command_reads_only_the_split_it_uses(tmp_path, monkeypatch):
    # load_dataset checks every file, but only the split a command indexes
    # is read into memory
    from protoloc import dataset
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(CONFIG)
    read = []
    real = dataset.read_tns_sha256
    monkeypatch.setattr(dataset, "read_tns_sha256",
                        lambda path: read.append(Path(path).parent.name) or real(path))
    for argv, split in zip(STAGES, [None, "train", "train", "train", "test", "test", "test"]):
        read.clear()
        assert cli.main(argv + ["--config", "run.cfg", "--seed", "7"]) == 0, argv
        assert read == ([] if split is None else [split] * 3), argv
    read.clear()
    assert cli.main(["localize", "--checkpoint", "ours.tns", "--ids", "0", "--split", "val",
                     "--out-dir", "val-overlays", "--config", "run.cfg"]) == 0
    assert read == ["val"] * 3


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


def test_unreadable_ids_fail_while_parsing_before_the_checkpoint_is_read(
        tmp_path, monkeypatch, capsys):
    def unread(*args):
        raise AssertionError("the checkpoint was read before --ids was parsed")

    monkeypatch.setattr(cli.enc, "load_checkpoint", unread)
    monkeypatch.chdir(tmp_path)
    for ids in ("1,x", ",", "-1", "0,-3"):   # unreadable, no id, negative ids
        with pytest.raises(SystemExit) as info:
            cli.main(["localize", "--checkpoint", "ours.tns", "--ids", ids])
        assert info.value.code == 2
        assert f"argument --ids: invalid int_list value: '{ids}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_split_fails_while_parsing_before_the_checkpoint_is_read(
        tmp_path, monkeypatch, capsys):
    def unread(*args):
        raise AssertionError("the checkpoint was read before --split was parsed")

    monkeypatch.setattr(cli.enc, "load_checkpoint", unread)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["localize", "--checkpoint", "ours.tns", "--ids", "0", "--split", "bogus"])
    assert info.value.code == 2
    assert "argument --split: invalid choice: 'bogus'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_diverging_pretrain_raises_and_writes_no_checkpoint(tmp_path, monkeypatch):
    # default arch at pretrain_lr = 1e6: after three steps every embedding is
    # zero, and so is the encoder gradient of the fourth batch
    real_step = cli.enc.sgd_step
    stepped = []

    def sgd_step(params, grads, lr):
        stepped.append(real_step(params, grads, lr))
        return stepped[-1]

    monkeypatch.setattr(cli.enc, "sgd_step", sgd_step)
    monkeypatch.chdir(tmp_path)
    common = ["--set", "dataset.path=data", "--set", "data.per_class_count=20", "--seed", "0"]
    assert cli.main(["gen-data"] + common) == 0
    with pytest.raises(harness.DeadEncoder, match=r"pretrain, epoch 1, batch 1 \(index 3\)"):
        cli.main(["pretrain"] + common + ["--set", "train.pretrain_lr=1e6",
                                          "--set", "train.pretrain_epochs=2", "--out", "pre.tns"])
    assert len(stepped) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


COLD_START = """\
import json, sys
sys.modules["scipy"] = None             # every scipy import now fails
import numpy as np
from protoloc import cli
from protoloc.localization import DegenerateRepresentation, propose_boxes
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv + ["--config", "run.cfg", "--seed", "7"]) == 0, argv
inputs = np.load("inputs.npz")
boxes = propose_boxes(inputs["fms"], inputs["reps"], 0.5, 16, 16, 4).tolist()
print(json.dumps({"boxes": boxes, "loaded": sorted(
    m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module)}))
"""


def test_gen_data_imports_no_scipy_until_the_first_localization(tmp_path):
    # a fresh interpreter in which scipy cannot be imported runs the whole
    # chain, localization included
    rng = np.random.default_rng(5)
    fms = rng.normal(size=(3, 4, 4, 6))
    reps = fms.mean(axis=(1, 2))
    np.savez(tmp_path / "inputs.npz", fms=fms, reps=reps)
    (tmp_path / "run.cfg").write_text(CONFIG)
    src = str(Path(protoloc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(STAGES)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert [name for name in OUTPUTS if not (tmp_path / name).is_file()] == []
    assert result["boxes"] == propose_boxes(fms, reps, 0.5, 16, 16, 4).tolist()


def test_degenerate_episode_names_its_phase_epoch_and_episode(tmp_path, monkeypatch):
    # at loss.T = 1e-300 the first "ours" step leaves weights near 1e295, and
    # the next episode's forward pass gives a support embedding a NaN norm
    monkeypatch.chdir(tmp_path)
    common = ["--set", "dataset.path=data", "--set", "data.per_class_count=20", "--seed", "0"]
    assert cli.main(["gen-data"] + common) == 0
    assert cli.main(["pretrain"] + common + ["--set", "train.pretrain_epochs=1",
                                             "--out", "pre.tns"]) == 0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateRepresentation,
                          match=r"^ours phase, epoch 0, episode 1 \(index 1\): "
                                r"representation row 0 has norm nan"):
        cli.main(["train"] + common + ["--phase", "ours", "--checkpoint", "pre.tns",
                                       "--out", "ours.tns", "--set", "loss.T=1e-300",
                                       "--set", "train.epochs_ours=1",
                                       "--set", "train.episodes_per_epoch=3"])
    assert not (tmp_path / "ours.tns").exists()


def test_blown_up_last_ours_step_raises_and_writes_no_checkpoint(tmp_path, monkeypatch):
    # one "ours" episode at loss.T = 1e-300 takes a finite step to weights near
    # 1e295; the forward of split row 0 then overflows, so no checkpoint is written
    monkeypatch.chdir(tmp_path)
    common = ["--set", "dataset.path=data", "--set", "data.per_class_count=20", "--seed", "0"]
    assert cli.main(["gen-data"] + common) == 0
    assert cli.main(["pretrain"] + common + ["--set", "train.pretrain_epochs=1",
                                             "--out", "pre.tns"]) == 0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(harness.NonFiniteLoss,
                          match=r"^ours phase, epoch 0, episode 0 \(index 0\): .*non-finite"):
        cli.main(["train"] + common + ["--phase", "ours", "--checkpoint", "pre.tns",
                                       "--out", "ours.tns", "--set", "loss.T=1e-300",
                                       "--set", "train.epochs_ours=1",
                                       "--set", "train.episodes_per_epoch=1"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "pre.json", "pre.tns"]


def test_blown_up_last_pretrain_step_raises_and_writes_no_checkpoint(tmp_path, monkeypatch):
    # one batch holds the whole train split, and its finite step at
    # pretrain_lr = 1e300 leaves an encoder whose forward overflows
    monkeypatch.chdir(tmp_path)
    common = ["--set", "dataset.path=data", "--set", "data.per_class_count=20", "--seed", "0"]
    assert cli.main(["gen-data"] + common) == 0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(harness.NonFiniteLoss,
                          match=r"^pretrain, epoch 0, batch 0 \(index 0\): .*non-finite"):
        cli.main(["pretrain"] + common + ["--set", "train.pretrain_epochs=1",
                                          "--set", "train.pretrain_batch=100",
                                          "--set", "train.pretrain_lr=1e300", "--out", "pre.tns"])
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


_CLI_MODULES = ("cli", "config", "dataset", "encoder", "episodic", "harness", "kernels",
                "localization", "roi", "tns_io")


@pytest.mark.parametrize("module, name, loaded", [
    ("protoloc.tns_io", "read_tns", ["tns_io"]),
    ("protoloc.dataset", "sample_episode", ["dataset", "kernels", "localization", "tns_io"]),
    ("protoloc.roi", "roi_feature", ["kernels", "roi"]),
    ("protoloc.cli", "main", _CLI_MODULES),
], ids=["tns_io", "dataset", "roi", "cli"])
def test_a_module_loads_only_the_modules_it_imports(module, name, loaded):
    # the package re-exports nothing: importing one module in a fresh
    # interpreter loads the package, that module and what it imports
    src = str(Path(protoloc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = (f"import json, sys\nfrom {module} import {name}\nassert callable({name})\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'protoloc')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["protoloc"] + [f"protoloc.{m}" for m in sorted(loaded)]
