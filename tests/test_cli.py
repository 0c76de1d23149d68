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
from protoloc.localization import propose_boxes

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


COLD_START = """\
import json, sys
import numpy as np
from protoloc import cli
assert cli.main(["gen-data", "--set", "dataset.path=data",
                 "--set", "data.per_class_count=2", "--seed", "3"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from protoloc.localization import propose_boxes
inputs = np.load("inputs.npz")
boxes = propose_boxes(inputs["fms"], inputs["reps"], 0.5, 16, 16).tolist()
print(json.dumps({"before": loaded, "boxes": boxes,
                  "after": "scipy.ndimage" in sys.modules}))
"""


def test_gen_data_imports_no_scipy_until_the_first_localization(tmp_path):
    # a fresh interpreter: this process has scipy loaded already
    rng = np.random.default_rng(5)
    fms = rng.normal(size=(3, 4, 4, 6))
    reps = fms.mean(axis=(1, 2))
    np.savez(tmp_path / "inputs.npz", fms=fms, reps=reps)
    src = str(Path(protoloc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["before"] == []
    assert (tmp_path / "data" / "manifest.json").is_file()
    assert result["boxes"] == propose_boxes(fms, reps, 0.5, 16, 16).tolist()
    assert result["after"]
