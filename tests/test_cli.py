"""End-to-end smoke test of the command line at a tiny scale."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protoloc
from protoloc import cli, harness
from protoloc.localization import DegenerateRepresentation, propose_boxes

from test_config import _configs, _render

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


@st.composite
def _tiny_configs(draw):
    """A config drawn by _configs() at a tiny scale: 1-4 blocks of 1-8 channels
    on a 16-32 px input, 0-3 distractors, 1-3 shots, 1-4 queries and 0-3 more
    items per class, one epoch per phase of 1-3 episodes, and 1-4 tasks."""
    channels = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    cell = 2 ** len(channels)
    size = cell * draw(st.integers(-(-15 // cell), 32 // cell))
    k_shot, queries = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    most = draw(st.integers(0, 3))   # distractors
    return dataclasses.replace(
        draw(_configs()), data_dir="data", arch_blocks=len(channels), arch_channels=channels,
        arch_input_size=size, image_size=size, distractors_max=most,
        distractors_min=draw(st.integers(0, most)), k_shot=k_shot, queries=queries,
        per_class_count=k_shot + queries + draw(st.integers(0, 3)),
        roi_grid=draw(st.integers(1, 9)), roi_samples=draw(st.integers(1, 7)),
        pretrain_epochs=1, pretrain_batch=draw(st.integers(1, 64)), epochs_base=1,
        epochs_ours=1, episodes_per_epoch=draw(st.integers(1, 3)), tasks=draw(st.integers(1, 4)))


# the named errors a run of an accepted config may stop with
_STOPS = (harness.NonFiniteLoss, harness.DeadEncoder, DegenerateRepresentation)


def _stop(argv):
    """None if the command ran, else the named error that stopped it, as text."""
    try:
        assert cli.main(argv + ["--config", "run.cfg"]) == 0, argv
    except _STOPS as err:
        return f"{type(err).__name__}: {err}"


def _reals(value):
    """Every real in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [real for item in value for real in _reals(item)]
    return [value] if isinstance(value, float) else []


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cfg=_tiny_configs())
def test_an_accepted_config_runs_bytewise_or_stops_by_name(cfg):
    # two runs of the whole chain write the same bytes, with every real
    # finite, or stop with the same named error; at lambda = 0, "ours" from
    # the pretrained checkpoint replays "base" from it
    outputs = ("prototype.json", "refined.json", "overlays/boxes.txt")
    runs = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for name in ("a", "b"):
            (Path(tmp) / name).mkdir()
            patch.chdir(Path(tmp) / name)
            Path("run.cfg").write_text(_render(cfg.echo()))
            stop = next((text for text in map(_stop, STAGES) if text), None)
            runs.append(stop or {out: Path(out).read_bytes() for out in outputs})
        assert runs[0] == runs[1]
        if stop is None:
            reals = [real for out in outputs[:2] for real in _reals(json.loads(runs[0][out]))]
            reals += [float(line.split()[-1]) for line in runs[0][outputs[2]].splitlines()]
            assert all(map(math.isfinite, reals))
        if Path("pre.tns").exists():
            zero = _stop(["train", "--phase", "ours", "--checkpoint", "pre.tns",
                          "--out", "zero.tns", "--set", "loss.lambda_roi=0"])
            if Path("base.tns").exists():
                assert zero is None
                for suffix in (".tns", ".json"):
                    assert (Path("zero" + suffix).read_bytes()
                            == Path("base" + suffix).read_bytes())
            else:   # the chain stopped in the base phase
                assert zero.replace("ours phase", "base phase") == stop


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


def _unread(module, name, monkeypatch):
    def unread(*args):
        raise AssertionError(f"{name} was entered before the failing check")

    monkeypatch.setattr(module, name, unread)


# --report aliases of the eval below, which reads ours.tns, its sidecar
# ours.json, run.cfg and data/manifest.json, all under tmp_path
_REPORT_ALIASES = {"checkpoint": "./ours.tns", "sidecar": "data/../ours.json",
                   "config": "run.cfg", "manifest": "{tmp}/data/manifest.json",
                   "directory": "data"}


@pytest.mark.parametrize("report", _REPORT_ALIASES.values(), ids=_REPORT_ALIASES)
def test_eval_report_naming_an_input_or_a_directory_fails_before_any_work(
        tmp_path, monkeypatch, capsys, report):
    monkeypatch.chdir(tmp_path)
    Path("data").mkdir()
    for name, text in [("run.cfg", CONFIG), ("data/manifest.json", "{}\n"),
                       ("ours.tns", "weights\n"), ("ours.json", "{}\n")]:
        Path(name).write_text(text)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    _unread(cli.enc, "load_checkpoint", monkeypatch)
    _unread(harness, "load_dataset", monkeypatch)
    report = report.format(tmp=tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "--config", "run.cfg", "--checkpoint", "ours.tns",
                  "--report", report])
    assert info.value.code == 2
    assert (f"argument --report: {report} is a directory or an input of eval"
            in capsys.readouterr().err)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def _tree(root):
    """Every path under root, with its bytes if it is a file."""
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


_TRAIN = ["train", "--phase", "base", "--checkpoint", "ours.tns"]
_LOCALIZE = ["localize", "--checkpoint", "ours.tns", "--ids", "0"]
# (argv, what stderr says) of an output that cannot be written, or that would
# write over an input, in the tree below; F is a regular file
_BAD_OUTPUTS = {
    "report-is-a-split-file": (["eval", "--checkpoint", "ours.tns", "--report",
                                "data/test/labels.tns"],
                               "--report: data/test/labels.tns is a directory or an input of eval"),
    "train-out-under-a-file": (_TRAIN + ["--out", "F/b.tns"], "--out: F/b.tns lies under a file"),
    "pretrain-out-under-a-file": (["pretrain", "--out", "F/ck.tns"],
                                  "--out: F/ck.tns lies under a file"),
    "out-dir-is-a-file": (_LOCALIZE + ["--out-dir", "F"],
                          "--out-dir: F is a file or an input of localize"),
    "out-dir-under-a-file": (_LOCALIZE + ["--out-dir", "F/overlays"],
                             "--out-dir: F/overlays lies under a file"),
    "out-dir-in-a-split": (_LOCALIZE + ["--out-dir", "data/val/overlays"],
                           "--out-dir: data/val/overlays is a file or an input of localize"),
    "out-is-the-checkpoint": (_TRAIN + ["--out", "./ours.tns"],
                              "--out: ./ours.tns is a directory or an input of train"),
    "out-sidecar-is-the-manifest": (["pretrain", "--out", "data/manifest.tns"],
                                    "--out: data/manifest.json is a directory or an input of "
                                    "pretrain"),
    "out-sidecar-is-the-config": (_TRAIN + ["--out", "run.tns", "--config", "run.json"],
                                  "--out: run.json is a directory or an input of train"),
    "out-is-a-directory": (["pretrain", "--out", "data"],
                           "--out: data is a directory or an input of pretrain"),
}


@pytest.mark.parametrize("argv, message", _BAD_OUTPUTS.values(), ids=_BAD_OUTPUTS)
def test_bad_output_fails_before_any_work_and_keeps_every_input(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in [("run.cfg", CONFIG), ("run.json", CONFIG), ("F", "a file\n"),
                       ("data/manifest.json", "{}\n"), ("ours.tns", "weights\n"),
                       ("ours.json", "{}\n")] + [(f"data/{split}/{f}", f"{split} {f}\n")
                                                 for split in ("train", "val", "test")
                                                 for f in ("images.tns", "labels.tns")]:
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text(text)
    before = _tree(tmp_path)
    _unread(cli.enc, "load_checkpoint", monkeypatch)
    _unread(harness, "load_dataset", monkeypatch)
    if "--config" not in argv:
        argv = argv + ["--config", "run.cfg"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert f"argument {message}" in capsys.readouterr().err
    assert _tree(tmp_path) == before


_CONFIG_ERRORS = {
    "line-without-equals": ("eval.tasks 3\n", [],
                            "line 1: expected 'key = value', got 'eval.tasks 3'"),
    "set-without-equals": ("", ["--set", "eval.tasks"],
                           "override 'eval.tasks' is not of the form key=value"),
    "unknown-key": ("eval.task = 3\n", [], "unknown config key 'eval.task'"),
}


@pytest.mark.parametrize("text, sets, message", _CONFIG_ERRORS.values(), ids=_CONFIG_ERRORS)
def test_unreadable_config_fails_by_name(tmp_path, monkeypatch, text, sets, message):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(text)
    with pytest.raises(ValueError) as info:
        cli.main(["gen-data", "--config", "run.cfg"] + sets)
    assert str(info.value) == message
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# a TNS1 header: magic, dtype code, ndim, then ndim u64 extents
_BAD_CHECKPOINTS = {
    "unknown-dtype-code": (b"TNS1" + bytes([7, 1]) + (3).to_bytes(8, "little"),
                           "ours.tns: unknown dtype code 7"),
    "truncated-header": (b"TNS1" + bytes([1, 2]) + (3).to_bytes(8, "little"),
                         "ours.tns: truncated header"),
}


@pytest.mark.parametrize("raw, message", _BAD_CHECKPOINTS.values(), ids=_BAD_CHECKPOINTS)
def test_malformed_checkpoint_header_fails_by_name(tmp_path, monkeypatch, raw, message):
    monkeypatch.chdir(tmp_path)
    Path("ours.tns").write_bytes(raw)
    _unread(harness, "load_dataset", monkeypatch)
    with pytest.raises(ValueError) as info:
        cli.main(["eval", "--checkpoint", "ours.tns", "--report", "report.json"])
    assert str(info.value) == message
    assert not Path("report.json").exists()


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
    with pytest.raises(DegenerateRepresentation,
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
    with pytest.raises(harness.NonFiniteLoss,
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
    with pytest.raises(harness.NonFiniteLoss,
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
