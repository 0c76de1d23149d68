import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoloc import cli, harness
from protoloc.config import RunConfig, apply_overrides, parse_config_text
from protoloc.dataset import DatasetSpec
from protoloc.encoder import EncoderArch


def _render(echo: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in echo.items())


def test_one_block_channel_list():
    cfg = RunConfig.from_mapping(parse_config_text("arch.blocks = 1\narch.channels = 8\n"))
    assert cfg.arch_channels == (8,)
    assert cfg.arch.channels == (8,)


def test_numeric_path_stays_text():
    cfg = RunConfig.from_mapping(apply_overrides({}, ["dataset.path=2024"]))
    assert cfg.data_dir == "2024"


def test_values_take_their_field_type():
    cfg = RunConfig.from_mapping(parse_config_text("train.lr = 1\nloss.lambda_roi = 2\n"
                                                   "eval.tasks = 7\nseed = 3\n"))
    assert (type(cfg.lr), type(cfg.lambda_roi), type(cfg.tasks)) == (float, float, int)
    assert (cfg.lr, cfg.lambda_roi, cfg.tasks, cfg.seed) == (1.0, 2.0, 7, 3)


@pytest.mark.parametrize("line", ["eval.tasks = 1.5", "train.lr = fast", "arch.channels = 8,x"])
def test_unreadable_value_names_its_key(line):
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        RunConfig.from_mapping(parse_config_text(line))


@pytest.mark.parametrize("line, key", [("loss.lambda_roi = -1", "loss.lambda_roi"),
                                       ("loc.connectivity = 5", "loc.connectivity"),
                                       ("data.image_size = 64", "data.image_size")])
def test_inconsistent_value_names_its_key(line, key):
    # each would otherwise pass silently or fail only once a run has started
    with pytest.raises(ValueError, match=key):
        RunConfig.from_mapping(parse_config_text(line))


_COUNT_KEYS = ("train.epochs_base", "train.epochs_ours", "train.episodes_per_epoch",
               "train.pretrain_epochs", "train.pretrain_batch", "eval.k_shot",
               "eval.queries", "eval.tasks", "roi.grid", "roi.samples")


_INVALID = [
    ("loss.T = 0", "loss.T must be finite and positive, got 0.0"),
    ("loss.T = -1", "loss.T must be finite and positive, got -1.0"),
    ("loc.tau_eval = 0", "loc.tau_eval must lie in (0, 1], got 0.0"),
    ("loc.tau_eval = 1.5", "loc.tau_eval must lie in (0, 1], got 1.5"),
    ("loc.tau_train = 0", "loc.tau_train must lie in (0, 1], got 0.0"),
    ("loc.tau_train = 1.5", "loc.tau_train must lie in (0, 1], got 1.5"),
    *[(f"{key} = 0", f"{key} must be >= 1, got 0") for key in _COUNT_KEYS],
    # a softmax over one class scores nothing, and a split holds 5 classes
    ("eval.n_way = 1", "eval.n_way must lie in [2, 5], got 1"),
    ("eval.n_way = 6", "eval.n_way must lie in [2, 5], got 6"),
    ("data.per_class_count = 20\neval.k_shot = 6",
     "eval.k_shot + eval.queries must be <= data.per_class_count = 20, got 6 + 15"),
    ("arch.channels = 8,0,32", "arch.channels (8, 0, 32) must all be positive"),
    ("arch.kernel = 4", "arch.kernel must be odd and positive, got 4"),
    ("arch.input_size = 20\ndata.image_size = 20", "arch.input_size 20 not divisible by 2^3"),
    ("data.per_class_count = 0", "data.per_class_count must be >= 1, got 0"),
    ("data.distractors_min = -1",
     "data.distractors_min must lie in [0, distractors_max = 3], got -1"),
    ("data.distractors_max = 4\ndata.distractors_min = 5",
     "data.distractors_min must lie in [0, distractors_max = 4], got 5"),
    ("data.background = foo",
     "data.background must be 'solid-noise' or 'gradient', got 'foo'"),
    ("data.image_size = 4\narch.input_size = 4\narch.blocks = 1\narch.channels = 8",
     "data.image_size must be >= 15, got 4"),
]


# a key's second row is named by the rule it breaks, so that the key's
# first row keeps the bare key as its id
_ROW_IDS = {"loc.tau_eval = 1.5": "loc.tau_eval-above-1", "loc.tau_train = 0": "loc.tau_train-0",
            "eval.n_way = 6": "eval.n_way-above-5",
            "data.per_class_count = 20\neval.k_shot = 6": "eval.k_shot+queries-above-count"}


@pytest.mark.parametrize("text, message", _INVALID,
                         ids=[_ROW_IDS.get(text, text.split(" = ")[0]) for text, _ in _INVALID])
def test_invalid_value_error_names_its_key_and_value(text, message):
    with pytest.raises(ValueError) as info:
        RunConfig.from_mapping(parse_config_text(text))
    assert str(info.value) == message


def test_shot_plus_queries_may_equal_the_class_count():
    # 5-shot with 15 queries draws every item of a 20-item class
    cfg = RunConfig.from_mapping(parse_config_text(
        "data.per_class_count = 20\neval.k_shot = 5\neval.queries = 15\n"))
    assert cfg.k_shot + cfg.queries == cfg.per_class_count


_IMPOSSIBLE_SHAPES = {
    "one-way": (["eval.n_way=1"], "eval.n_way must"),
    "six-way": (["eval.n_way=6"], "eval.n_way must"),
    "shot+queries-above-count": (["data.per_class_count=20", "eval.k_shot=6"],
                                 "eval.k_shot \\+ eval.queries must"),
}


@pytest.mark.parametrize("sets, key", _IMPOSSIBLE_SHAPES.values(), ids=_IMPOSSIBLE_SHAPES)
@pytest.mark.parametrize("command", ["pretrain", "gen-data"])
def test_cli_refuses_an_impossible_episode_shape_before_any_work(
        sets, key, command, tmp_path, monkeypatch):
    def unread(*args):
        raise AssertionError("work began before the config was checked")

    monkeypatch.setattr(harness, "load_dataset", unread)
    monkeypatch.setattr(cli, "generate_dataset", unread)
    argv = [command, "--set", f"dataset.path={tmp_path / 'data'}"]
    argv += [a for s in sets for a in ("--set", s)]
    argv += ["--out", str(tmp_path / "pre.tns")] if command == "pretrain" else []
    with pytest.raises(ValueError, match=key):
        cli.main(argv)
    assert list(tmp_path.iterdir()) == []


def test_inconsistent_arch_fails_at_config_time():
    with pytest.raises(ValueError, match="channels \\(8, 16\\) must list 3 entries"):
        RunConfig(arch_channels=(8, 16))


def test_cli_reports_arch_error_before_reading_the_dataset(tmp_path):
    argv = ["pretrain", "--set", "arch.channels=8,16",
            "--set", f"dataset.path={tmp_path / 'missing'}", "--out", str(tmp_path / "pre.tns")]
    with pytest.raises(ValueError, match="channels \\(8, 16\\) must list 3 entries"):
        cli.main(argv)
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_fails_at_config_time():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        RunConfig(seed=-1)


def test_cli_reports_negative_seed_before_reading_anything(tmp_path, monkeypatch):
    def unread(*args):
        raise AssertionError("read before the config was checked")

    monkeypatch.setattr(cli.enc, "load_checkpoint", unread)
    monkeypatch.setattr(harness, "load_dataset", unread)
    argv = ["train", "--seed", "-1", "--phase", "base", "--checkpoint",
            str(tmp_path / "pre.tns"), "--out", str(tmp_path / "base.tns")]
    with pytest.raises(ValueError, match="seed must be >= 0"):
        cli.main(argv)


def test_cli_reports_dataset_spec_error_before_reading_the_checkpoint(tmp_path, monkeypatch):
    def unread(*args):
        raise AssertionError("read before the config was checked")

    monkeypatch.setattr(cli.enc, "load_checkpoint", unread)
    monkeypatch.setattr(harness, "load_dataset", unread)
    argv = ["eval", "--set", "data.background=foo", "--checkpoint", str(tmp_path / "c.tns"),
            "--report", str(tmp_path / "report.json")]
    with pytest.raises(ValueError, match="data.background must be 'solid-noise' or 'gradient'"):
        cli.main(argv)


def test_key_given_twice_in_one_file_names_both_lines():
    text = "eval.k_shot = 1\n# five-shot\neval.k_shot = 5\n"
    with pytest.raises(ValueError, match="line 3: key 'eval.k_shot' already set on line 1"):
        parse_config_text(text)
    mapping = apply_overrides(parse_config_text("eval.k_shot = 1\n"), ["eval.k_shot=5"])
    assert RunConfig.from_mapping(mapping).k_shot == 5


def test_defaults_build_the_component_defaults():
    cfg = RunConfig()
    assert cfg.arch == EncoderArch()
    assert cfg.spec == DatasetSpec()


@pytest.mark.parametrize("k_shot, lambda_roi, tau_train", [(1, 1.0, 0.5), (5, 0.5, 0.7)])
def test_shot_dependent_defaults_resolve_to_floats(k_shot, lambda_roi, tau_train):
    cfg = RunConfig(k_shot=k_shot)
    assert (cfg.lambda_roi, cfg.tau_train) == (lambda_roi, tau_train)
    assert (type(cfg.lambda_roi), type(cfg.tau_train)) == (float, float)
    set_ = RunConfig.from_mapping(parse_config_text(
        f"eval.k_shot = {k_shot}\nloss.lambda_roi = 0\nloc.tau_train = 1\n"))
    assert (set_.lambda_roi, set_.tau_train) == (0.0, 1.0)
    assert set_.echo()["loss.lambda_roi"] == 0.0


@pytest.mark.parametrize("key", ["train.lr", "train.pretrain_lr", "loss.T", "loss.lambda_roi"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_real_fails_at_config_time(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        RunConfig.from_mapping(parse_config_text(f"{key} = {value}\n"))


def test_cli_rejects_non_finite_pretrain_lr_before_writing_a_checkpoint(tmp_path, monkeypatch):
    def unread(*args):
        raise AssertionError("read before the config was checked")

    monkeypatch.setattr(harness, "load_dataset", unread)
    argv = ["pretrain", "--set", "train.pretrain_lr=nan", "--out", str(tmp_path / "pre.tns")]
    with pytest.raises(ValueError, match="train.pretrain_lr must be finite and positive, got nan"):
        cli.main(argv)
    assert list(tmp_path.iterdir()) == []


def test_workers_other_than_one_fail_at_config_time():
    assert RunConfig.from_mapping(parse_config_text("eval.workers = 1\n")).workers == 1
    with pytest.raises(ValueError, match="eval.workers must be 1, got 2"):
        RunConfig.from_mapping(parse_config_text("eval.workers = 2\n"))


_TEXT = st.one_of(
    st.integers(0, 10**6).map(str),                            # numeric-looking
    st.floats(allow_nan=False).map(repr),
    st.text("abcXYZ0129_./-", max_size=12),
)
_BY_TYPE = {
    "int": st.integers(1, 10**9),
    "float": st.floats(0.0, 1.0, exclude_min=True),
    "float | None": st.none() | st.floats(0.0, 1.0, exclude_min=True),
    "str": _TEXT,
    "tuple": st.lists(st.integers(1, 512), min_size=1, max_size=4).map(tuple),
}


@st.composite
def _configs(draw):
    values = {f.name: draw(_BY_TYPE[f.type]) for f in dataclasses.fields(RunConfig)}
    values["connectivity"] = draw(st.sampled_from([4, 8]))
    values["workers"] = 1   # evaluation runs on one thread
    # a consistent arch: one channel count per block, an odd kernel, and
    # an input size divisible by 2^blocks
    values["arch_blocks"] = blocks = len(values["arch_channels"])
    values["arch_kernel"] = 2 * draw(st.integers(0, 4)) + 1
    # a consistent dataset spec: images of at least 15 px at the arch's input
    # size, a distractor range with min <= max, and one of the two backgrounds
    values["image_size"] = 2 ** blocks * draw(st.integers(-(-15 // 2 ** blocks), 64))
    values["arch_input_size"] = values["image_size"]
    values["distractors_min"] = draw(st.integers(0, values["distractors_max"]))
    values["background"] = draw(st.sampled_from(["solid-noise", "gradient"]))
    # an episode shape a split can fill: 2-5 ways, k + q items of a class
    values["n_way"] = draw(st.integers(2, 5))
    values["per_class_count"] = draw(st.integers(2, 10**9))
    values["k_shot"] = draw(st.integers(1, values["per_class_count"] - 1))
    values["queries"] = draw(st.integers(1, values["per_class_count"] - values["k_shot"]))
    return RunConfig(**values)


@settings(max_examples=100)
@given(cfg=_configs())
def test_echo_round_trips_through_config_text(cfg):
    again = RunConfig.from_mapping(parse_config_text(_render(cfg.echo())))
    assert again.echo() == cfg.echo()
