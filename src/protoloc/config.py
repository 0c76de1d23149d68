"""Run configuration: flat ``key = value`` config files plus defaults.

Each ``RunConfig`` field declares its dotted key once, in its metadata.
Values are read as text and converted by the type of the field their key
names. Unset keys fall back to the published defaults; the
RoI-loss weight and the training threshold default by shot count (1.0 and
0.5 for 1-shot, 0.5 and 0.7 for 5-shot) unless set explicitly, and are
resolved to floats when the config is built. Evaluation runs on one thread:
``eval.workers`` accepts only 1.

Building a config builds the run's components once, each from the keys
under its prefix: ``arch`` (``arch.*``), ``spec`` (``data.*``) and ``roi``
(``roi.*``). Each checks its own fields, and its error is re-raised under the
key's name. They are attributes, not fields, so ``echo()`` leaves them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dataset import DatasetSpec
from .encoder import EncoderArch
from .roi import RoiConfig

# text -> value, keyed by the RunConfig field annotations (kept as strings)
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "tuple": lambda raw: tuple(int(c) for c in raw.split(",")),
}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into key -> text; ``#`` starts a
    comment, and a key may be set once per file."""
    out, where = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in where:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {where[key]}")
        where[key] = lineno
        out[key] = raw.strip()
    return out


def load_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text())


def apply_overrides(mapping: dict, sets) -> dict:
    """Apply ``key=value`` override strings on top of a parsed mapping."""
    merged = dict(mapping)
    for item in sets or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        merged[key.strip()] = raw.strip()
    return merged


def _key(key: str, default):
    """A RunConfig field with its default and its dotted config key."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    data_dir: str = _key("dataset.path", "data/shapes")
    arch_blocks: int = _key("arch.blocks", 3)
    arch_channels: tuple = _key("arch.channels", (8, 16, 32))
    arch_kernel: int = _key("arch.kernel", 3)
    arch_input_size: int = _key("arch.input_size", 32)
    image_size: int = _key("data.image_size", 32)
    per_class_count: int = _key("data.per_class_count", 200)
    distractors_min: int = _key("data.distractors_min", 1)
    distractors_max: int = _key("data.distractors_max", 3)
    background: str = _key("data.background", "solid-noise")
    lr: float = _key("train.lr", 1e-4)
    epochs_base: int = _key("train.epochs_base", 200)
    epochs_ours: int = _key("train.epochs_ours", 100)
    episodes_per_epoch: int = _key("train.episodes_per_epoch", 50)
    pretrain_epochs: int = _key("train.pretrain_epochs", 15)
    pretrain_lr: float = _key("train.pretrain_lr", 0.05)
    pretrain_batch: int = _key("train.pretrain_batch", 64)
    temperature: float = _key("loss.T", 64.0)
    lambda_roi: float | None = _key("loss.lambda_roi", None)
    tau_eval: float = _key("loc.tau_eval", 0.5)
    tau_train: float | None = _key("loc.tau_train", None)
    connectivity: int = _key("loc.connectivity", 4)
    roi_grid: int = _key("roi.grid", 3)
    roi_samples: int = _key("roi.samples", 2)
    n_way: int = _key("eval.n_way", 5)
    k_shot: int = _key("eval.k_shot", 1)
    queries: int = _key("eval.queries", 15)
    tasks: int = _key("eval.tasks", 10000)
    workers: int = _key("eval.workers", 1)
    seed: int = _key("seed", 0)

    def __post_init__(self):
        self.arch_channels = tuple(int(c) for c in self.arch_channels)
        if self.lambda_roi is None:
            self.lambda_roi = 1.0 if self.k_shot == 1 else 0.5
        if self.tau_train is None:
            self.tau_train = 0.5 if self.k_shot == 1 else 0.7
        self.lambda_roi, self.tau_train = float(self.lambda_roi), float(self.tau_train)
        for key in ("loc.tau_eval", "loc.tau_train"):
            v = getattr(self, _KEYS[key].name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{key} must lie in (0, 1], got {v}")
        for key in ("train.lr", "train.pretrain_lr", "loss.T"):
            v = getattr(self, _KEYS[key].name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{key} must be finite and positive, got {v}")
        if not (math.isfinite(self.lambda_roi) and self.lambda_roi >= 0):
            raise ValueError(f"loss.lambda_roi must be finite and >= 0, got {self.lambda_roi}")
        for key in ("train.epochs_base", "train.epochs_ours", "train.episodes_per_epoch",
                    "train.pretrain_epochs", "train.pretrain_batch", "eval.n_way",
                    "eval.k_shot", "eval.queries", "eval.tasks"):
            v = getattr(self, _KEYS[key].name)
            if v < 1:
                raise ValueError(f"{key} must be >= 1, got {v}")
        if self.workers != 1:
            raise ValueError(f"eval.workers must be 1, got {self.workers}: "
                             f"evaluation runs on one thread")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"loc.connectivity must be 4 or 8, got {self.connectivity}")
        if self.image_size != self.arch_input_size:
            raise ValueError(f"data.image_size {self.image_size} != "
                             f"arch.input_size {self.arch_input_size}")
        self.arch = self._build("arch", EncoderArch)
        self.spec = self._build("data", DatasetSpec)
        self.roi = self._build("roi", RoiConfig)

    def _build(self, prefix: str, component):
        """The component whose fields are the keys ``prefix.<field>``; its
        errors open with the field, so the prefix makes them name the key."""
        kwargs = {key.partition(".")[2]: getattr(self, f.name)
                  for key, f in _KEYS.items() if key.startswith(prefix + ".")}
        try:
            return component(**kwargs)
        except ValueError as e:
            raise ValueError(f"{prefix}.{e}") from None

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        """Build from key -> value, reading each value's text as its field's type."""
        kwargs = {}
        for key, value in mapping.items():
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            f = _KEYS[key]
            try:
                kwargs[f.name] = _PARSERS[f.type](str(value).strip())
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: cannot read {value!r} as {f.type}") from None
        return cls(**kwargs)

    def echo(self) -> dict:
        """Canonical key -> value view for report embedding.

        ``eval.workers`` is left out: it can only be 1 and names no part of
        the experiment.
        """
        out = {}
        for f in fields(self):
            if f.name == "workers":
                continue
            value = getattr(self, f.name)
            if f.name == "arch_channels":
                value = ",".join(str(c) for c in value)
            out[f.metadata["key"]] = value
        return out


_KEYS = {f.metadata["key"]: f for f in fields(RunConfig)}   # config key -> its field
