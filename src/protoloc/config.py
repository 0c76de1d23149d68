"""Run configuration: flat ``key = value`` config files plus defaults.

Each ``RunConfig`` field declares its dotted key once, in its metadata,
with the range rule its value must pass, if it has one, and its published
default, which no other module restates. Values are read as text and
converted by the type of the field their key names. Unset keys fall back
to those defaults; the RoI-loss weight and the training threshold default
by shot count (1.0 and 0.5 for 1-shot, 0.5 and 0.7 for 5-shot) unless set
explicitly, and are resolved to floats first. Then every
field's rule is checked in field order, and the first value that fails
raises ``<key> <rule>, got <value>``. Three rules are written out after
them: ``data.image_size`` must equal ``arch.input_size``; ``eval.workers``
accepts only 1, as evaluation runs on one thread; and, after ``spec`` is
built, ``eval.k_shot + eval.queries`` must not exceed
``data.per_class_count``. With ``eval.n_way`` in [2, classes per split],
that refuses any episode shape no split can fill, in ``gen-data`` too.

Building a config builds the run's components once, each from the keys
under its prefix: ``arch`` (``arch.*``) and ``spec`` (``data.*``); each
checks its own fields, and its error is re-raised under the key's name.
They are attributes, not fields, so ``echo()`` leaves them out. ``loc.*``
and ``roi.*`` build nothing: the rules on their keys are their only check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .dataset import SPLITS, DatasetSpec
from .encoder import EncoderArch

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


def apply_overrides(mapping: dict, sets) -> dict:
    """Apply ``key=value`` override strings on top of a parsed mapping."""
    merged = dict(mapping)
    for item in sets or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        merged[key.strip()] = raw.strip()
    return merged


# range rules of one value: (test, what the value must be)
_UNIT = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "must be finite and positive")
_NON_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0")
_COUNT = (lambda v: v >= 1, "must be >= 1")
_WAYS = min(len(SPLITS["train"]), len(SPLITS["test"]))   # classes an episode can draw
_WAY = (lambda v: 2 <= v <= _WAYS, f"must lie in [2, {_WAYS}]")


def _key(key: str, default, rule=None):
    """A RunConfig field with its default, dotted config key and range rule."""
    return field(default=default, metadata={"key": key, "rule": rule})


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
    lr: float = _key("train.lr", 1e-4, _POSITIVE)
    epochs_base: int = _key("train.epochs_base", 200, _COUNT)
    epochs_ours: int = _key("train.epochs_ours", 100, _COUNT)
    episodes_per_epoch: int = _key("train.episodes_per_epoch", 50, _COUNT)
    pretrain_epochs: int = _key("train.pretrain_epochs", 15, _COUNT)
    pretrain_lr: float = _key("train.pretrain_lr", 0.05, _POSITIVE)
    pretrain_batch: int = _key("train.pretrain_batch", 64, _COUNT)
    temperature: float = _key("loss.T", 64.0, _POSITIVE)
    lambda_roi: float | None = _key("loss.lambda_roi", None, _NON_NEGATIVE)
    tau_eval: float = _key("loc.tau_eval", 0.5, _UNIT)
    tau_train: float | None = _key("loc.tau_train", None, _UNIT)
    connectivity: int = _key("loc.connectivity", 4, (lambda v: v in (4, 8), "must be 4 or 8"))
    roi_grid: int = _key("roi.grid", 3, _COUNT)
    roi_samples: int = _key("roi.samples", 2, _COUNT)
    n_way: int = _key("eval.n_way", 5, _WAY)
    k_shot: int = _key("eval.k_shot", 1, _COUNT)
    queries: int = _key("eval.queries", 15, _COUNT)
    tasks: int = _key("eval.tasks", 10000, _COUNT)
    workers: int = _key("eval.workers", 1)
    seed: int = _key("seed", 0, (lambda v: v >= 0, "must be >= 0"))

    def __post_init__(self):
        self.arch_channels = tuple(int(c) for c in self.arch_channels)
        if self.lambda_roi is None:
            self.lambda_roi = 1.0 if self.k_shot == 1 else 0.5
        if self.tau_train is None:
            self.tau_train = 0.5 if self.k_shot == 1 else 0.7
        self.lambda_roi, self.tau_train = float(self.lambda_roi), float(self.tau_train)
        for key, f in _KEYS.items():
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if rule and not rule[0](value):
                raise ValueError(f"{key} {rule[1]}, got {value}")
        if self.workers != 1:
            raise ValueError(f"eval.workers must be 1, got {self.workers}: "
                             f"evaluation runs on one thread")
        if self.image_size != self.arch_input_size:
            raise ValueError(f"data.image_size {self.image_size} != "
                             f"arch.input_size {self.arch_input_size}")
        self.arch = self._build("arch", EncoderArch)
        self.spec = self._build("data", DatasetSpec)
        if self.k_shot + self.queries > self.per_class_count:
            raise ValueError(f"eval.k_shot + eval.queries must be <= data.per_class_count "
                             f"= {self.per_class_count}, got {self.k_shot} + {self.queries}")

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
