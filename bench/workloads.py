"""The three protoloc benchmark workloads.

Each workload is one process, one caller and a closed loop: the next call
starts when the previous one returns. A run has four phases:

1. set-up, repeated ``setup_repeats`` times and reported as a median:
   a fresh interpreter importing ``protoloc`` plus the workload's own
   in-process set-up (dataset render and load, checkpoint load, warm-up);
2. the output gate: fixed inputs whose outputs must match the references
   stored in ``reference/gates.json``;
3. the timed loop: fixed-size calls, each drawing its inputs from the
   workload seed and the call index, until ``seconds`` have passed;
4. checks on the outputs of the timed calls.

The workload seed only chooses inputs: the rendered dataset and the
episodes or tasks drawn from it. The program receives the dataset on disk
and a ``RunConfig``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from protoloc import cli, harness
from protoloc import dataset as ds
from protoloc import encoder as enc
from protoloc.config import RunConfig
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
CHECKPOINT = REFERENCE_DIR / "encoder.tns"
GATES = REFERENCE_DIR / "gates.json"

INPUT_SIZE = 32          # default arch.input_size; conv blocks are named by it
GATE_SEED = 0
GATE_PER_CLASS = 20      # 5-shot + 15 queries fits
GATE_EPISODES = 10
GATE_TASKS = 20


@dataclass(frozen=True)
class Scale:
    """Sizes of the timed calls. ``Scale()`` is the benchmark; tests shrink
    it. Gates always run at ``Scale()`` so the stored references hold."""
    setup_repeats: int = 3
    per_class_count: int = 200      # timed dataset for train and eval
    episodes_per_call: int = 25     # train_ours_1shot
    tasks_per_call: int = 100       # eval_refined_1shot: 8,000 image forwards
    pipeline_per_class: int = 20     # 5-shot + 15 queries per class
    pipeline_episodes: int = 2      # per training phase
    pipeline_tasks: int = 4         # per eval mode
    pipeline_localize: int = 10     # image ids for the localize stage


def call_seed(seed: int, call: int) -> int:
    """Config seed of timed call ``call`` (warm-up is call -1)."""
    return seed * 100_000 + call + 1


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_gates() -> dict:
    return json.loads(GATES.read_text())


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the whole program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import protoloc.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    return time.perf_counter() - start


def _config(data_dir, seed, **overrides) -> RunConfig:
    return RunConfig(data_dir=str(data_dir), seed=seed, workers=1, **overrides)


def _dataset(out_dir, seed, per_class_count):
    spec = harness.dataset_spec_from_config(
        RunConfig(per_class_count=per_class_count))
    ds.generate_dataset(spec, seed, out_dir)
    return ds.load_dataset(out_dir)[1]


class HostProbe:
    """A fixed kernel, independent of protoloc, timed at intervals in a run.

    The sandbox's speed drifts by up to +-30% from one run to the next, and
    the drift moves every timing of a run together. The kernel mixes what
    the workloads do (an im2col matmul, max pooling, small-map resize,
    threshold and ``ndimage.label``, a Python loop), so its median time in a
    run tracks the host's speed during that run. Timings are rescaled to a
    host on which the kernel takes REFERENCE_MS. Over sets of ten runs this
    cut the spread of the median item time from 0.04-0.13 to 0.02-0.08.
    Raw timings stay in the details line.
    """

    REFERENCE_MS = 9.0
    INTERVAL_S = 0.5      # ~4% of a run spent in the kernel

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((16, 34, 34, 8))
        self._w = rng.random((72, 16))
        self._map = rng.random((4, 4))
        self._rows = np.clip((np.arange(32) + 0.5) / 8 - 0.5, 0, 3).astype(np.int64)
        self._weights = rng.random(32)
        self.samples = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self):
        """Run the kernel twice and time the second run, so the caches the
        program left behind do not enter the figure."""
        start = time.perf_counter()
        self._kernel()
        mid = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self.spent += end - start
        self._last = end

    def _kernel(self):
        cols = np.lib.stride_tricks.sliding_window_view(
            self._x, (3, 3), axis=(1, 2)).reshape(16 * 32 * 32, 72)
        out = np.maximum(cols @ self._w, 0.0)
        out.reshape(16, 16, 2, 16, 2, 16).max(axis=(2, 4))
        grid = self._map[np.ix_(self._rows, self._rows)]
        for _ in range(12):
            up = grid * (1.0 - self._weights) + grid * self._weights[:, None]
            labels, _ = ndimage.label(up >= 0.5 * up.max())
            np.argwhere(labels == 1)
        total = 0
        for i in range(1000):
            total += i

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that maps a time measured in this run to the reference host."""
        return self.REFERENCE_MS / (1e3 * statistics.median(self.samples))


class ItemClock:
    """Duration of every item (episode or task) of the timed calls.

    Installed at ``harness.sample_episode``, which both loops call once at
    the start of every item; an item ends where the next one starts or
    where its call returns. The host probe runs between items, outside
    both.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.on_item = None
        self._open = None
        self._durations = []

    @contextlib.contextmanager
    def installed(self):
        original = harness.sample_episode

        def clocked(*args, **kwargs):
            self._close()
            if self.probe is not None:
                self.probe.maybe_sample()
            self._open = time.perf_counter()
            if self.on_item is not None:
                self.on_item()
            return original(*args, **kwargs)

        harness.sample_episode = clocked
        try:
            yield self
        finally:
            harness.sample_episode = original

    def _close(self):
        if self._open is not None:
            self._durations.append(time.perf_counter() - self._open)
            self._open = None

    def end_call(self) -> list:
        """Durations of the items of the call that just returned."""
        self._close()
        durations, self._durations = self._durations, []
        return durations


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: subclasses fill in set-up, gate, one timed call and checks."""

    name = ""
    clocked = True      # items are timed at harness.sample_episode
    tracer = None       # set during traced calls
    probe = None        # HostProbe of an untraced run

    def __init__(self, seed: int, work_dir: Path, scale: Scale):
        self.seed = seed
        self.work = work_dir
        self.scale = scale
        self.problems = []

    def fail(self, message: str):
        self.problems.append(message)

    def setup_once(self, repeat: int):
        """In-process set-up; the last repeat's state is the one used."""

    def gate(self, gates: dict):
        """Run the fixed gate inputs; returns (observation, quality) where
        quality is (eval accuracy, eval mean IoU)."""
        raise NotImplementedError

    def check_gate(self, observation, gates: dict):
        raise NotImplementedError

    def call(self, index: int) -> int:
        """One timed call; returns the number of items it completed."""
        raise NotImplementedError

    def items_per_call(self) -> int:
        return 1

    def check(self):
        """Checks on the outputs of the timed calls."""

    def issue_metric(self, metrics: dict) -> dict:
        """The workload's headline figure under its own name."""
        raise NotImplementedError


# The gate's config names its dataset by this label, not by a path: the
# report echoes the config, and its digest must not depend on where the
# checkout lives. The split itself is passed in.
GATE_DATA_LABEL = "gate-data"


def _gate_splits(work: Path):
    target = work / GATE_DATA_LABEL
    if not (target / "manifest.json").exists():
        return _dataset(target, GATE_SEED, GATE_PER_CLASS)
    return ds.load_dataset(target)[1]


class TrainOurs1Shot(Workload):
    """Episodic "ours" training, 5-way 1-shot 15-query, lambda=1, tau=0.5.

    About three quarters of an episode is ``encoder.backward_batch``; only
    the 5 support maps of its 80 go through localization and RoIAlign.
    """

    name = "train_ours_1shot"

    def _cfg(self, data_dir, seed, episodes):
        return _config(data_dir, seed, epochs_ours=1, episodes_per_epoch=episodes,
                       lambda_roi=1.0, tau_train=0.5)

    def setup_once(self, repeat):
        data_dir = self.work / f"data-{repeat}"
        splits = _dataset(data_dir, self.seed, self.scale.per_class_count)
        params, _ = enc.load_checkpoint(CHECKPOINT)
        harness.train_episodic(self._cfg(data_dir, call_seed(self.seed, -1), 1),
                               params, "ours", split=splits["train"])
        self.split = splits["train"]
        self.data_dir = data_dir
        self.params = params
        self.losses = []

    def gate(self, gates):
        splits = _gate_splits(self.work)
        params, _ = enc.load_checkpoint(CHECKPOINT)
        params, losses = harness.train_episodic(
            self._cfg(GATE_DATA_LABEL, GATE_SEED, GATE_EPISODES), params, "ours",
            split=splits["train"])
        report = harness.evaluate(_config(GATE_DATA_LABEL, GATE_SEED, tasks=GATE_TASKS),
                                  params, "refined", split=splits["test"])
        return [float(v) for v in losses], (report.mean_accuracy, report.mean_iou)

    def check_gate(self, losses, gates):
        ref = gates[self.name]
        want = np.asarray(ref["losses"])
        got = np.asarray(losses)
        if got.shape != want.shape or not np.allclose(got, want, rtol=ref["rtol"], atol=0.0):
            self.fail(f"gate loss trajectory differs from the reference beyond "
                      f"rtol {ref['rtol']}: {losses} vs {ref['losses']}")

    def items_per_call(self):
        return self.scale.episodes_per_call

    def call(self, index):
        cfg = self._cfg(self.data_dir, call_seed(self.seed, index),
                        self.scale.episodes_per_call)
        self.params, losses = harness.train_episodic(cfg, self.params, "ours",
                                                     split=self.split)
        self.losses.extend(losses)
        return len(losses)

    def issue_metric(self, metrics):
        return {"train_episodes_per_s": metrics["items_per_s"]}

    def check(self):
        losses = np.asarray(self.losses)
        if not (np.all(np.isfinite(losses)) and np.all(losses > 0.0)):
            self.fail("timed training produced a non-finite or non-positive loss")
        if not np.all(np.isfinite(self.params.flat)):
            self.fail("timed training produced non-finite parameters")


class EvalRefined1Shot(Workload):
    """Refined-mode evaluation on the test split, 5-way 1-shot 15-query.

    Every task runs one forward pass over 80 images and 80 ``propose_box``
    calls, and no backward pass. Each call evaluates a fixed number of
    tasks, so tasks x 80 images is 8 times the 1,000-image test split.
    """

    name = "eval_refined_1shot"

    def setup_once(self, repeat):
        data_dir = self.work / f"data-{repeat}"
        splits = _dataset(data_dir, self.seed, self.scale.per_class_count)
        params, _ = enc.load_checkpoint(CHECKPOINT)
        harness.evaluate(_config(data_dir, call_seed(self.seed, -1), tasks=1),
                         params, "refined", split=splits["test"])
        self.split = splits["test"]
        self.data_dir = data_dir
        self.params = params
        self.reports = []

    def gate_report_text(self) -> str:
        splits = _gate_splits(self.work)
        params, _ = enc.load_checkpoint(CHECKPOINT)
        report = harness.evaluate(
            _config(GATE_DATA_LABEL, GATE_SEED, tasks=GATE_TASKS),
            params, "refined", split=splits["test"])
        return harness.render_report(report)

    def gate(self, gates):
        text = self.gate_report_text()
        report = json.loads(text)
        return sha256_text(text), (report["mean_accuracy"], report["mean_iou"])

    def check_gate(self, digest, gates):
        want = gates[self.name]["report_sha256"]
        if digest != want:
            self.fail(f"gate report sha256 {digest} != reference {want}")

    def items_per_call(self):
        return self.scale.tasks_per_call

    def call(self, index):
        seed = call_seed(self.seed, index)
        cfg = _config(self.data_dir, seed, tasks=self.scale.tasks_per_call)
        report = harness.evaluate(cfg, self.params, "refined", split=self.split)
        path = self.work / "report.json"
        harness.report_emit(report, path)
        if path.read_text() != harness.render_report(report):
            self.fail(f"emitted report of call {index} differs from its rendering")
        self.reports.append((seed, report))
        return report.n_tasks

    def issue_metric(self, metrics):
        return {"eval_tasks_per_s": metrics["items_per_s"]}

    def check(self):
        for seed, report in self.reports:
            acc = np.asarray(report.task_accuracies)
            if (len(acc) != self.scale.tasks_per_call or not np.all((acc >= 0) & (acc <= 1))
                    or not 0.0 <= report.mean_iou <= 1.0):
                self.fail(f"report for seed {seed} is malformed")
        # The first task of the first and last call, evaluated on its own,
        # must reproduce the loop's result.
        for seed, report in {id(r): r for r in (self.reports[:1] + self.reports[-1:])}.values():
            alone = harness.evaluate(_config(self.data_dir, seed, tasks=1),
                                     self.params, "refined", split=self.split)
            if alone.task_accuracies[0] != report.task_accuracies[0]:
                self.fail(f"task 0 of seed {seed} is not reproducible")


PIPELINE_STAGES = ("gen-data", "pretrain", "train-base", "train-ours",
                   "eval-prototype", "eval-refined", "localize")


class Pipeline5Shot(Workload):
    """The user's whole chain through ``protoloc.cli.main``, 5-shot.

    gen-data -> pretrain -> train base -> train ours -> eval prototype ->
    eval refined -> localize, at a small fixed scale. Training runs 25
    support localizations and RoI VJPs per episode; eval uses K>1
    averaging; localize runs batch-1 forwards and writes overlays. Every
    stage writes and reads its files on disk.
    """

    name = "pipeline_5shot"
    clocked = False

    def _config_text(self, data_dir, s: Scale):
        return "\n".join([
            f"dataset.path = {data_dir}",
            f"data.per_class_count = {s.pipeline_per_class}",
            "train.pretrain_epochs = 1",
            "train.epochs_base = 1",
            "train.epochs_ours = 1",
            f"train.episodes_per_epoch = {s.pipeline_episodes}",
            "eval.k_shot = 5",
            f"eval.tasks = {s.pipeline_tasks}",
            "eval.workers = 1",
        ]) + "\n"

    def run_pipeline(self, out: Path, seed: int, scale: Scale):
        """Run every stage; returns {stage: exit code}, reports and boxes text."""
        out.mkdir(parents=True, exist_ok=True)
        config = out / "run.cfg"
        config.write_text(self._config_text(out / "data", scale))
        common = ["--config", str(config), "--seed", str(seed)]
        ids = ",".join(str(i) for i in range(scale.pipeline_localize))
        argv = {
            "gen-data": ["gen-data"],
            "pretrain": ["pretrain", "--out", str(out / "pre.tns")],
            "train-base": ["train", "--phase", "base", "--checkpoint",
                           str(out / "pre.tns"), "--out", str(out / "base.tns")],
            "train-ours": ["train", "--phase", "ours", "--checkpoint",
                           str(out / "base.tns"), "--out", str(out / "ours.tns")],
            "eval-prototype": ["eval", "--mode", "prototype", "--checkpoint",
                               str(out / "ours.tns"), "--report", str(out / "prototype.json")],
            "eval-refined": ["eval", "--mode", "refined", "--checkpoint",
                             str(out / "ours.tns"), "--report", str(out / "refined.json")],
            "localize": ["localize", "--checkpoint", str(out / "ours.tns"),
                         "--ids", ids, "--out-dir", str(out / "overlays")],
        }
        codes = {}
        for stage in PIPELINE_STAGES:
            if self.probe is not None:
                self.probe.maybe_sample()
            span = (self.tracer.span(f"cli.{stage}") if self.tracer is not None
                    else contextlib.nullcontext())
            with span, contextlib.redirect_stdout(io.StringIO()):
                codes[stage] = cli.main(argv[stage] + common)
        reports = {mode: (out / f"{mode}.json").read_text()
                   for mode in ("prototype", "refined")}
        boxes = (out / "overlays" / "boxes.txt").read_text()
        return codes, reports, boxes

    def _check_outputs(self, label, scale, codes, reports, boxes):
        bad = {stage: code for stage, code in codes.items() if code != 0}
        if bad:
            self.fail(f"{label}: stages returned non-zero codes {bad}")
        for mode, text in reports.items():
            report = json.loads(text)
            if report["mode"] != mode or report["n_tasks"] != scale.pipeline_tasks:
                self.fail(f"{label}: {mode} report is malformed")
        if len(boxes.splitlines()) != scale.pipeline_localize:
            self.fail(f"{label}: localize wrote {len(boxes.splitlines())} boxes")

    def gate(self, gates):
        out = self.work / "gate-pipeline"
        codes, reports, boxes = self.run_pipeline(out, GATE_SEED, Scale())
        shutil.rmtree(out)
        self._check_outputs("gate", Scale(), codes, reports, boxes)
        observation = {mode: sha256_text(text) for mode, text in reports.items()}
        parsed = {mode: json.loads(text) for mode, text in reports.items()}
        observation["quality"] = {mode: [r["mean_accuracy"], r["mean_iou"]]
                                  for mode, r in parsed.items()}
        return observation, tuple(observation["quality"]["refined"])

    def check_gate(self, observation, gates):
        ref = gates[self.name]
        for mode, (acc, iou) in observation["quality"].items():
            want_acc, want_iou = ref[mode]
            if abs(acc - want_acc) > ref["atol"] or abs(iou - want_iou) > ref["atol"]:
                self.fail(f"gate {mode} report: accuracy {acc}, IoU {iou} vs reference "
                          f"{want_acc}, {want_iou} beyond atol {ref['atol']}")

    def issue_metric(self, metrics):
        return {"pipeline_s": metric(metrics["item_ms_p50"]["value"] / 1e3, "s")}

    def call(self, index):
        out = self.work / f"pipeline-{index}"
        codes, reports, boxes = self.run_pipeline(out, call_seed(self.seed, index),
                                                  self.scale)
        shutil.rmtree(out)
        self._check_outputs(f"pipeline {index}", self.scale, codes, reports, boxes)
        return 1


WORKLOADS = {w.name: w for w in (TrainOurs1Shot, EvalRefined1Shot, Pipeline5Shot)}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class LoopResult:
    durations: list          # seconds per completed item
    items: int = 0
    elapsed: float = 0.0     # summed wall time of the calls
    failed: int = 0


def timed_loop(workload: Workload, seconds: float, tracer=None) -> tuple:
    """Closed loop of timed calls until ``seconds`` have passed.

    With a tracer, every other call runs traced, so the traced and untraced
    calls see the same drift in machine speed and their difference is the
    tracing overhead. A call that raises counts its items as failed and
    ends the loop. Returns (untraced LoopResult, traced LoopResult).
    """
    clock = ItemClock(workload.probe)
    plain, traced = LoopResult([]), LoopResult([])
    index = 0
    start = time.perf_counter()
    with clock.installed() if workload.clocked else contextlib.nullcontext():
        while True:
            use_trace = tracer is not None and index % 2 == 1
            part = traced if use_trace else plain
            if use_trace:
                clock.on_item = tracer.next_item
                workload.tracer = tracer
                if not workload.clocked:
                    tracer.next_item()
            else:
                clock.on_item = None
                workload.tracer = None
            call_start = time.perf_counter()
            probed = workload.probe.spent if workload.probe is not None else 0.0
            try:
                with tracer.installed() if use_trace else contextlib.nullcontext():
                    items = workload.call(index)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                part.failed += workload.items_per_call()
                workload.fail(f"call {index} raised")
                break
            finally:
                index += 1
            took = time.perf_counter() - call_start
            if workload.probe is not None:
                took -= workload.probe.spent - probed
            part.items += items
            part.elapsed += took
            if workload.clocked:
                part.durations.extend(clock.end_call())
            else:
                part.durations.append(took)
            if (time.perf_counter() - start >= seconds
                    and (tracer is None or traced.items > 0)):
                break
    return plain, traced


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]; 0 when no item
    completed (the run is then reported as not correct)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: Workload, repeats: int) -> float:
    """Median fresh-interpreter import plus median in-process set-up."""
    imports, local = [], []
    for r in range(repeats):
        if workload.probe is not None:
            workload.probe.sample()
        imports.append(import_seconds())
        start = time.perf_counter()
        workload.setup_once(r)
        local.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(local)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        scale: Scale = Scale()) -> tuple:
    """One benchmark run; returns (result dict, details dict)."""
    workload = WORKLOADS[name](seed, work_dir, scale)
    gates = load_gates()
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}

    if trace:
        setup_tracer = Tracer(INPUT_SIZE)
        with setup_tracer.installed():
            setup_s = measure_setup(workload, scale.setup_repeats)
        observation, quality = workload.gate(gates)
        with setup_tracer.installed():
            traced_observation, _ = workload.gate(gates)
        if traced_observation != observation:
            workload.fail("gate outputs differ with tracing on and off")
        details["gate_identical_traced"] = traced_observation == observation
    else:
        workload.probe = HostProbe()
        setup_s = measure_setup(workload, scale.setup_repeats)
        observation, quality = workload.gate(gates)
    workload.check_gate(observation, gates)

    tracer = Tracer(INPUT_SIZE) if trace else None
    plain, traced = timed_loop(workload, seconds, tracer)
    loops = [plain, traced]
    if not any(loop.failed for loop in loops):
        workload.check()
    attempted = sum(loop.items + loop.failed for loop in loops)
    failed = sum(loop.failed for loop in loops)
    details["problems"] = workload.problems
    details["failed_ratio"] = failed / max(attempted, 1)
    correct = not workload.problems and failed == 0

    if trace:
        from layers import layer_metrics
        metrics = layer_metrics(tracer, [setup_tracer], plain, traced)
        details["unpatched_targets"] = sorted(set(tracer.missing))
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{name}-seed{seed}.jsonl")
    else:
        durations = plain.durations
        raw = {
            "setup_s": setup_s,
            "items_per_s": plain.items / plain.elapsed if plain.elapsed else 0.0,
            "item_ms_p50": 1e3 * percentile(durations, 50),
        }
        host = workload.probe.scale()
        metrics = {
            "setup_s": metric(raw["setup_s"] * host, "s"),
            "items_per_s": metric(raw["items_per_s"] / host, "1/s"),
            "item_ms_p50": metric(raw["item_ms_p50"] * host, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "eval_accuracy": metric(quality[0], "ratio"),
            "eval_mean_iou": metric(quality[1], "ratio"),
            "outputs_match": metric(1.0 if correct else 0.0, "bool"),
        }
        details.update(workload.issue_metric(metrics))
        details["items"] = len(durations)
        details["raw"] = raw
        details["raw_item_ms_p25_p50_p75_p90"] = [1e3 * percentile(durations, q)
                                                  for q in (25, 50, 75, 90)]
        details["host_probe"] = {"samples": len(workload.probe.samples),
                                 "median_ms": 1e3 * statistics.median(workload.probe.samples),
                                 "scale": host}
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return result, details


def ensure_finite(metrics: dict):
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not finite")
