"""Tests of the benchmark itself, kept apart from the program's tests.

    python3 -m pytest -q bench/selftest.py

Covers the self-time arithmetic, the host probe's exclusion from item
times and its scale, the output gates' refusal of a perturbed output, the
BLAS pin, the refusal to run without the program, and a
tiny-size run of every workload with tracing off and on (~30 s).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(BENCH_DIR), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(setup_repeats=1, per_class_count=20, episodes_per_call=2,
                       tasks_per_call=2, pipeline_episodes=1, pipeline_tasks=1,
                       pipeline_localize=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as d:
        yield Path(d)


# -- self time ----------------------------------------------------------------

SYNTHETIC = [
    ("root", 0.0, 10.0, -1, 0),
    ("a", 1.0, 4.0, 0, 0),
    ("b", 3.0, 6.0, 0, 0),     # overlaps a: the overlap counts once
    ("c", 2.0, 3.0, 1, 0),     # grandchild: not subtracted from root
    ("d", 8.0, 12.0, 0, 0),    # runs past root: clipped to it
    ("a", 20.0, 21.5, -1, 1),
]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    assert spans.self_times(SYNTHETIC) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.5])


def test_totals_sum_inclusive_self_and_calls_per_name():
    sums = spans.totals(SYNTHETIC)
    assert sums["a"] == pytest.approx((4.5, 3.5, 2))
    assert sums["root"] == pytest.approx((10.0, 3.0, 1))


def test_tracer_nests_spans_and_restores_targets():
    from protoloc import encoder, harness

    original = encoder.forward_batch
    tracer = spans.Tracer(workloads.INPUT_SIZE)
    with tracer.installed():
        assert encoder.forward_batch is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert encoder.forward_batch is original
    assert harness.propose_box.__name__ == "propose_box"
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.missing == []


# -- host probe -----------------------------------------------------------------

def test_item_clock_leaves_probe_time_out_of_items(monkeypatch):
    from protoloc import harness

    class SlowProbe:
        def maybe_sample(self):
            time.sleep(0.05)

    monkeypatch.setattr(harness, "sample_episode", lambda: None)
    clock = workloads.ItemClock(SlowProbe())
    with clock.installed():
        for _ in range(3):
            harness.sample_episode()
            time.sleep(0.01)
    durations = clock.end_call()
    assert len(durations) == 3
    assert all(0.01 <= d < 0.04 for d in durations)


def test_host_probe_scale_maps_median_to_reference():
    probe = workloads.HostProbe()
    probe.sample()
    assert len(probe.samples) == 1 and probe.spent >= probe.samples[0] > 0
    ref = probe.REFERENCE_MS / 1e3
    probe.samples = [ref / 2, ref, 2 * ref]
    assert probe.scale() == pytest.approx(1.0)


# -- output gates -------------------------------------------------------------

def test_eval_gate_rejects_report_perturbed_by_one_byte(work):
    wl = workloads.EvalRefined1Shot(0, work, TINY)
    gates = workloads.load_gates()
    text = wl.gate_report_text()
    wl.check_gate(workloads.sha256_text(text), gates)
    assert wl.problems == []
    i = len(text) // 2
    perturbed = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    wl.check_gate(workloads.sha256_text(perturbed), gates)
    assert len(wl.problems) == 1


def test_train_gate_tolerance():
    wl = workloads.TrainOurs1Shot(0, Path("."), TINY)
    gates = workloads.load_gates()
    losses = gates["train_ours_1shot"]["losses"]
    wl.check_gate([v * (1 + 1e-12) for v in losses], gates)
    assert wl.problems == []
    wl.check_gate([v * (1 + 1e-6) for v in losses], gates)
    wl.check_gate(losses[:-1], gates)
    assert len(wl.problems) == 2


def test_pipeline_gate_tolerance():
    wl = workloads.Pipeline5Shot(0, Path("."), TINY)
    gates = workloads.load_gates()
    ref = gates["pipeline_5shot"]
    quality = {mode: list(ref[mode]) for mode in ("prototype", "refined")}
    wl.check_gate({"quality": quality}, gates)
    assert wl.problems == []
    quality["refined"][1] += 2 * ref["atol"]
    wl.check_gate({"quality": quality}, gates)
    assert len(wl.problems) == 1


def test_checkpoint_is_the_stored_one():
    digest = hashlib.sha256(workloads.CHECKPOINT.read_bytes()).hexdigest()
    assert digest == workloads.load_gates()["checkpoint_sha256"]


# -- environment --------------------------------------------------------------

def test_workload_names_agree():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(bench_run.WORKLOAD_NAMES)


def test_blas_pin_refuses_override_and_sets_default():
    env = {"OPENBLAS_NUM_THREADS": "1"}
    bench_run.pin_blas_threads(env)
    assert all(env[v] == "1" for v in bench_run.BLAS_THREAD_VARS)
    with pytest.raises(SystemExit):
        bench_run.pin_blas_threads({"OMP_NUM_THREADS": "2"})


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(BENCH_DIR, work / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval_refined_1shot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tiny runs ------------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_untraced(name, work):
    result, details = workloads.run(name, 1, 0.01, False, work, TINY)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_traced(name, work):
    result, details = workloads.run(name, 1, 0.01, True, work, TINY)
    assert result["correct"], details["problems"]
    assert details["gate_identical_traced"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    calls = metrics["localization.propose_box.calls"]["value"]
    backward = metrics["encoder.backward_batch.calls"]["value"]
    if name == "eval_refined_1shot":
        assert (calls, backward) == (80, 0)
        assert metrics["encoder.forward_batch.images"]["value"] == 80
    elif name == "train_ours_1shot":
        assert (calls, backward) == (5, 1)
        assert metrics["roi.calls"]["value"] == 5
    else:
        assert metrics["cli.eval-refined.s"]["value"] > 0
        assert metrics["roi.calls"]["value"] > 0
