"""The benchmark's layer tracer patches functions by (module, attribute);
every name it lists must still resolve, or a refactor silently drops a
layer from the benchmark. Reads bench/spans.py only."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from protoloc import encoder as enc
from protoloc import kernels

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_backward_makes_one_conv_vjp_call_per_block(monkeypatch):
    # the tracer names conv2d_vjp_batch spans b0/b1/b2 from the input side
    # (args[0].shape[1]); a split call would leave a block's metric at 0
    real = kernels.conv2d_vjp_batch
    signature = inspect.signature(real)
    calls = []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((args[0].shape[1], bound.arguments["need_input_grad"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "conv2d_vjp_batch", recording)
    params = enc.init_params(enc.EncoderArch(), 0)
    images = np.random.default_rng(0).uniform(size=(2, 32, 32, 3))
    fms, cache = enc.forward_batch(params, images)
    enc.backward_batch(params, cache, np.ones(fms.shape))
    assert sorted(calls) == [(8, True), (16, True), (32, False)]
