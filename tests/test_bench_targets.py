"""The benchmark's layer tracer patches functions by (module, attribute);
every name it lists must still resolve, or a refactor silently drops a
layer from the benchmark. Reads bench/spans.py only."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
