"""Per-layer metrics of a traced run.

Times named ``*.ms``/``*.self_ms`` (and the ``cli.*.s`` stage times) are per
item: per episode on train_ours_1shot, per task on eval_refined_1shot, per
whole pipeline on pipeline_5shot. Counts are per item too. The set-up
layers (dataset render and load, checkpoint save and load, report emission)
are per call. A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from spans import totals
from workloads import PIPELINE_STAGES

# metric name -> (span name, field): "s" inclusive time, "self" self time,
# "calls" call count; all divided by the traced item count.
PER_ITEM = {}
for _b in range(3):
    PER_ITEM[f"kernels.conv2d_batch.b{_b}.ms"] = (f"kernels.conv2d_batch.b{_b}", "s")
    PER_ITEM[f"kernels.conv2d_vjp_batch.b{_b}.ms"] = (f"kernels.conv2d_vjp_batch.b{_b}", "s")
PER_ITEM.update({
    "kernels.maxpool2d_batch.ms": ("kernels.maxpool2d_batch", "s"),
    "kernels.maxpool2d_vjp_batch.ms": ("kernels.maxpool2d_vjp_batch", "s"),
    "kernels.bilinear_resize.ms": ("kernels.bilinear_resize", "s"),
    "encoder.forward_batch.ms": ("encoder.forward_batch", "s"),
    "encoder.forward_batch.self_ms": ("encoder.forward_batch", "self"),
    "encoder.backward_batch.ms": ("encoder.backward_batch", "s"),
    "encoder.backward_batch.self_ms": ("encoder.backward_batch", "self"),
    "encoder.backward_batch.calls": ("encoder.backward_batch", "calls"),
    "encoder.sgd_step.ms": ("encoder.sgd_step", "s"),
    "localization.propose_box.ms": ("localization.propose_box", "s"),
    "localization.propose_box.self_ms": ("localization.propose_box", "self"),
    "localization.propose_box.calls": ("localization.propose_box", "calls"),
    "localization.similarity_map.ms": ("localization.similarity_map", "s"),
    "localization.segment_mask.ms": ("localization.segment_mask", "s"),
    "localization.largest_component.ms": ("localization.largest_component", "s"),
    "roi.roi_feature.ms": ("roi.roi_feature", "s"),
    "roi.roi_feature_vjp.ms": ("roi.roi_feature_vjp", "s"),
    "roi.calls": ("roi.roi_feature", "calls"),
    "episodic.episode_loss_and_gradient.ms": ("episodic.episode_loss_and_gradient", "s"),
    "episodic.episode_loss_and_gradient.self_ms": ("episodic.episode_loss_and_gradient", "self"),
    "dataset.sample_episode.ms": ("dataset.sample_episode", "s"),
    "harness.evaluate.self_ms": ("harness.evaluate", "self"),
    "harness.train_episodic.self_ms": ("harness.train_episodic", "self"),
    "harness.pretrain.self_ms": ("harness.pretrain", "self"),
})
PER_ITEM_STAGE = {f"cli.{stage}.s": f"cli.{stage}" for stage in PIPELINE_STAGES}

# metric name -> (span name, scale to the unit): mean per call
PER_CALL = {
    "dataset.generate_dataset.s": ("dataset.generate_dataset", 1.0),
    "dataset.load_dataset.s": ("dataset.load_dataset", 1.0),
    "encoder.save_checkpoint.ms": ("encoder.save_checkpoint", 1e3),
    "encoder.load_checkpoint.ms": ("encoder.load_checkpoint", 1e3),
    "harness.report_emit.ms": ("harness.report_emit", 1e3),
}


def _unit(name):
    if name.endswith(".calls"):
        return "count"
    return "s" if name.endswith(".s") else "ms"


def layer_metrics(tracer, other_tracers, plain, traced) -> dict:
    """Per-layer metrics from the timed tracer plus the set-up and gate
    tracers; ``plain`` and ``traced`` are the untraced and traced calls of
    the timed loop."""
    items = max(traced.items, 1)
    sums = totals(tracer.spans)
    out = {}
    field = {"s": 0, "self": 1, "calls": 2}
    for metric, (span, kind) in PER_ITEM.items():
        value = sums.get(span, (0.0, 0.0, 0))[field[kind]] / items
        out[metric] = {"value": value if kind == "calls" else 1e3 * value,
                       "unit": _unit(metric)}
    for metric, span in PER_ITEM_STAGE.items():
        out[metric] = {"value": sums.get(span, (0.0, 0.0, 0))[0] / items, "unit": "s"}

    everything = list(tracer.spans)
    for other in other_tracers:
        everything.extend(other.spans)
    call_sums = {}
    for name, start, end, _, _ in everything:
        s, n = call_sums.get(name, (0.0, 0))
        call_sums[name] = (s + end - start, n + 1)
    for metric, (span, scale) in PER_CALL.items():
        s, n = call_sums.get(span, (0.0, 0))
        out[metric] = {"value": scale * s / n if n else 0.0, "unit": _unit(metric)}

    out["encoder.forward_batch.images"] = {
        "value": tracer.images_encoded / items, "unit": "count"}
    ious = tracer.support_ious
    out["localization.fallback_ratio"] = {
        "value": tracer.boxes_fallback / tracer.boxes_proposed if tracer.boxes_proposed else 0.0,
        "unit": "ratio"}
    out["localization.support_box_iou"] = {
        "value": statistics.fmean(ious) if ious else 0.0, "unit": "ratio"}
    out["localization.support_corloc50"] = {
        "value": sum(v >= 0.5 for v in ious) / len(ious) if ious else 0.0, "unit": "ratio"}

    traced_ms = 1e3 * traced.elapsed / items
    plain_ms = 1e3 * plain.elapsed / max(plain.items, 1)
    out["trace.item_ms"] = {"value": traced_ms, "unit": "ms"}
    out["trace.untraced_item_ms"] = {"value": plain_ms, "unit": "ms"}
    out["trace.overhead_ratio"] = {"value": traced_ms / plain_ms, "unit": "ratio"}
    # Share of the traced calls' wall time that falls inside top-level spans.
    # The self times of all spans add up to exactly that covered time.
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    out["trace.covered_ratio"] = {"value": roots / traced.elapsed if traced.elapsed else 0.0,
                                  "unit": "ratio"}
    out["trace.spans"] = {"value": len(tracer.spans) / items, "unit": "count"}
    out["trace.items"] = {"value": float(traced.items), "unit": "count"}
    return out
