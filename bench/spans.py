"""Outside-in layer tracing for the protoloc benchmark.

The tracer replaces public functions at the module attribute their callers
look up (``encoder`` calls ``kernels.conv2d_batch``, ``harness`` calls its
own imported ``propose_box``, and so on) with wrappers that record a span
per call: name, start, end, parent span and item id. Nothing under ``src/``
changes, and removing the wrappers restores the original objects.

Spans stay in memory and are written out once, when the run ends. Self time
is a span's duration minus the part of it covered by its children.

The tracer also keeps the localization-quality counters: every proposed box
is compared with the ground-truth box of the map it was proposed for, using
the public ``iou``.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager

from protoloc.localization import BoundingBox, iou

# Blocks are told apart by the spatial size of their input: block b sees
# input_size / 2**b pixels per side.
_BLOCKED = ("kernels.conv2d_batch", "kernels.conv2d_vjp_batch")

# (module, attribute, span name, role). A role names the extra bookkeeping a
# call needs: "episode" records the episode an item draws, "support" and
# "query" score a proposed box, "forward" counts encoded images, and
# "localize" marks proposals made outside any episode.
TARGETS = (
    ("protoloc.kernels", "conv2d_batch", "kernels.conv2d_batch", None),
    ("protoloc.kernels", "conv2d_vjp_batch", "kernels.conv2d_vjp_batch", None),
    ("protoloc.kernels", "maxpool2d_batch", "kernels.maxpool2d_batch", None),
    ("protoloc.kernels", "maxpool2d_vjp_batch", "kernels.maxpool2d_vjp_batch", None),
    ("protoloc.localization", "bilinear_resize", "kernels.bilinear_resize", None),
    ("protoloc.localization", "similarity_map", "localization.similarity_map", None),
    ("protoloc.localization", "segment_mask", "localization.segment_mask", None),
    ("protoloc.localization", "largest_component", "localization.largest_component", None),
    ("protoloc.localization", "propose_box", "localization.propose_box", "query"),
    ("protoloc.harness", "propose_box", "localization.propose_box", "support"),
    ("protoloc.episodic", "propose_box", "localization.propose_box", "support"),
    ("protoloc.harness", "roi_feature", "roi.roi_feature", None),
    ("protoloc.roi", "roi_feature", "roi.roi_feature", None),
    ("protoloc.roi", "roi_feature_vjp", "roi.roi_feature_vjp", None),
    ("protoloc.encoder", "forward_batch", "encoder.forward_batch", "forward"),
    ("protoloc.encoder", "backward_batch", "encoder.backward_batch", None),
    ("protoloc.encoder", "sgd_step", "encoder.sgd_step", None),
    ("protoloc.encoder", "save_checkpoint", "encoder.save_checkpoint", None),
    ("protoloc.encoder", "load_checkpoint", "encoder.load_checkpoint", None),
    ("protoloc.harness", "sample_episode", "dataset.sample_episode", "episode"),
    ("protoloc.harness", "episode_loss_and_gradient",
     "episodic.episode_loss_and_gradient", None),
    ("protoloc.harness", "load_dataset", "dataset.load_dataset", None),
    ("protoloc.harness", "evaluate", "harness.evaluate", None),
    ("protoloc.harness", "train_episodic", "harness.train_episodic", None),
    ("protoloc.harness", "report_emit", "harness.report_emit", None),
    ("protoloc.dataset", "generate_dataset", "dataset.generate_dataset", None),
    ("protoloc.dataset", "load_dataset", "dataset.load_dataset", None),
    ("protoloc.cli", "generate_dataset", "dataset.generate_dataset", None),
    ("protoloc.cli", "pretrain", "harness.pretrain", None),
    ("protoloc.cli", "train_episodic", "harness.train_episodic", None),
    ("protoloc.cli", "evaluate", "harness.evaluate", None),
    ("protoloc.cli", "report_emit", "harness.report_emit", None),
    ("protoloc.cli", "localize_cmd", "harness.localize_cmd", "localize"),
)


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span itself.

    ``spans`` is a sequence of (name, start, end, parent, item) tuples whose
    parent is an index into the same sequence or -1.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus the localization-quality counters of one run."""

    def __init__(self, input_size: int):
        self.input_size = input_size
        self.spans = []          # (name, start, end, parent, item)
        self.item = -1
        self._stack = []
        self._saved = []
        self.missing = []        # TARGETS entries the program no longer has
        self.images_encoded = 0
        self.episode = None
        self._support_seen = 0
        self.boxes_proposed = 0
        self.boxes_fallback = 0
        self.support_ious = []

    # -- spans ---------------------------------------------------------------

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.item)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter())

    def _span_name(self, base, args):
        if base in _BLOCKED:
            side = args[0].shape[1]
            return f"{base}.b{round(math.log2(self.input_size / side))}"
        return base

    def _wrap(self, fn, base, role):
        tracer = self

        def traced(*args, **kwargs):
            if role == "localize":
                tracer.episode = None
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, tracer._span_name(base, args), start,
                              time.perf_counter())
            if role in ("episode", "forward", "support", "query"):
                tracer._observe(role, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Replace every target that exists; record the ones that do not."""
        for module_name, attr, base, role in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, base, role))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def next_item(self):
        self.item += 1

    # -- localization quality ------------------------------------------------

    def _observe(self, role, args, kwargs, result):
        if role == "episode":
            self.episode = result
            self._support_seen = 0
        elif role == "forward":
            images = args[1] if len(args) > 1 else kwargs["images"]
            self.images_encoded += len(images)
        else:
            image_h = args[3] if len(args) > 3 else kwargs["image_h"]
            image_w = args[4] if len(args) > 4 else kwargs["image_w"]
            self._score_box(role, image_h, image_w, result)

    def _score_box(self, role, image_h, image_w, box):
        self.boxes_proposed += 1
        if tuple(int(v) for v in box) == (0, 0, image_h - 1, image_w - 1):
            self.boxes_fallback += 1
        episode = self.episode
        if role != "support" or episode is None:
            return
        i = self._support_seen
        self._support_seen += 1
        if i < len(episode.support_boxes):
            self.support_ious.append(iou(box, BoundingBox(*episode.support_boxes[i])))

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON array per line:
        [name, start, end, parent, item]."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def totals(spans):
    """Per-name sums: {name: (inclusive seconds, self seconds, calls)}."""
    out = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        s, own_s, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (s + end - start, own_s + own, calls + 1)
    return out
