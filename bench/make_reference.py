"""Rebuild the benchmark's stored references.

    python3 bench/make_reference.py            # gate references only
    python3 bench/make_reference.py --checkpoint   # pretrain the encoder too

The encoder checkpoint is pretrained once at the default pretrain settings
on the default dataset rendered with seed 0, and then kept fixed: the train
and eval workloads start from it, so a change to gradient bits cannot change
what eval sees. Rebuilding references is a deliberate act, never part of a
change that claims a speed-up; record it in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from run import ROOT, pin_blas_threads

# Relative tolerance on the gate's per-episode losses. Not zero: a
# performance change may reorder floating-point sums in the backward pass
# and so change gradient bits, which the project allows if it is recorded.
# Over 10 episodes at lr 1e-4 such a change moves a loss by ~1e-15.
LOSS_RTOL = 1e-9
# Absolute tolerance on the pipeline gate's accuracy and mean IoU. The
# pipeline pretrains and trains, so changed gradient bits reach its reports;
# 0.005 allows about one flipped query of the 4 x 75; bit-level changes are
# expected to move neither figure.
PIPELINE_ATOL = 0.005


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", action="store_true",
                        help="pretrain and store a new encoder checkpoint first")
    args = parser.parse_args(argv)
    pin_blas_threads(os.environ)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from protoloc import encoder as enc
    from protoloc import harness
    from protoloc.config import RunConfig

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        work = Path(work)
        if args.checkpoint:
            cfg = RunConfig(data_dir=str(work / "pretrain-data"), seed=0)
            workloads._dataset(cfg.data_dir, 0, cfg.per_class_count)
            result = harness.pretrain(cfg)
            enc.save_checkpoint(workloads.CHECKPOINT, result.params, cfg.seed)
            print(f"pretrain loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")

        scale = workloads.Scale()
        train = workloads.TrainOurs1Shot(0, work, scale)
        losses, train_quality = train.gate(None)
        evaluation = workloads.EvalRefined1Shot(0, work, scale)
        digest, eval_quality = evaluation.gate(None)
        pipeline = workloads.Pipeline5Shot(0, work, scale)
        observation, _ = pipeline.gate(None)
        if pipeline.problems:
            raise SystemExit(f"pipeline gate failed: {pipeline.problems}")

    gates = {
        "checkpoint_sha256": hashlib.sha256(workloads.CHECKPOINT.read_bytes()).hexdigest(),
        "train_ours_1shot": {"losses": losses, "rtol": LOSS_RTOL,
                             "eval_accuracy": train_quality[0],
                             "eval_mean_iou": train_quality[1]},
        "eval_refined_1shot": {"report_sha256": digest,
                               "eval_accuracy": eval_quality[0],
                               "eval_mean_iou": eval_quality[1]},
        "pipeline_5shot": {**observation["quality"], "atol": PIPELINE_ATOL},
    }
    workloads.GATES.write_text(json.dumps(gates, indent=2) + "\n")
    print(f"wrote {workloads.GATES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
