"""Command-line entry point: gen-data | pretrain | train | eval | localize."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import encoder as enc
from .config import RunConfig, apply_overrides, parse_config_text
from .dataset import generate_dataset
from .harness import evaluate, localize_cmd, pretrain, report_emit, train_episodic


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, help="override the config seed")


def _build_config(args) -> RunConfig:
    mapping = parse_config_text(Path(args.config).read_text()) if args.config else {}
    mapping = apply_overrides(mapping, args.sets)
    if args.seed is not None:
        mapping["seed"] = args.seed
    return RunConfig.from_mapping(mapping)


def _parser():
    parser = argparse.ArgumentParser(
        prog="protoloc",
        description="Few-shot classification with similarity-map localization "
                    "and RoI-refined class representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render the synthetic dataset")
    _add_common(p)

    p = sub.add_parser("pretrain", help="pretrain the encoder with a linear head")
    _add_common(p)
    p.add_argument("--out", required=True, help="checkpoint path (.tns)")

    p = sub.add_parser("train", help="episodic training from a checkpoint")
    _add_common(p)
    p.add_argument("--phase", choices=("base", "ours"), required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on test tasks")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("prototype", "refined"), default="refined")
    p.add_argument("--report", required=True, help="output report path (JSON)")

    p = sub.add_parser("localize", help="write box overlays for split images")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ids", required=True, help="comma-separated image ids")
    p.add_argument("--split", default="test")
    p.add_argument("--out-dir", default="overlays")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _build_config(args)
    if args.command in ("pretrain", "train"):
        enc.checkpoint_sidecar(args.out)   # a .json --out fails before any work

    if args.command == "gen-data":
        manifest = generate_dataset(cfg.spec, cfg.seed, cfg.data_dir)
        counts = {name: info["count"] for name, info in manifest["splits"].items()}
        print(f"wrote dataset to {cfg.data_dir}: {counts}")
    elif args.command == "pretrain":
        result = pretrain(cfg)
        enc.save_checkpoint(args.out, result.params, cfg.seed)
        print(f"pretrain: {len(result.losses)} steps, "
              f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}; "
              f"checkpoint {args.out}")
    elif args.command == "train":
        params, _ = enc.load_checkpoint(args.checkpoint)
        params, losses = train_episodic(cfg, params, args.phase)
        enc.save_checkpoint(args.out, params, cfg.seed)
        print(f"train[{args.phase}]: {len(losses)} episodes, "
              f"loss {losses[0]:.4f} -> {losses[-1]:.4f}; checkpoint {args.out}")
    elif args.command == "eval":
        params, _ = enc.load_checkpoint(args.checkpoint)
        start = time.perf_counter()
        report = evaluate(cfg, params, args.mode)
        wall = time.perf_counter() - start
        report_emit(report, args.report)
        print(f"eval[{args.mode}]: accuracy {report.mean_accuracy:.4f} +/- {report.ci95:.4f} "
              f"(95% over task draws from the fixed test split), mean IoU {report.mean_iou:.4f}, "
              f"CorLoc@0.5 {report.corloc_at_50:.4f} over {report.n_tasks} tasks "
              f"({wall:.1f}s); report {args.report}")
    elif args.command == "localize":
        params, _ = enc.load_checkpoint(args.checkpoint)
        ids = [int(t) for t in args.ids.split(",") if t.strip()]
        records = localize_cmd(cfg, params, ids, args.split, args.out_dir)
        for r in records:
            b = r["box"]
            print(f"{r['id']} {b.y0} {b.x0} {b.y1} {b.x1} iou={r['iou']:.3f}")
        print(f"overlays in {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
