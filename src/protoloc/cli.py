"""Command-line entry point: gen-data | pretrain | train | eval | localize."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import encoder as enc
from .config import RunConfig, apply_overrides, parse_config_text
from .dataset import SPLITS, generate_dataset
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


def int_list(text):
    """--ids text -> split row ids, parsed (and refused, if unreadable,
    empty or negative) before any file is read."""
    if not (ids := [int(t) for t in text.split(",") if t.strip()]) or min(ids) < 0:
        raise ValueError(f"no id, or a negative id, in {text!r}")
    return ids


def _check_outputs(parser, args, cfg) -> None:
    """parser.error, naming the flag and path, for an output under an existing non-directory,
    of the wrong kind (a directory; for --out-dir, a non-directory) or resolving to an input:
    the checkpoint or its sidecar, the config, the manifest or a path in a split directory."""
    flag = {"eval": "--report", "localize": "--out-dir"}.get(args.command, "--out")
    if (out := vars(args).get(flag[2:].replace("-", "_"))) is None:
        return   # gen-data
    data, checkpoint = Path(cfg.data_dir), vars(args).get("checkpoint")
    inputs = [args.config, data / "manifest.json", *(data / name for name in SPLITS)]
    if checkpoint:
        inputs += [checkpoint, enc.checkpoint_sidecar(checkpoint)]
    inputs = {Path(path).resolve() for path in inputs if path}
    # a .json --out, its own sidecar, raises ValueError in checkpoint_sidecar
    for path in [out, str(enc.checkpoint_sidecar(out))] if flag == "--out" else [out]:
        target = Path(path).resolve()
        if any(p.exists() and not p.is_dir() for p in Path(path).parents):
            parser.error(f"argument {flag}: {path} lies under a file")
        if (target.exists() and target.is_dir() != (flag == "--out-dir")
                or inputs & {target, *target.parents}):
            what = "a file" if flag == "--out-dir" else "a directory"
            parser.error(f"argument {flag}: {path} is {what} or an input of {args.command}")


def _parser():
    parser = argparse.ArgumentParser(
        prog="protoloc",
        description="Few-shot classification with similarity-map localization "
                    "and RoI-refined class representations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render the synthetic dataset")
    _add_common(p)

    pair = "a .tns file and the .json sidecar beside it"
    p = sub.add_parser("pretrain", help="pretrain the encoder with a linear head")
    _add_common(p)
    p.add_argument("--out", required=True, help=f"checkpoint to write: {pair}")

    p = sub.add_parser("train", help="episodic training from a checkpoint")
    _add_common(p)
    p.add_argument("--phase", choices=("base", "ours"), required=True,
                   help="train the episode loss alone (base) or with the RoI term (ours)")
    p.add_argument("--checkpoint", required=True, help=f"checkpoint to read: {pair}")
    p.add_argument("--out", required=True, help=f"checkpoint to write: {pair}")

    p = sub.add_parser("eval", help="evaluate a checkpoint on test tasks")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help=f"checkpoint to read: {pair}")
    p.add_argument("--mode", choices=("prototype", "refined"), default="refined",
                   help="classify by support prototypes or by their RoI-refined vectors")
    p.add_argument("--report", required=True, help="report to write (JSON), not an input")

    p = sub.add_parser("localize", help="write box overlays for split images")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help=f"checkpoint to read: {pair}")
    p.add_argument("--ids", required=True, type=int_list, help="comma-separated image ids")
    p.add_argument("--split", default="test", choices=tuple(SPLITS),
                   help="the split whose rows --ids names")
    p.add_argument("--out-dir", default="overlays", help="where overlays and boxes.txt go")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    cfg = _build_config(args)
    _check_outputs(parser, args, cfg)
    if args.command in ("train", "eval", "localize"):
        params, _ = enc.load_checkpoint(args.checkpoint)

    if args.command == "gen-data":
        manifest = generate_dataset(cfg.spec, cfg.seed, cfg.data_dir)
        counts = {name: info["count"] for name, info in manifest["splits"].items()}
        print(f"wrote dataset to {cfg.data_dir}: {counts}")
    elif args.command == "pretrain":
        result = pretrain(cfg)
        enc.save_checkpoint(args.out, result.params, cfg.seed)
        print(f"pretrain: {len(result.losses)} steps, loss {result.losses[0]:.4f} -> "
              f"{result.losses[-1]:.4f}; checkpoint {args.out}")
    elif args.command == "train":
        params, losses = train_episodic(cfg, params, args.phase)
        enc.save_checkpoint(args.out, params, cfg.seed)
        print(f"train[{args.phase}]: {len(losses)} episodes, "
              f"loss {losses[0]:.4f} -> {losses[-1]:.4f}; checkpoint {args.out}")
    elif args.command == "eval":
        start = time.perf_counter()
        report = evaluate(cfg, params, args.mode)
        wall = time.perf_counter() - start
        report_emit(report, args.report)
        print(f"eval[{args.mode}]: accuracy {report.mean_accuracy:.4f} +/- {report.ci95:.4f} "
              f"(95% over task draws from the fixed test split), mean IoU {report.mean_iou:.4f}, "
              f"CorLoc@0.5 {report.corloc_at_50:.4f} over {report.n_tasks} tasks "
              f"({wall:.1f}s); report {args.report}")
    elif args.command == "localize":
        records = localize_cmd(cfg, params, args.ids, args.split, args.out_dir)
        for r in records:
            b = r["box"]
            print(f"{r['id']} {b.y0} {b.x0} {b.y1} {b.x1} iou={r['iou']:.3f}")
        print(f"overlays in {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
