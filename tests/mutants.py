"""Mutation check: does tier-1 notice small, deliberate faults in src/?

Each mutation below swaps exact texts in one file. For each, this script
copies src/, tests/, bench/ and pyproject.toml to a temporary directory,
applies the mutation there (never in the working tree), and runs tier-1 in
the copy, stopping at the first failure. A mutation is killed when a test
fails and survives when every test passes. An equivalent mutation changes
no behaviour any test could see; it is listed with the reason and is
expected to survive.

    python tests/mutants.py            # every mutation
    python tests/mutants.py 3          # mutation 3 only
    python tests/mutants.py 2:5        # mutations 2, 3 and 4
    python tests/mutants.py --list     # print the list and run nothing

A tier-1 run takes about as long as the suite (~12 s per mutation on one
core). Exits 1 if a mutation that is not listed as equivalent survives,
an equivalent one is killed, or a mutation's old text is not found exactly
once. Tier-1 does not collect this file: its name does not start with test_.
Tier-1's test_mutants.py checks, in well under a second, that every old text
is still found exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIMEOUT_S = 600


class Mutation(NamedTuple):
    file: str                 # relative to the repository root
    old: str | tuple          # text, or texts, each found exactly once
    new: str | tuple          # the replacement of each
    why: str
    equivalent: str = ""      # why no test can tell it apart, if none can


MUTATIONS = [
    Mutation("src/protoloc/episodic.py", "np.repeat(protos, k, axis=0)", "np.tile(protos, (k, 1))",
             "refined_reps boxes support i against class i % n's prototype, not its own"),
    Mutation("src/protoloc/roi.py", "ay[:, :, None] * ax[:, None, :]",
             "ax[:, :, None] * ay[:, None, :]",
             "roi_feature_vjp transposes each map's cell weights (shape-legal on square maps)"),
    Mutation("src/protoloc/harness.py", "int((ious >= 0.5).sum())", "int((ious > 0.5).sum())",
             "CorLoc@0.5 stops counting a box of IoU exactly 0.5"),
    Mutation("src/protoloc/episodic.py", "episode, cfg.tau_train, cfg,",
             "episode, cfg.tau_eval, cfg,",
             "episodic training boxes supports at the eval threshold (0.5, not 0.7, at 5-shot)"),
    Mutation("src/protoloc/localization.py",
             ("shape = n, h + 1, w + 1", "np.zeros(n * (h + 1) * (w + 1) + 1,"),
             ("shape = n, h, w + 1", "np.zeros(n * h * (w + 1) + 1,"),
             "_label lays planes out with no false row between them, so runs join across planes"),
    Mutation("src/protoloc/localization.py",
             ("start - (w + 1 + (connectivity == 8))", "end - (w + 1 - (connectivity == 8))"),
             ("start - (w + 1)", "end - (w + 1)"),
             "_label drops the corner slack: diagonal runs stay apart at 8 connectivity"),
    Mutation("src/protoloc/localization.py", "while (join := ra != rb).any():",
             "if (join := ra != rb).any():",
             "_label hooks one round only, so a run that joins two trees leaves them apart"),
    Mutation("src/protoloc/localization.py",
             "root[np.maximum(ra, rb)[join]] = np.minimum(ra, rb)[join]",
             "root[np.minimum(ra, rb)[join]] = np.maximum(ra, rb)[join]",
             "_label hooks each smaller root to the larger",
             equivalent="the same components under other ids, and the box rule reads no "
                        "label order"),
    Mutation("src/protoloc/harness.py",
             'raise DegenerateRepresentation(f"{where}: {err}") from err', "raise",
             "a degenerate episode in training no longer names its phase, epoch and episode"),
    Mutation("src/protoloc/localization.py",
             "np.flatnonzero(~((norms > 1e-12) & (norms < np.inf)))",
             "np.flatnonzero(norms <= 1e-12)",
             "a NaN or infinite representation norm passes the degenerate check"),
    Mutation("src/protoloc/cli.py", "enc.checkpoint_sidecar(args.out)   #", "pass   #",
             "a .json --out is refused only after the work, when the sidecar is written"),
    Mutation("src/protoloc/localization.py", "return upsampled >= np.where",
             "return upsampled > np.where", "the threshold drops a pixel at exactly tau * max"),
    Mutation("src/protoloc/localization.py",
             "ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0) + 1, 0)",
             "ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0)",
             "IoU treats box rows as exclusive"),
    Mutation("src/protoloc/harness.py", "np.std(accuracies, ddof=1)", "np.std(accuracies, ddof=0)",
             "ci95 takes the population, not the sample, standard deviation"),
    Mutation("src/protoloc/tns_io.py", "math.prod(shape)", "int(np.prod(shape, dtype=np.int64))",
             "the payload size check takes the extent product in int64, which wraps to 0"),
    Mutation("src/protoloc/config.py", "_COUNT = (lambda v: v >= 1,", "_COUNT = (lambda v: v >= 0,",
             "a count key (epochs, episodes, batch, shot, queries, tasks, roi.grid, "
             "roi.samples) accepts 0"),
    Mutation("src/protoloc/__init__.py", 'entry point.\n"""\n',
             'entry point.\n"""\n\nfrom .config import RunConfig\n',
             "the package re-exports a name again, so importing any module loads config's chain"),
    Mutation("src/protoloc/dataset.py", 'manifest["splits"].items():',
             'list(manifest["splits"].items())[:1]:',
             "load_dataset checks only the first split's files; the others go unchecked "
             "until indexed"),
    Mutation("src/protoloc/dataset.py",
             "_checked(self._dir / name / f, digests[f], read_tns_sha256)",
             "read_tns_sha256(self._dir / name / f)[0]",
             "a split's first read takes the manifest digest on trust, so a file replaced "
             "since the load is used unchecked"),
    Mutation("src/protoloc/dataset.py", "np.nonzero(self.labels == c)", "np.nonzero(self.labels != c)",
             "a class pool holds every row of the other classes"),
    Mutation("src/protoloc/kernels.py", "switch[~(out > 0.0)] = 4", "switch[out <= 0.0] = 4",
             "a NaN window is not switched off, so its gradient goes to its last cell"),
    Mutation("src/protoloc/kernels.py",
             ("v0, v1, v2, _ = _window_views(x)", "switch[~(out > 0.0)] = 4"),
             ("_, v2, v1, v0 = _window_views(x)", "switch = 3 - switch\n    switch[~(out > 0.0)] = 4"),
             "a window's gradient goes to its last cell equal to the max, not its first"),
    Mutation("src/protoloc/kernels.py", "switch[~(out > 0.0)] = 4", "switch[~(out >= 0.0)] = 4",
             "a window whose max is 0 routes its gradient to its first zero cell"),
    Mutation("src/protoloc/episodic.py", "roi.roi_feature_vjp(weights,",
             "roi.roi_feature_vjp([w[::-1] for w in weights],",
             "the RoI adjoint reads the supports' cell weights in reverse row order"),
    Mutation("src/protoloc/roi.py", "grads.ndim != 2 or len(grads) != len(ay)", "grads.ndim != 2",
             "roi_feature_vjp lets a grad of another row count broadcast against the weights"),
    Mutation("src/protoloc/encoder.py", "        fms[i:i + CHUNK] = x\n",
             "        fms[i:i + CHUNK] = x\n        acts.append(x)\n",
             "the forward cache holds each chunk's feature map again"),
    Mutation("src/protoloc/config.py", "math.isfinite(v) and v > 0,", "math.isfinite(v) and v >= 0,",
             "a positive key (loss.T, train.lr, train.pretrain_lr) accepts 0"),
    Mutation("src/protoloc/harness.py", 'cfg.lambda_roi if phase == "ours" else 0.0',
             "cfg.lambda_roi", "the base phase trains with the RoI term at cfg.lambda_roi"),
    Mutation("src/protoloc/episodic.py", "size, size, cfg.connectivity)", "size, size, 4)",
             "refined_reps boxes supports at 4-connectivity whatever loc.connectivity says"),
    Mutation("src/protoloc/config.py", '_key("roi.grid", 3, _COUNT)', '_key("roi.grid", 3)',
             "roi.grid = 0 passes the config and fails only inside a run"),
    Mutation("src/protoloc/roi.py", "(s + 0.5) * (bin_len / samples)",
             "(s + 0.5) * (bin_len / grid)",
             "_cell_weights spaces a bin's samples by the bin count, not the sample count"),
    Mutation("src/protoloc/episodic.py", "cfg.roi_grid, cfg.roi_samples)",
             "cfg.roi_samples, cfg.roi_grid)",
             "refined_reps pools with roi.grid and roi.samples swapped"),
    Mutation("src/protoloc/config.py", "lambda v: 2 <= v <= _WAYS", "lambda v: 1 <= v <= _WAYS",
             "eval.n_way = 1 passes the config and fails only at the first episode"),
    Mutation("src/protoloc/config.py", "self.k_shot + self.queries > self.per_class_count",
             "self.k_shot + self.queries >= self.per_class_count",
             "a config whose episodes take every item of a class is refused"),
    Mutation("src/protoloc/harness.py",
             'raise DegenerateRepresentation(f"split row {bad[0]} has a non-finite feature map")',
             "pass",
             "eval scores a non-finite feature map without an error"),
    Mutation("src/protoloc/cli.py", " or min(ids) < 0:", ":",
             "localize --ids -1 reads the checkpoint and the dataset before the id is refused"),
    Mutation("src/protoloc/episodic.py", "reshape(episode.n_way, k, -1).mean(axis=1)",
             "reshape(k, episode.n_way, -1).mean(axis=0)",
             "episode_head groups support i into class i % n, not i // k"),
    Mutation("src/protoloc/dataset.py", "image, boxes[j] = render_sample(",
             "image, boxes[j - 1] = render_sample(",
             "gen-data writes each sample's box into the row before its own"),
]


def _pairs(mutation):
    if isinstance(mutation.old, str):
        return [(mutation.old, mutation.new)]
    return list(zip(mutation.old, mutation.new, strict=True))


def run(mutation) -> tuple:
    """(outcome, detail): outcome is "killed", "survived" or "not applied" (the
    old text is not found exactly once, or the mutated file does not compile)."""
    with tempfile.TemporaryDirectory(prefix="protoloc-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".bench_work", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, work / name)
        path = work / mutation.file
        text = path.read_text()
        for old, new in _pairs(mutation):
            if text.count(old) != 1:
                return "not applied", f"{old!r} occurs {text.count(old)} times"
            text = text.replace(old, new)
        try:
            compile(text, mutation.file, "exec")
        except SyntaxError as err:
            return "not applied", f"the mutated file does not compile: {err}"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            ["src"] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            PYTHONDONTWRITEBYTECODE="1")
        try:
            # test_mutants.py checks this list against the unmutated files, so
            # in a mutated copy it fails by construction
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
                cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"tier-1 ran over {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"pytest exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("range", nargs="?", default=":",
                        help="mutation index i, or a slice start:stop (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutations only")
    args = parser.parse_args(argv)
    bounds = [int(v) if v else None for v in args.range.split(":")]
    chosen = (range(len(MUTATIONS))[slice(*bounds)] if len(bounds) > 1
              else [bounds[0]])
    bad = 0
    for i in chosen:
        mutation = MUTATIONS[i]
        label = f"[{i}] {mutation.file}: {mutation.why}"
        if args.list:
            print(label + (f" (equivalent: {mutation.equivalent})" if mutation.equivalent else ""))
            continue
        outcome, detail = run(mutation)
        expected = "survived" if mutation.equivalent else "killed"
        bad += outcome != expected
        note = detail or (f"equivalent: {mutation.equivalent}" if mutation.equivalent else "")
        print(f"{outcome:11s} {label}" + (f"\n            {note}" if note else ""), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
