"""protoloc benchmark: one workload, one process, single-threaded BLAS.

    python3 bench/run.py --workload eval_refined_1shot --seed 3 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it records the environment (library
versions, cores, commit, seed) and the line before that the run's details.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

# BLAS reads its thread count when numpy is first imported, so the pin must
# come first. A caller that asks for another count gets a refusal rather
# than numbers measured under different conditions.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train_ours_1shot", "eval_refined_1shot", "pipeline_5shot")


def pin_blas_threads(environ) -> None:
    for var in BLAS_THREAD_VARS:
        if environ.get(var, "1") != "1":
            raise SystemExit(f"refusing to run: {var}={environ[var]} overrides "
                             f"the benchmark's single-threaded BLAS")
        environ[var] = "1"


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads(os.environ)
    if not (ROOT / "src" / "protoloc" / "__init__.py").is_file():
        print(f"no protoloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        result, details = workloads.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), Path(work))
    workloads.ensure_finite(result["metrics"])
    print(json.dumps({"details": details}))
    print(json.dumps({"provenance": provenance(args)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
