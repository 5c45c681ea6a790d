"""Seeded benchmark of the tneda EDA loop.

Usage, from the repository root:

    python3 bench/bench.py --workload tn1-knapsack --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload for ``--seconds`` seconds in this process,
checks every round's output, and prints one line per metric followed by a
JSON object as the last line: ``correct``, ``attempted`` (run_single calls),
``failed`` (calls that raised) and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. See bench/README.md.
"""

import os

# One BLAS thread: the matrices are small, and on a 2-core host shared with
# other jobs more threads only contend. Set before numpy is imported; the
# set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

UNITS = {"gen_p50_ms": "ms", "peak_rss_mb": "MB"}  # otherwise by suffix


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tneda" / "__init__.py").is_file():
        print(f"bench: no tneda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tneda
    from workloads import WORKLOADS, run_workload

    if Path(tneda.__file__).resolve().parent != ROOT / "src" / "tneda":
        print(f"bench: imported tneda from {tneda.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    print(
        f"env: numpy {np.__version__}, BLAS threads {BLAS_THREADS}, cores {os.cpu_count()}, "
        f"python {platform.python_version()}"
    )
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    for note in result.notes:
        print(note)
    for message in result.failures[:20]:
        print(f"check failed: {message}")
    for name, value in result.metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit_of(name)}")
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in result.metrics.items()}
    print(
        json.dumps(
            {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
