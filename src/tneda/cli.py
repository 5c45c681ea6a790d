"""Command-line runner: ``tneda run`` and ``tneda summarize``.

Exit codes: 0 success, 2 configuration problems (including bad usage),
3 unreadable or malformed input files, 4 numerical failures during a run
(a model that stops defining a distribution) and unexpected runtime
failures.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    ConfigError,
    ExperimentConfig,
    checked_seeds,
    read_records,
    run_experiment,
    summarize,
    write_summary_csv,
)
from .mps import DegenerateModelError
from .problems import ParseError


def parse_seed_spec(text: str) -> list[int]:
    """Seed lists: ``0..9`` (inclusive range), ``3,7,11``, or a single int."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(start, stop + 1))
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return [int(text)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tneda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a solver x problem x seed grid")
    run_p.add_argument("--config", required=True, help="experiment config (JSON)")
    run_p.add_argument("--seeds", help="override config seeds, e.g. 0..49 or 1,2,3")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    run_p.add_argument("--out", help="override the output directory")

    sum_p = sub.add_parser("summarize", help="aggregate run records into a CSV")
    sum_p.add_argument("--in", dest="in_path", required=True, help="run file or directory")
    sum_p.add_argument("--out", required=True, help="summary CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_file(args.config)
            if args.seeds:
                try:
                    config.seeds = checked_seeds(parse_seed_spec(args.seeds))
                except ValueError as exc:  # ConfigError is one too
                    raise ConfigError(f"bad --seeds value: {exc}") from None
            if args.out:
                config.out_dir = args.out
            manifest = run_experiment(config, jobs=max(1, args.jobs))
            print(f"wrote {len(manifest['runs'])} run files and {manifest['summary']}")
        else:
            rows = summarize(read_records(args.in_path))
            write_summary_csv(rows, args.out)
            print(f"wrote {args.out} ({len(rows)} generations)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateModelError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (FileNotFoundError, ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is an internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
