"""Command-line entry points: run experiments, tabulate metrics, manage references."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .metrics import METRICS
from .problems import PROBLEM_BUILDERS
from .references import DEFAULT_ORACLE_GRIDS, get_reference, reference_problem, write_reference
from .runner import RunConfig, emit_metrics, run_experiment


def _cmd_run(args) -> int:
    if args.jobs < 1:  # a bad argument, refused before the config is read
        print(f"cego run: --jobs must be an int >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        config = RunConfig.from_json(args.config)
        paths = run_experiment(config, jobs=args.jobs)
    except (OSError, ValueError) as exc:
        # A config file that cannot be read or a setting that fails its
        # check, found before any replication starts.
        print(f"cego run: {args.config}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # One or more replications failed; run_experiment names each one.
        print(f"cego run: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def _cmd_metrics(args) -> int:
    try:
        logs = sorted(Path(args.logs).glob("*.jsonl"))
        if not logs:
            raise ValueError(f"no .jsonl logs under {args.logs}")
        j_star, sigmas, problem = args.j_star, None, None
        if args.problem is not None:
            ref = get_reference(args.problem, path=args.references)
            # record_metric names whichever of them the metric needs and lacks.
            if j_star is None:
                j_star = ref.get("j_star")
            sigmas = ref.get("sigmas")
            # The logs must be of the problem and settings the entry was computed for.
            problem = reference_problem(args.problem, ref)
        table = emit_metrics(logs, metric=args.metric, j_star=j_star, sigmas=sigmas,
                             problem=problem)
        # One writer for stdout and --out: RFC 4180 CSV with csv's \r\n line
        # ends, so a label holding a comma is quoted and both hold one set of bytes.
        with (nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="")) as fh:
            csv.writer(fh).writerows(table)
    except (KeyError, OSError, ValueError) as exc:
        # A missing input, no such reference entry or no readable reference
        # file, a log that fails its check (named with its first bad line), or
        # an --out that cannot be written. str() of a KeyError quotes its message.
        print(f"cego metrics: {exc.args[0] if isinstance(exc, KeyError) else exc}",
              file=sys.stderr)
        return 1
    if args.out is not None:
        print(args.out)
    return 0


def _cmd_list_problems(_args) -> int:
    for name in sorted(PROBLEM_BUILDERS):
        print(name)
    return 0


def _cmd_oracle(args) -> int:
    try:
        grid = None if args.grid is None else tuple(int(v) for v in args.grid.split("x"))
        entry = write_reference(args.problem, grid=grid, path=args.out)
    except (OSError, ValueError) as exc:  # a bad --grid, or an --out that cannot be written
        print(f"cego oracle: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(entry, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cego",
        description="Constrained efficient global optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment grid from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a RunConfig JSON file")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel replications")
    p_run.set_defaults(func=_cmd_run)

    p_metrics = sub.add_parser("metrics", help="aggregate logs into a CSV metric table")
    p_metrics.add_argument("--logs", required=True, help="directory of .jsonl logs")
    p_metrics.add_argument("--metric", default="constrained_regret", choices=METRICS)
    p_metrics.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_metrics.add_argument("--problem", default=None, help="reference entry to load")
    p_metrics.add_argument("--j-star", dest="j_star", type=float, default=None)
    p_metrics.add_argument("--references", default=None, help="alternate reference file")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_list = sub.add_parser("list-problems", help="list registered problems")
    p_list.set_defaults(func=_cmd_list_problems)

    p_oracle = sub.add_parser(
        "oracle",
        help="brute-force reference values (dense-grid optimum, sigma normalizers)",
    )
    p_oracle.add_argument("--problem", required=True, choices=sorted(DEFAULT_ORACLE_GRIDS))
    p_oracle.add_argument("--grid", default=None, help="resolution, e.g. 2000x2000")
    p_oracle.add_argument("--out", default=None, help="reference file to update")
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
