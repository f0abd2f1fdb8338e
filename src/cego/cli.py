"""Command-line entry points: run experiments, tabulate metrics, manage references."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .problems import PROBLEM_BUILDERS
from .references import DEFAULT_ORACLE_GRIDS, get_reference, write_reference
from .runner import RunConfig, emit_metrics, run_experiment


def _cmd_run(args) -> int:
    try:
        config = RunConfig.from_json(args.config)
        paths = run_experiment(config, jobs=args.jobs)
    except (OSError, ValueError) as exc:
        # A config file that cannot be read or a setting that fails its
        # check, found before any replication starts; a failed replication
        # raises RuntimeError instead.
        print(f"cego run: {args.config}: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def _cmd_metrics(args) -> int:
    logs = sorted(Path(args.logs).glob("*.jsonl"))
    if not logs:
        print(f"no .jsonl logs under {args.logs}", file=sys.stderr)
        return 1
    j_star, sigmas = args.j_star, None
    if args.metric in ("constrained_regret", "normalized"):
        if args.problem is not None:
            ref = get_reference(args.problem, path=args.references)
            if j_star is None:
                j_star = ref["j_star"]
            sigmas = ref["sigmas"]
        if args.metric == "constrained_regret" and j_star is None:
            print("need --problem (for the frozen reference) or --j-star", file=sys.stderr)
            return 1
        if args.metric == "normalized" and sigmas is None:
            print("the normalized metric needs --problem to load sigmas", file=sys.stderr)
            return 1
    try:
        table = emit_metrics(logs, metric=args.metric, j_star=j_star, sigmas=sigmas, out=args.out)
    except ValueError as exc:  # a log that fails its check, named with its first bad line
        print(f"cego metrics: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        for row in table:
            print(",".join(str(v) for v in row))
    else:
        print(args.out)
    return 0


def _cmd_list_problems(_args) -> int:
    for name in sorted(PROBLEM_BUILDERS):
        print(name)
    return 0


def _cmd_oracle(args) -> int:
    grid = None
    if args.grid is not None:
        grid = tuple(int(v) for v in args.grid.split("x"))
    entry = write_reference(args.problem, grid=grid, path=args.out)
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
    p_metrics.add_argument(
        "--metric",
        default="constrained_regret",
        choices=["constrained_regret", "normalized", "best_so_far"],
    )
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
