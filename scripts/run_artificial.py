#!/usr/bin/env python3
"""Constrained-regret convergence experiment on the artificial problem.

Runs every policy from configs/artificial.json over 30 seeded feasible
starts and writes per-step mean/std regret curves to a CSV. Pass --quick for
a 5-seed sanity run.
"""

import argparse
from pathlib import Path

from cego.references import get_reference, reference_problem
from cego.runner import RunConfig, emit_metrics, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "configs" / "artificial.json")
    parser.add_argument("--out", default="artificial_regret.csv")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="5 seeds instead of 30")
    args = parser.parse_args()

    config = RunConfig.from_json(args.config)
    if args.quick:
        config.seeds = config.seeds[:5]
    paths = run_experiment(config, jobs=args.jobs)
    # CEGO_LOG_DIR, when set, overrides config.output_dir.
    log_dirs = sorted({str(path.parent.resolve()) for path in paths})
    print(f"{len(paths)} replication logs in {', '.join(log_dirs)}")

    ref = get_reference("artificial")
    emit_metrics(paths, metric="constrained_regret", j_star=ref["j_star"], out=args.out,
                 problem=reference_problem("artificial", ref))
    print(f"regret table -> {args.out} (reference optimum {ref['j_star']:.6f} "
          f"from a {ref['grid'][0]}x{ref['grid'][1]} grid)")


if __name__ == "__main__":
    main()
