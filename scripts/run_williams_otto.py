#!/usr/bin/env python3
"""Williams-Otto reactor tuning experiment.

Runs the policies from configs/williams_otto.json from 30 random starting
points and writes the best normalized regret+violation per step to a CSV.
"""

import argparse
from pathlib import Path

from cego.references import get_reference, reference_problem
from cego.runner import RunConfig, emit_metrics, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=ROOT / "configs" / "williams_otto.json")
    parser.add_argument("--out", default="williams_otto_normalized.csv")
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

    ref = get_reference("williams_otto")
    emit_metrics(paths, metric="normalized", j_star=ref["j_star"], sigmas=ref["sigmas"],
                 out=args.out, problem=reference_problem("williams_otto", ref))
    print(f"normalized metric table -> {args.out}")


if __name__ == "__main__":
    main()
