#!/usr/bin/env python3
"""Minimal external-evaluator demo for the line protocol.

Starts a child process implementing a toy quadratic problem over stdin/stdout
(one JSON request line in, one JSON response line out) and optimizes it with
the confidence-bound policy. Use this as a template for wiring a real
simulator: replace STUB with your own executable.
"""

import sys

from cego.gp import empty_models
from cego.kernels import Kernel
from cego.policies import AlgorithmState, BetaSchedule, observe, propose
from cego.problems import external_problem

STUB = [
    sys.executable,
    "-c",
    (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    t = json.loads(line)['theta']\n"
        "    obj = (t[0] - 0.3) ** 2 + (t[1] + 0.2) ** 2\n"
        "    g = 0.25 - t[0] ** 2 - t[1] ** 2  # feasible outside the small disc\n"
        "    print(json.dumps({'objective': obj, 'constraints': [g]}), flush=True)\n"
    ),
]


def main():
    problem = external_problem(
        STUB, lower=[-1.0, -1.0], upper=[1.0, 1.0], grid=[41, 41],
        n_constraints=1, timeout=10.0,
    )
    kernel = Kernel("squared_exponential", [0.3, 0.3], 1.0)
    state = AlgorithmState(
        policy="config",
        domain=problem.domain,
        models=empty_models([(kernel, 1e-4)] * 2),
        beta=BetaSchedule(value=2.0),
    )
    try:
        for _ in range(15):
            decision = propose(state)
            if decision.is_infeasible:
                print("declared infeasible")
                return
            values = problem.evaluate(decision.point)
            observe(state, decision.point, values)
            print(f"t={state.t:2d} theta=({decision.point[0]:+.3f}, {decision.point[1]:+.3f}) "
                  f"J={values[0]:.4f} g={values[1]:+.4f}")
    finally:
        problem.close()


if __name__ == "__main__":
    main()
