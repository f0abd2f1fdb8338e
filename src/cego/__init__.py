"""Constrained efficient global optimization toolkit.

Gaussian-process surrogates with confidence-bound acquisition for black-box
minimization under black-box inequality constraints, plus competing
constrained Bayesian-optimization policies and a seeded benchmark harness.
"""

__version__ = "0.1.0"

from .domain import Domain
from .gp import GpModel
from .hyperfit import fit_hyperparameters
from .info_gain import max_info_gain
from .kernels import Kernel
from .logs import RunRecord
from .metrics import best_so_far_series, normalized_regret_violation
from .policies import (
    POLICIES,
    AlgorithmState,
    BetaSchedule,
    Decision,
    observe,
    propose,
)
from .problems import (
    Problem,
    artificial_infeasible_problem,
    artificial_problem,
    problem_from_config,
    williams_otto_problem,
)
from .runner import RunConfig, emit_metrics, run_experiment

__all__ = [
    "__version__",
    "Domain",
    "Kernel",
    "GpModel",
    "max_info_gain",
    "fit_hyperparameters",
    "BetaSchedule",
    "AlgorithmState",
    "Decision",
    "POLICIES",
    "propose",
    "observe",
    "Problem",
    "artificial_problem",
    "artificial_infeasible_problem",
    "williams_otto_problem",
    "problem_from_config",
    "RunRecord",
    "normalized_regret_violation",
    "best_so_far_series",
    "RunConfig",
    "run_experiment",
    "emit_metrics",
]
