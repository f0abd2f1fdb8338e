import json
import subprocess
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from cego.domain import Domain
from cego.gp import GpModel
from cego.kernels import Kernel
from cego.runner import RunConfig

hypothesis.settings.register_profile("ci", max_examples=25, deadline=None)
hypothesis.settings.load_profile("ci")

GP = {"lengthscale_factor": 0.05, "output_scale": 0.5, "noise_variance": 1e-4}


def small_config(tmp_path, policies=None, budget=5, seeds=(1,), problem=None, gp=None, **kwargs):
    """A run of ``random`` on a 12x12 artificial lattice, budget 5, seed 1, unless overridden."""
    return RunConfig(
        problem=problem or {"name": "artificial", "g_thr": -0.6, "grid": [12, 12], "noise_std": 0.01},
        policies=policies or [{"name": "random"}],
        budget=budget,
        seeds=seeds,
        gp=gp or GP,
        **{"output_dir": str(tmp_path), **kwargs},
    )


def resume_config(tmp_path):
    """Three initial points (feasible start, two random), then proposals; the first refit is at t=6."""
    return small_config(
        tmp_path, policies=[{"name": "config"}], budget=9, seeds=(5,), start="feasible",
        n_init_random=2, gp={**GP, "fit_every": 3},
    )


def infeasible_config(tmp_path):
    """The shipped ``artificial_infeasible`` config, seed 1 only; its logs end in the marker."""
    path = Path(__file__).resolve().parent.parent / "configs" / "artificial_infeasible.json"
    settings = json.loads(path.read_text(encoding="utf-8"))
    return RunConfig(**{**settings, "seeds": [1], "output_dir": str(tmp_path)})


@pytest.fixture
def started_children(monkeypatch):
    """Every process the test starts through ``subprocess.Popen``, in order."""
    procs = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return procs


@pytest.fixture
def se_kernel_1d():
    return Kernel("squared_exponential", [1.0], 1.0)


@pytest.fixture
def unit_domain_1d():
    return Domain([0.0], [1.0], [5])


def random_model(rng, kernel, noise_variance, n_obs, lo=-2.0, hi=2.0):
    """A GP model filled with uniform random observations."""
    model = GpModel(kernel, noise_variance)
    dim = kernel.dim
    for _ in range(n_obs):
        point = rng.uniform(lo, hi, size=dim)
        model = model.add(point, rng.normal())
    return model
