"""Defects the benchmark found in straingrid and does not time.

Each test states the correct behaviour and is expected to fail until the
defect is fixed; strict mode then turns the pass into a failure, as a
reminder to drop the marker and revisit the workload that avoids it.
"""

import numpy as np
import pytest

import run  # noqa: F401  (pins the BLAS threads before numpy loads)
from straingrid.config import build_model, initial_frequencies
from straingrid.ode import IntegratorConfig
from straingrid.replicator import setup_from_model, simulate_replicator
from workloads import WORKLOADS, make_config


@pytest.mark.xfail(strict=True, reason="the simplex sum is unstable where the "
                   "mean fitness z.Lambda z is negative, so roundoff grows "
                   "exponentially over long horizons")
def test_reduced_run_stays_on_the_simplex_over_the_cli_default_horizon():
    # sweep-reduced, seed 2, task d = 0.2, at the CLI's default t_end of
    # 200 tau: the defect reaches 8.7e-2. The workload integrates to 20.
    doc = make_config(WORKLOADS["sweep-reduced"], 2)
    doc["scale"]["d"] = 0.2
    model = build_model(doc)
    z0 = initial_frequencies(doc, model.n_patches, model.n_strains)
    traj = simulate_replicator(setup_from_model(model), z0,
                               IntegratorConfig(t_end=200.0, monitor_period=1.0))
    assert float(np.max(traj.diagnostics[:, 0])) <= 1e-6
