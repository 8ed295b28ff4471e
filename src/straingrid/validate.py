"""Empirical checks of the slow-fast reduction.

reduction_error integrates the reduced replicator once (it has no eps)
and the full system once per eps, from matched initial data, and
measures the sup-norm gap between the extracted and reduced frequencies
over a slow-time window. The full runs are independent, so consecutive
eps values go to simulate_full together, as one ensemble, while their
stacked states hold at most BATCH_VALUES values; larger states run one
eps at a time. The full runs record only the slow observables (S_p, u_p)
of each sample, P(1+N) values instead of the P(1+N+N^2) of the state.
convergence_study checks every eps, makes that one call and fits the
log-log convergence order. These are the checks the CLI runs;
the neutral-limit product-structure check is a test oracle
(tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, StrainGridError
from .fullsim import (FullModel, init_on_manifold, observed_frequencies, simulate_full,
                      slow_observables)
from .ode import IntegratorConfig
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .fullsim import extract_frequencies as extract_frequencies
from .reduction import (left_eigenvector as left_eigenvector,
                        neutral_equilibrium as neutral_equilibrium)
from .replicator import setup_from_model, simulate_replicator

# Validation runs resolve the fast scale; tolerances sit well below the
# smallest expected reduction error so discretization noise cannot
# pollute the fitted eps-rate.
VALIDATION_REL_TOL = 1e-10
VALIDATION_ABS_TOL = 1e-12
# Sampling intervals per validation run.
VALIDATION_SAMPLES = 200

# Below this sup error the configuration is effectively neutral and a
# convergence order is meaningless.
DEGENERATE_ERROR = 1e-7

# Values in the stacked states of one ensemble of full runs (B * dim).
# Stacking pays while the per-call overhead of the rhs dominates, which
# ends between P = N = 10 (dim 1,110) and P = N = 20 (dim 8,420).
BATCH_VALUES = 4096


@dataclass(frozen=True)
class ReductionReport:
    eps_values: tuple
    errors: tuple
    fitted_order: float          # nan when the slope is not applicable
    tau_window: tuple
    aggregate_deviations: tuple

    @property
    def slope_applicable(self) -> bool:
        return bool(np.isfinite(self.fitted_order))

    def error_ratios(self) -> list[float]:
        e = self.errors
        return [e[i + 1] / e[i] for i in range(len(e) - 1)]

    def as_dict(self) -> dict:
        return {
            "eps_values": list(self.eps_values),
            "errors": list(self.errors),
            "fitted_order": None if not self.slope_applicable else self.fitted_order,
            "tau_window": list(self.tau_window),
            "aggregate_deviations": list(self.aggregate_deviations),
        }


def default_tau_horizon(setup) -> float:
    """Horizon on which selection visibly moves the frequencies."""
    lam_max = float(np.max(np.abs(setup.Lambdas)))
    theta_max = float(np.max(setup.Theta))
    if lam_max <= 0:
        return 1.0
    return 10.0 / (theta_max * lam_max)


def _validation_cfg(t_end: float) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=VALIDATION_REL_TOL, abs_tol=VALIDATION_ABS_TOL,
                            t_end=t_end, monitor_period=t_end / VALIDATION_SAMPLES,
                            initial_step=min(IntegratorConfig.initial_step, t_end / 1000))


def reduction_error(model: FullModel, z0: np.ndarray, eps_values,
                    tau_window: tuple[float, float]) -> tuple[tuple, tuple]:
    """Sup-norm frequency gaps between full and reduced dynamics, per eps.

    The replicator runs once, from z0 over tau in [0, T]; the full system
    runs at each eps from the slow-manifold state of z0 over t in
    [0, T/eps], consecutive eps values in one ensemble of at most
    BATCH_VALUES stacked values. Every run takes VALIDATION_SAMPLES equal
    steps of its span, so sample i of each is at tau = i T /
    VALIDATION_SAMPLES; the gap is taken over the samples in [tau0, T].
    The full runs record only slow_observables, from which both numbers
    are read. The window and
    every eps are checked before the first run. Returns (errors,
    aggregates) in eps order, aggregate being the sup over the window of
    max_p |S_p - S_p*|.
    """
    tau0, T = tau_window
    if not (0 <= tau0 < T):
        raise ConfigError(f"invalid tau window {tau_window}")
    if not all(np.isfinite(eps) and eps > 0 for eps in eps_values):
        raise ConfigError("reduction error requires finite eps > 0")
    for eps in eps_values:
        model.with_eps(eps)     # raises if eps leaves the strain rates inadmissible
    P, N = model.n_patches, model.n_strains
    bg = model.background
    y0 = init_on_manifold(z0, bg)
    observe = partial(slow_observables, background=bg)
    red_traj = simulate_replicator(setup_from_model(model), z0, _validation_cfg(T))
    first = int(np.searchsorted(red_traj.times, tau0))   # first sample with tau >= tau0

    def gaps(full_traj):
        """(error, aggregate) of one full run."""
        if full_traj.times.size != red_traj.times.size:
            raise StrainGridError(f"full and reduced runs have {full_traj.times.size} and "
                                  f"{red_traj.times.size} samples")
        obs = full_traj.states[first:].reshape(-1, P, 1 + N)
        # In place: each (samples, P, N) array is 1.3 MB at P = N = 30, and
        # three of them at once set the peak of a compare run.
        gap = observed_frequencies(obs)
        gap -= red_traj.states[first:].reshape(-1, P, N)
        err = float(np.max(np.abs(gap, out=gap)))
        return err, float(np.max(np.abs(obs[..., 0] - bg.S_star)))

    size = max(1, BATCH_VALUES // y0.size)
    results = []
    for start in range(0, len(eps_values), size):
        group = eps_values[start:start + size]
        # Each group's runs are freed before the next group starts.
        results += map(gaps, simulate_full([model.with_eps(eps) for eps in group], y0,
                                           [_validation_cfg(T / eps) for eps in group],
                                           observe=observe))
    return tuple(r[0] for r in results), tuple(r[1] for r in results)


def convergence_study(model: FullModel, z0: np.ndarray, eps_list,
                      tau_window: tuple[float, float]) -> ReductionReport:
    """Measure reduction_error at every eps and fit the log-log convergence order.

    Every eps is checked before the first run."""
    eps_list = [float(e) for e in eps_list]
    if not all(np.isfinite(e) and e > 0 for e in eps_list):
        raise ConfigError(f"eps values must be finite and positive, got {eps_list}")
    if len(eps_list) < 3:
        raise ConfigError("need at least 3 eps values for a convergence study")
    if not all(a > b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps values must be strictly decreasing")

    errors, aggs = reduction_error(model, z0, eps_list, tau_window)

    if max(errors) < DEGENERATE_ERROR or min(errors) <= 0:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])

    return ReductionReport(eps_values=tuple(eps_list), errors=errors,
                           fitted_order=slope, tau_window=tuple(tau_window),
                           aggregate_deviations=aggs)

