"""Empirical checks of the slow-fast reduction.

reduction_error integrates the full system and the reduced replicator
from matched initial data and measures the sup-norm gap between the
extracted and reduced frequencies over a slow-time window. The full run
records only the slow observables (S_p, u_p) of each sample, P(1+N)
values instead of the P(1+N+N^2) of the state.
convergence_study checks every eps, then sweeps them and fits the
log-log convergence order.
neutral_limit_check verifies the product-structure attractor of the
fully neutral, migration-free system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, StrainGridError
from .fullsim import (FullModel, extract_frequencies, init_on_manifold,
                      manifold_state, observed_frequencies, simulate_full,
                      slow_observables)
from .ode import IntegratorConfig
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .reduction import (left_eigenvector as left_eigenvector,
                        neutral_equilibrium as neutral_equilibrium)
from .replicator import setup_from_model, simulate_replicator
from .types import full_views

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

    def aggregate_ratios(self) -> list[float]:
        a = self.aggregate_deviations
        return [a[i + 1] / a[i] for i in range(len(a) - 1)]

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
                            initial_step=min(1e-4, t_end / 1000))


def reduction_error(model: FullModel, z0: np.ndarray, eps: float,
                    tau_window: tuple[float, float]) -> tuple[float, float]:
    """Sup-norm frequency gap between full and reduced dynamics.

    The full system runs at the given eps from the slow-manifold state of
    z0 over t in [0, T/eps]; the replicator runs from z0 over tau in
    [0, T]. Both take VALIDATION_SAMPLES equal steps of their span, so
    sample i of each run is at tau = i T / VALIDATION_SAMPLES; the gap is
    taken over the samples in [tau0, T]. The full run records only
    slow_observables, from which both numbers are read. Returns (error,
    aggregate) with aggregate the sup over the window of max_p |S_p - S_p*|.
    """
    tau0, T = tau_window
    if not (0 <= tau0 < T):
        raise ConfigError(f"invalid tau window {tau_window}")
    if eps <= 0:
        raise ConfigError("reduction error requires eps > 0")
    model = model.with_eps(eps)
    P, N = model.n_patches, model.n_strains
    bg = model.background

    full_traj = simulate_full(model, init_on_manifold(z0, bg), _validation_cfg(T / eps),
                              observe=partial(slow_observables, background=bg))
    red_traj = simulate_replicator(setup_from_model(model), z0, _validation_cfg(T))
    if full_traj.times.size != red_traj.times.size:
        raise StrainGridError(f"full and reduced runs have {full_traj.times.size} and "
                              f"{red_traj.times.size} samples")
    first = int(np.searchsorted(red_traj.times, tau0))   # first sample with tau >= tau0

    obs = full_traj.states[first:].reshape(-1, P, 1 + N)
    z_full = observed_frequencies(obs)
    err = float(np.max(np.abs(z_full - red_traj.states[first:].reshape(-1, P, N))))
    agg = float(np.max(np.abs(obs[..., 0] - bg.S_star)))
    return err, agg


def convergence_study(model: FullModel, z0: np.ndarray, eps_list,
                      tau_window: tuple[float, float]) -> ReductionReport:
    """Run reduction_error per eps and fit the log-log convergence order.

    Every eps is checked before the first run."""
    eps_list = [float(e) for e in eps_list]
    if not all(np.isfinite(e) and e > 0 for e in eps_list):
        raise ConfigError(f"eps values must be finite and positive, got {eps_list}")
    if len(eps_list) < 3:
        raise ConfigError("need at least 3 eps values for a convergence study")
    if not all(a > b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps values must be strictly decreasing")

    model.background   # built here once; every with_eps copy shares it
    errors, aggs = zip(*(reduction_error(model, z0, eps, tau_window) for eps in eps_list))

    if max(errors) < DEGENERATE_ERROR or min(errors) <= 0:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(eps_list), np.log(errors), 1)[0])

    return ReductionReport(eps_values=tuple(eps_list), errors=errors,
                           fitted_order=slope, tau_window=tuple(tau_window),
                           aggregate_deviations=aggs)


def neutral_limit_check(model: FullModel, y0: np.ndarray,
                        t_end: float = 200.0) -> float:
    """Residual of the product structure S = S*, I^i = I* z^i,
    D^{ij} = D* z^i z^j at t_end, with z extracted from the final state.

    Meaningful for the neutral, migration-free system (the caller builds
    the model with zero deviations and d = 0)."""
    P, N = model.n_patches, model.n_strains
    bg = model.background

    y = simulate_full(model, y0, _validation_cfg(t_end)).final_state()
    target = manifold_state(extract_frequencies(y, bg), bg)
    return sum(float(np.max(np.abs(got - want))) for got, want in
               zip(full_views(y, P, N), full_views(target, P, N)))
