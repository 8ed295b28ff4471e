"""Empirical checks of the slow-fast reduction.

reduction_error integrates the full system and the reduced replicator
from matched initial data and measures the sup-norm gap between the
extracted and reduced frequencies over a slow-time window.
convergence_study sweeps eps and fits the log-log convergence order.
neutral_limit_check verifies the product-structure attractor of the
fully neutral, migration-free system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fullsim import (FullModel, extract_frequencies, init_on_manifold,
                      manifold_state, simulate_full)
from .ode import IntegratorConfig
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .reduction import (left_eigenvector as left_eigenvector,
                        neutral_equilibrium as neutral_equilibrium)
from .replicator import setup_from_model, simulate_replicator
from .types import FrequencyState, FullState

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


def reduction_error(model: FullModel, z0: FrequencyState, eps: float,
                    tau_window: tuple[float, float]) -> tuple[float, float]:
    """Sup-norm frequency gap between full and reduced dynamics.

    The full system runs at the given eps from the slow-manifold state of
    z0 over t in [0, T/eps]; the replicator runs from z0 over tau in
    [0, T]. Both are sampled on a common tau-grid restricted to
    [tau0, T]. Returns (error, aggregate) with aggregate the sup over
    the window of max_p |S_p - S_p*|.
    """
    tau0, T = tau_window
    if not (0 <= tau0 < T):
        raise ConfigError(f"invalid tau window {tau_window}")
    if eps <= 0:
        raise ConfigError("reduction error requires eps > 0")
    model = model.with_eps(eps)
    P, N = model.n_patches, model.n_strains
    bg = model.background

    tau_grid = np.linspace(0.0, T, VALIDATION_SAMPLES + 1)
    window = tau_grid >= tau0

    full_traj = simulate_full(model, init_on_manifold(z0, bg), _validation_cfg(T / eps))
    red_traj = simulate_replicator(setup_from_model(model), z0, _validation_cfg(T))

    full_states = full_traj.at(tau_grid / eps)
    red_states = red_traj.at(tau_grid)

    err = 0.0
    agg = 0.0
    for idx in np.nonzero(window)[0]:
        state = FullState.unravel(full_states[idx], P, N)
        z_full = extract_frequencies(state, bg).z
        z_red = red_states[idx].reshape(P, N)
        err = max(err, float(np.max(np.abs(z_full - z_red))))
        agg = max(agg, float(np.max(np.abs(state.S - bg.S_star))))
    return err, agg


def convergence_study(model: FullModel, z0: FrequencyState, eps_list,
                      tau_window: tuple[float, float]) -> ReductionReport:
    """Run reduction_error per eps and fit the log-log convergence order."""
    eps_list = [float(e) for e in eps_list]
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


def neutral_limit_check(model: FullModel, y0: FullState,
                        t_end: float = 200.0) -> float:
    """Residual of the product structure S = S*, I^i = I* z^i,
    D^{ij} = D* z^i z^j at t_end, with z extracted from the final state.

    Meaningful for the neutral, migration-free system (the caller builds
    the model with zero deviations and d = 0)."""
    P, N = model.n_patches, model.n_strains
    bg = model.background

    traj = simulate_full(model, y0, _validation_cfg(t_end))
    state = FullState.unravel(traj.final_state(), P, N)
    target = manifold_state(extract_frequencies(state, bg).z, bg)
    return sum(float(np.max(np.abs(got - want))) for got, want in
               ((state.S, target.S), (state.I, target.I), (state.D, target.D)))
