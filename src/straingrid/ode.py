"""Adaptive explicit ODE integration.

Embedded Dormand-Prince 5(4) pair with PI step-size control. Monitors
(scalar functionals of the state) are evaluated at every accepted step;
the trajectory records states on a uniform sampling grid via linear
interpolation between accepted steps, or only an observable of each
such state when the caller passes `observe`. Conservation defects are
measured, never corrected: they are observables of the discrete flow.

Identical inputs always produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalBlowup, StiffnessFailure

# Dormand-Prince RK5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.append(_A[6], 0.0)   # FSAL: the last stage is taken at the solution
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

_ORDER = 5
_SAFETY = 0.9
_PI_ALPHA = 0.7 / _ORDER
_PI_BETA = 0.4 / _ORDER
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Budgets of one run: attempted steps (the six runs of a 30x30 compare
# attempt about 600 in all) and values in the sample table (2**27 float64
# values are 1 GiB).
MAX_STEPS = 10**6
MAX_SAMPLE_VALUES = 2**27


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_end: float = 1.0
    max_step: float = np.inf
    initial_step: float = 1e-4
    monitor_period: float = 0.1

    def __post_init__(self):
        if np.isnan(self.max_step) or not np.all(np.isfinite(
                [self.rel_tol, self.abs_tol, self.t_end, self.initial_step, self.monitor_period])):
            raise ConfigError("integrator settings must be finite (max_step may be inf)")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if self.initial_step > self.max_step:
            raise ConfigError("initial_step must not exceed max_step")
        if self.monitor_period <= 0:
            raise ConfigError("monitor_period must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with per-sample monitor values.

    times: sampling grid (strictly increasing, ends at t_end).
    states: one row per sample: the state, or observe(state) flattened
        when integrate was given an observable.
    diagnostics: (n_samples, n_monitors) monitor values at the samples.
    monitor_max: max |monitor| over all *accepted* steps, per monitor.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: np.ndarray
    monitor_max: np.ndarray

    def at(self, t) -> np.ndarray:
        """Linear interpolation of the sampled states at times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.shape[0], self.states.shape[1]))
        for j in range(self.states.shape[1]):
            out[:, j] = np.interp(t, self.times, self.states[:, j])
        return out

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _error_norm(err, y_old, y_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0,
              cfg: IntegratorConfig,
              monitors: Sequence[Callable[[np.ndarray], float]] = (),
              observe: Callable[[np.ndarray], np.ndarray] | None = None) -> Trajectory:
    """Integrate y' = rhs(t, y) from t=0 to cfg.t_end.

    Local error per step is kept below abs_tol + rel_tol * |y|. Monitors
    see the full state. With `observe`, the sample table holds
    observe(state).ravel() for each sampled state instead of the state,
    and MAX_SAMPLE_VALUES counts that width, observe(y0).size. Raises
    StiffnessFailure on step underflow or past MAX_STEPS attempted steps,
    NumericalBlowup on non-finite right-hand sides, and ConfigError when
    the sample table would exceed MAX_SAMPLE_VALUES.
    """
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ConfigError("initial state has non-finite entries")
    t = 0.0
    t_end = cfg.t_end
    if t_end / cfg.max_step > MAX_STEPS:
        raise StiffnessFailure(f"t_end / max_step exceeds the budget of {MAX_STEPS} steps")
    width = y.size if observe is None else np.size(observe(y))
    if (t_end / cfg.monitor_period + 2) * width > MAX_SAMPLE_VALUES:
        raise ConfigError(f"{t_end / cfg.monitor_period:.3g} samples of {width} values "
                          f"exceed the budget of {MAX_SAMPLE_VALUES} values")

    n_mon = len(monitors)
    # The grid ends on t_end; an arange point a rounding error short of it
    # would be a near-duplicate last sample.
    sample_times = np.arange(0.0, t_end, cfg.monitor_period)
    sample_times = np.append(sample_times[sample_times < t_end * (1.0 - 1e-12)], t_end)
    n_samples = sample_times.size
    states = np.empty((n_samples, width))
    diagnostics = np.empty((n_samples, n_mon))
    monitor_max = np.zeros(n_mon)

    def record(idx, state):
        states[idx] = state if observe is None else np.ravel(observe(state))
        for m, mon in enumerate(monitors):
            diagnostics[idx, m] = mon(state)

    def eval_monitors(state):
        for m, mon in enumerate(monitors):
            monitor_max[m] = max(monitor_max[m], abs(mon(state)))

    record(0, y)
    eval_monitors(y)
    next_sample = 1

    h = min(cfg.initial_step, cfg.max_step, t_end)
    err_prev = 1.0
    K = np.empty((7, y.size))
    K[0] = rhs(t, y)
    if not np.all(np.isfinite(K[0])):
        raise NumericalBlowup(f"non-finite right-hand side at t={t}")
    # Every stage argument is built in y_new; the last one is the step's
    # solution y + h _B5 K.
    y_new = np.empty_like(y)

    steps = 0
    while t < t_end:
        h = min(h, t_end - t)
        if h < 1e-14 * t_end:
            raise StiffnessFailure(f"step size underflow at t={t} (h={h})")
        steps += 1
        if steps > MAX_STEPS:
            raise StiffnessFailure(f"step budget of {MAX_STEPS} steps exhausted at t={t}")

        for s in range(1, 7):
            np.matmul(K.T[:, :s], _A[s], out=y_new)
            y_new *= h
            y_new += y
            K[s] = rhs(t + _C[s] * h, y_new)

        err = h * (K.T @ _E)
        norm = _error_norm(err, y, y_new, cfg)
        # A non-finite stage reaches the error estimate (every later stage
        # and y_new depend on it), so one scalar test replaces a scan of K.
        if not np.isfinite(norm):
            raise NumericalBlowup(f"non-finite right-hand side at t={t}")

        if norm <= 1.0:
            # A step clipped to t_end ends there: t + (t_end - t) can
            # round an ulp short, which would leave a step of ~1e-17.
            t_new = t_end if h == t_end - t else t + h
            # interpolate any samples inside (t, t_new]
            while next_sample < n_samples and sample_times[next_sample] <= t_new + 1e-15 * t_end:
                ts = min(sample_times[next_sample], t_new)
                frac = (ts - t) / h
                record(next_sample, y + frac * (y_new - y))
                next_sample += 1
            y, y_new = y_new, y
            t = t_new
            eval_monitors(y)
            K[0] = K[6]  # FSAL
            factor = _SAFETY * (norm ** -_PI_ALPHA if norm > 0 else _MAX_FACTOR) \
                * (err_prev ** _PI_BETA)
            err_prev = max(norm, 1e-10)
        else:
            factor = max(_MIN_FACTOR, _SAFETY * norm ** (-1.0 / _ORDER))
        h = min(cfg.max_step, h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)))

    return Trajectory(times=sample_times, states=states,
                      diagnostics=diagnostics, monitor_max=monitor_max)
