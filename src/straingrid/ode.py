"""Adaptive explicit ODE integration.

Embedded Dormand-Prince 5(4) pair with PI step-size control. Monitors
(functionals of the state) are evaluated at every accepted step;
the trajectory records states on a uniform sampling grid via linear
interpolation between accepted steps, or only what the caller's
`observe` makes of them. Conservation defects are measured, never
corrected: they are observables of the discrete flow.

One loop integrates an ensemble of independent members, stacked on a
leading axis: every stage makes one rhs call for all members, which
writes the stage's derivatives straight into the stage array, and each
member accepts or rejects its own step and leaves at its own t_end.
observe and each monitor see a stack of samples or accepted rows once
per block of at most BATCH_VALUES values. A member's trajectory depends
neither on the others nor on the block size: identical inputs always
produce bit-identical trajectories, alone or in any ensemble.
"""

from __future__ import annotations

import math
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

# Values in a block of samples or monitored rows and in the stacked states
# of an ensemble of full runs. Stacking pays while the per-call overhead of
# the rhs dominates: up to between dim 1,110 (10x10) and 8,420 (20x20).
BATCH_VALUES = 4096


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
        if self.initial_step <= 0 or self.max_step <= 0:
            raise ConfigError("initial_step and max_step must be positive")
        if self.initial_step > self.max_step:
            raise ConfigError("initial_step must not exceed max_step")
        if self.monitor_period <= 0:
            raise ConfigError("monitor_period must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with per-sample monitor values.

    times: sampling grid (strictly increasing, ends at t_end).
    states: one row per sample: the state, or its row of observe's.
    diagnostics: (n_samples, n_monitors) monitor values at the samples.
    monitor_max: max |monitor| over y0 and all *accepted* steps, per monitor.
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


def sample_times(cfg) -> np.ndarray:
    """The sampling grid of a run under cfg: every monitor_period from 0,
    and t_end."""
    # The grid ends on t_end; an arange point a rounding error short of
    # it would be a near-duplicate last sample.
    times = np.arange(0.0, cfg.t_end, cfg.monitor_period)
    return np.append(times[times < cfg.t_end * (1.0 - 1e-12)], cfg.t_end)


def check_budgets(cfgs, width):
    """StiffnessFailure or ConfigError if a run under one of cfgs, keeping
    width values per sample, would pass MAX_STEPS or MAX_SAMPLE_VALUES."""
    for cfg in cfgs:
        if cfg.t_end / cfg.max_step > MAX_STEPS:
            raise StiffnessFailure(f"t_end / max_step exceeds the budget of {MAX_STEPS} steps")
        if (cfg.t_end / cfg.monitor_period + 2) * width > MAX_SAMPLE_VALUES:
            raise ConfigError(f"{cfg.t_end / cfg.monitor_period:.3g} samples of {width} "
                              f"values exceed the budget of {MAX_SAMPLE_VALUES} values")


class _Member:
    """One member of an ensemble: its settings, clock, step control, sample
    table, and block of the samples start, ..., next_sample - 1."""

    __slots__ = ("index", "cfg", "t", "h", "err_prev", "steps", "times", "next_sample",
                 "start", "block", "states", "diagnostics")

    def __init__(self, index, cfg, width, n_mon, block):
        self.index, self.cfg, self.block = index, cfg, np.empty(block)
        self.t, self.err_prev, self.steps, self.next_sample, self.start = 0.0, 1.0, 0, 0, 0
        self.h = min(cfg.initial_step, cfg.max_step, cfg.t_end)
        self.times = sample_times(cfg)
        self.states = np.empty((self.times.size, width))
        self.diagnostics = np.empty((self.times.size, n_mon))


def _error_norms(K, h, y_old, y_new, rel_tol, abs_tol, err) -> np.ndarray:
    """Per member, the RMS of the error estimate h (_E K) over
    abs_tol + rel_tol * max(|y_old|, |y_new|), computed in the scratch
    array err and in K[:, 1]: stage 1 is spent once stage 6 is built
    (_E and _B5 give it weight 0). Overflow gives inf, silenced by integrate."""
    scale = K[:, 1]
    np.abs(y_old, out=scale)
    np.maximum(scale, np.abs(y_new, out=err), out=scale)
    scale *= rel_tol
    scale += abs_tol
    np.matmul(_E, K, out=err)
    err *= h
    err /= scale
    np.square(err, out=err)
    # err.mean(axis=1), bit for bit, without its Python-level wrapper
    return np.sqrt(np.add.reduce(err, axis=1) / err.shape[1])


def integrate(rhs: Callable, y0, cfg, monitors: Sequence[Callable] = (),
              observe: Callable[[int, np.ndarray], np.ndarray] | None = None):
    """Integrate y' = rhs(t, y) from t=0 to cfg.t_end.

    Local error per step is kept below abs_tol + rel_tol * |y|. Monitors
    see full states. With `observe`, the sample table holds the k rows
    observe(first, states) makes of each block of k samples first, ...
    (k, dim) instead of the states, and MAX_SAMPLE_VALUES counts their
    width, observe(0, y0[None]).size (observe is called once more for
    it). Neither may keep the states it is given. Raises
    StiffnessFailure on step underflow, past MAX_STEPS attempted steps or
    when the error estimate of finite stages overflows,
    NumericalBlowup on non-finite right-hand sides, and ConfigError when
    the sample table would exceed MAX_SAMPLE_VALUES. One np.errstate
    silences overflow and invalid values from the first rhs call on.

    A 1-d y0 with one IntegratorConfig is one run: rhs(t, y) takes a
    float and a 1-d state, each monitor maps one state to a float, and a
    Trajectory is returned. A stacked y0 (B, dim) with a sequence of B
    configs is an ensemble of B independent members, returned as B
    Trajectories. Each member has its own clock, step size, step
    control, budgets and sample table, and its trajectory is
    bit-identical to its run alone; all members share each stage's call
    rhs(t, y, members, out), with t (b,) and y (b, dim) holding the rows
    of the b members still short of their t_end, members the tuple of
    their indices, and out (b, dim) the stage's row of the stage array,
    whose rows are contiguous but not adjacent: rhs writes the
    derivatives into it (its return value is ignored). Each monitor maps
    a stack of states (k, dim) to k values. A single run is the ensemble
    B = 1.

    The members' sample blocks hold at most BATCH_VALUES values together
    (or a row each), the initial and accepted rows one more block (or go
    to the monitors as they are): no block size changes a bit.
    """
    # C order: a member's bits must not depend on the layout of y0.
    Y = np.array(y0, dtype=float, order="C")
    single = Y.ndim == 1
    if single:
        Y, cfgs, one_rhs = Y[None], [cfg], rhs

        def rhs(t, y, members, out):
            out[0] = one_rhs(float(t[0]), y[0])
        monitors = [lambda ys, mon=mon: [mon(y) for y in ys] for mon in monitors]
    else:
        cfgs = list(cfg)
    if Y.ndim != 2 or Y.shape[0] != len(cfgs):
        raise ConfigError(f"{len(cfgs)} integrator settings for initial states of shape "
                          f"{Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ConfigError("initial state has non-finite entries")
    dim = Y.shape[1]
    width = dim if observe is None else np.size(observe(0, Y[:1]))
    check_budgets(cfgs, width)
    block = (max(1, BATCH_VALUES // (len(cfgs) * dim)), dim)
    ensemble = [_Member(b, cfg, width, len(monitors), block) for b, cfg in enumerate(cfgs)]
    watched = np.empty((BATCH_VALUES // dim if monitors else 0, dim))   # the monitored block
    owners, filled = np.empty(len(watched), dtype=np.intp), 0
    maxima = np.zeros((len(ensemble), len(monitors)))

    def sampled(m):
        """Count the sample just written to m's block; record a full block."""
        m.next_sample += 1
        k = m.next_sample - m.start
        if k == len(m.block) or m.next_sample == m.times.size:
            rows = m.block[:k]
            m.states[m.start:m.next_sample] = rows if observe is None \
                else np.reshape(observe(m.start, rows), (k, -1))
            for j, mon in enumerate(monitors):
                m.diagnostics[m.start:m.next_sample, j] = mon(rows)
            m.start = m.next_sample

    def monitor(members, rows, end=False):
        """Stack the members' rows in the monitored block, or reduce block and
        rows into the members' maxima (fmax skips NaN, as max did)."""
        nonlocal filled
        if not end and filled + len(rows) <= len(watched):
            watched[filled:filled + len(rows)], owners[filled:filled + len(rows)] = rows, members
            filled += len(rows)
            return
        for idx, stack in ((owners[:filled], watched[:filled]), (members, rows)):
            for j, mon in enumerate(monitors if len(stack) else ()):
                np.fmax.at(maxima[:, j], idx, np.abs(mon(stack)))
        filled = 0

    live = np.arange(len(ensemble))
    with np.errstate(over="ignore", invalid="ignore"):
        for m, y in zip(ensemble, Y):
            m.block[0] = y
            sampled(m)
        monitor(live, Y)

        # Row i of every array below belongs to runs[i], the members still
        # short of their t_end; a member that reaches it leaves them all.
        runs = ensemble
        members = tuple(range(len(runs)))
        rel_tol = np.array([[cfg.rel_tol] for cfg in cfgs])
        abs_tol = np.array([[cfg.abs_tol] for cfg in cfgs])
        K = np.empty((len(runs), 7, dim))
        rhs(np.zeros(len(runs)), Y, members, K[:, 0])
        if not np.all(np.isfinite(K[:, 0])):
            raise NumericalBlowup("non-finite right-hand side at t=0.0")
        # Stage s's argument is built in Y_new from the views K[:, :s] and
        # K[:, s] in stages, remade only with K (a view costs about a tenth of
        # a small product); the last one is the step's solution y + h _B5 K.
        # err is the error norm's scratch.
        stages = [(K[:, :s], K[:, s]) for s in range(1, 7)]
        Y_new, err = np.empty_like(Y), np.empty_like(Y)

        while runs:
            for m in runs:
                m.h = min(m.h, m.cfg.t_end - m.t)
                m.steps += 1
                if m.steps > MAX_STEPS:
                    raise StiffnessFailure(f"step budget of {MAX_STEPS} steps exhausted at "
                                           f"t={m.t}")
            h = np.array([[m.h] for m in runs])
            t_stages = np.array([m.t for m in runs]) + _C[:, None] * h[:, 0]

            for s, (earlier, row) in enumerate(stages, 1):
                # Stage 1 is one product: as a matmul over one stage it costs
                # about six times as much at large dim, for the same bits.
                if s == 1:
                    np.multiply(earlier[:, 0], _A[1][0], out=Y_new)
                else:
                    np.matmul(_A[s], earlier, out=Y_new)
                Y_new *= h
                Y_new += Y
                rhs(t_stages[s], Y_new, members, row)

            norms = _error_norms(K, h, Y, Y_new, rel_tol, abs_tol, err)
            accepted = []
            for i, m in enumerate(runs):
                norm = float(norms[i])
                # A non-finite stage reaches the error estimate (every later
                # stage and y_new depend on it), so K is scanned only to tell
                # it from an estimate that overflowed on finite stages.
                if not math.isfinite(norm):
                    if not np.isfinite(K[i]).all():
                        raise NumericalBlowup(f"non-finite right-hand side at t={m.t}")
                    raise StiffnessFailure(
                        f"error estimate overflowed at t={m.t}: rel_tol={m.cfg.rel_tol:g} and "
                        f"abs_tol={m.cfg.abs_tol:g} are too small")
                t_end = m.cfg.t_end
                if norm <= 1.0:
                    # A step clipped to t_end ends there: t + (t_end - t) can
                    # round an ulp short, which would leave a step of ~1e-17.
                    t_new = t_end if m.h == t_end - m.t else m.t + m.h
                    y, y_new = Y[i], Y_new[i]
                    # interpolate any samples inside (t, t_new]
                    while m.next_sample < m.times.size \
                            and m.times[m.next_sample] <= t_new + 1e-15 * t_end:
                        ts = min(m.times[m.next_sample], t_new)
                        frac = (ts - m.t) / m.h
                        # y + frac * (y_new - y), bit for bit
                        row = m.block[m.next_sample - m.start]
                        np.subtract(y_new, y, out=row)
                        row *= frac
                        row += y
                        sampled(m)
                    m.t = t_new
                    accepted.append(i)
                    factor = _SAFETY * (norm ** -_PI_ALPHA if norm > 0 else _MAX_FACTOR) \
                        * (m.err_prev ** _PI_BETA)
                    m.err_prev = max(norm, 1e-10)
                else:
                    factor = max(_MIN_FACTOR, _SAFETY * norm ** (-1.0 / _ORDER))
                m.h = min(m.cfg.max_step, m.h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)))
                # Only a step shrunk after a rejection meets the floor: a
                # configured first step may lie below it when t_end is large.
                if norm > 1.0 and m.h < 1e-14 * t_end:
                    raise StiffnessFailure(f"step size underflow at t={m.t}: h={m.h} is below "
                                           f"the floor 1e-14 * t_end = {1e-14 * t_end}")

            if len(accepted) == len(runs):
                Y, Y_new = Y_new, Y
                K[:, 0] = K[:, 6]  # FSAL
                monitor(live, Y)
            elif accepted:
                Y[accepted] = rows = Y_new[accepted]
                K[accepted, 0] = K[accepted, 6]
                monitor(live[accepted], rows)

            keep = [i for i, m in enumerate(runs) if m.t < m.cfg.t_end]
            if len(keep) < len(runs):
                runs, live = [runs[i] for i in keep], live[keep]
                members = tuple(m.index for m in runs)
                Y, K, rel_tol, abs_tol = Y[keep], K[keep], rel_tol[keep], abs_tol[keep]
                stages = [(K[:, :s], K[:, s]) for s in range(1, 7)]
                Y_new, err = np.empty_like(Y), np.empty_like(Y)
        monitor(live[:0], Y[:0], end=True)

    trajs = [Trajectory(m.times, m.states, m.diagnostics, maxima[m.index]) for m in ensemble]
    return trajs[0] if single else trajs
