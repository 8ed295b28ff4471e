"""Adaptive integrator against closed-form oracles."""

import numpy as np
import pytest

import straingrid.ode
from straingrid.ode import _E, _error_norms
from straingrid import (ConfigError, IntegratorConfig, NumericalBlowup,
                        StiffnessFailure, StrainGridError, integrate)


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(initial_step=1.0, max_step=0.5)
    with pytest.raises(ConfigError):
        IntegratorConfig(monitor_period=0.0)
    for bad in ({"t_end": np.nan}, {"t_end": np.inf}, {"monitor_period": np.inf},
                {"initial_step": np.nan}, {"max_step": np.nan}, {"rel_tol": np.nan}):
        with pytest.raises(ConfigError, match="finite"):
            IntegratorConfig(**bad)
    assert IntegratorConfig().max_step == np.inf


@pytest.mark.parametrize("steps", [{"initial_step": 0.0}, {"initial_step": -1e-3},
                                   {"max_step": 0.0, "initial_step": 0.0},
                                   {"max_step": -1.0, "initial_step": -2.0}])
def test_steps_must_be_positive(steps):
    """A zero first step would step in place up to MAX_STEPS, a zero
    max_step divides t_end by 0, and a negative step underflows at t = 0."""
    with pytest.raises(ConfigError, match="initial_step and max_step must be positive"):
        IntegratorConfig(**steps)


def test_zero_field_constant():
    cfg = IntegratorConfig(t_end=3.0, monitor_period=0.5)
    traj = integrate(lambda t, y: np.zeros_like(y), np.array([1.0, -2.0]), cfg)
    assert np.all(traj.states == traj.states[0])
    assert traj.times[-1] == 3.0
    assert np.all(np.diff(traj.times) > 0)


def test_sample_grid_has_no_near_duplicate_end():
    """arange(0, 57, 57/200) ends a rounding error short of 57; the grid
    still has 201 samples ending on t_end."""
    cfg = IntegratorConfig(t_end=57.0, monitor_period=57.0 / 200)
    traj = integrate(lambda t, y: np.zeros_like(y), np.array([1.0]), cfg)
    assert traj.times.size == 201
    assert traj.times[-1] == 57.0
    assert np.all(np.diff(traj.times) > 0.5 * cfg.monitor_period)


def test_exponential_decay():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0,
                           monitor_period=0.1)
    traj = integrate(lambda t, y: -y, np.array([1.0]), cfg)
    assert traj.states[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_logistic_oracle():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0,
                           monitor_period=0.5)
    traj = integrate(lambda t, y: y * (1.0 - y), np.array([0.1]), cfg)
    exact = 0.1 * np.exp(5.0) / (0.9 + 0.1 * np.exp(5.0))
    assert traj.states[-1][0] == pytest.approx(exact, abs=1e-6)


def test_tolerance_halving_does_not_worsen_oracles():
    problems = [
        (lambda t, y: -y, np.array([1.0]), 1.0, np.exp(-1.0)),
        (lambda t, y: y * (1.0 - y), np.array([0.1]), 5.0,
         0.1 * np.exp(5.0) / (0.9 + 0.1 * np.exp(5.0))),
    ]
    totals = []
    for tol in (1e-6, 5e-7):
        total = 0.0
        for rhs, y0, t_end, exact in problems:
            cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2,
                                   t_end=t_end, monitor_period=t_end)
            traj = integrate(rhs, y0, cfg)
            total += abs(traj.states[-1][0] - exact)
        totals.append(total)
    assert totals[1] <= totals[0] + 1e-12


def test_bit_identical_reruns():
    cfg = IntegratorConfig(t_end=2.0, monitor_period=0.25)

    def rhs(t, y):
        return np.array([y[1], -y[0]])

    a = integrate(rhs, np.array([1.0, 0.0]), cfg)
    b = integrate(rhs, np.array([1.0, 0.0]), cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_monitors_recorded():
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.25)
    traj = integrate(lambda t, y: -y, np.array([1.0]), cfg,
                     monitors=[lambda y: float(y[0])])
    assert traj.diagnostics.shape == (traj.times.size, 1)
    assert np.allclose(traj.diagnostics[:, 0], traj.states[:, 0])
    assert traj.monitor_max[0] == pytest.approx(1.0)


def test_dense_output_interpolation():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0,
                           monitor_period=0.01)
    traj = integrate(lambda t, y: -y, np.array([1.0]), cfg)
    mid = traj.at(np.array([0.5]))[0, 0]
    assert mid == pytest.approx(np.exp(-0.5), abs=1e-4)


def test_stiffness_failure_surfaced():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0,
                           monitor_period=1.0, initial_step=1e-3)
    with pytest.raises(StiffnessFailure):
        integrate(lambda t, y: -1e16 * y, np.array([1.0]), cfg)


def test_blowup_surfaced():
    cfg = IntegratorConfig(t_end=1.0, monitor_period=1.0)
    with pytest.raises(NumericalBlowup):
        integrate(lambda t, y: np.array([np.nan]), np.array([1.0]), cfg)


def test_integrate_keeps_one_error_state_and_restores_it():
    """One np.errstate covers the run from the t=0 rhs call on, and the
    caller's error state is back when integrate returns or raises."""
    before, inside = np.geterr(), []

    def rhs(t, y):
        inside.append(np.geterr())
        return -y
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.5, initial_step=1e-3)
    integrate(rhs, np.array([1.0]), cfg)
    assert np.geterr() == before
    assert all(state == {**before, "over": "ignore", "invalid": "ignore"} for state in inside)
    with pytest.raises(NumericalBlowup):
        integrate(lambda t, y: np.array([np.nan]), np.array([1.0]), cfg)
    assert np.geterr() == before
    with pytest.raises(StiffnessFailure):
        integrate(lambda t, y: -1e16 * y, np.array([1.0]),
                  IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, initial_step=1e-3))
    assert np.geterr() == before


@pytest.mark.parametrize("B, dim", [(1, 1), (3, 39), (2, 1000)])
def test_error_norm_is_the_mean_form_bit_for_bit(B, dim):
    """_error_norms reduces with np.add.reduce / n, which are the bits of
    err.mean(axis=1) on the same scratch."""
    rng = np.random.default_rng(B * dim)
    K = rng.normal(size=(B, 7, dim)) * 10.0 ** rng.integers(-6, 6, size=(B, 7, dim))
    y_old, y_new = rng.normal(size=(2, B, dim))
    h = rng.uniform(1e-6, 1e-1, size=(B, 1))
    rel_tol, abs_tol = np.full((B, 1), 1e-8), np.full((B, 1), 1e-10)
    got = _error_norms(K.copy(), h, y_old, y_new, rel_tol, abs_tol, np.empty((B, dim)))
    # the same steps, ending in err.mean(axis=1); stage 1 holds the scale
    K[:, 1] = np.maximum(np.abs(y_old), np.abs(y_new))
    K[:, 1] *= rel_tol
    K[:, 1] += abs_tol
    err = np.matmul(_E, K)
    err *= h
    err /= K[:, 1]
    assert np.array_equal(got, np.sqrt(np.square(err).mean(axis=1)))


def test_nonfinite_initial_state_rejected():
    cfg = IntegratorConfig(t_end=1.0, monitor_period=1.0)
    with pytest.raises(ConfigError):
        integrate(lambda t, y: -y, np.array([np.inf]), cfg)


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_step_budget_surfaced(monkeypatch):
    """A run may attempt MAX_STEPS steps and no more."""
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=20.0, monitor_period=20.0)
    calls = []

    def counted(t, y):
        calls.append(t)
        return oscillator(t, y)
    integrate(counted, np.array([1.0, 0.0]), cfg)
    attempts = (len(calls) - 1) // 6      # one FSAL call, then six per attempt
    assert attempts > 20
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", attempts)
    integrate(oscillator, np.array([1.0, 0.0]), cfg)
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", attempts - 1)
    with pytest.raises(StiffnessFailure, match="step budget"):
        integrate(oscillator, np.array([1.0, 0.0]), cfg)


def test_max_step_beyond_the_budget_fails_before_stepping(monkeypatch):
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", 1000)
    calls = []
    cfg = IntegratorConfig(t_end=5.0, max_step=1e-3, initial_step=1e-3)
    with pytest.raises(StiffnessFailure, match="budget"):
        integrate(lambda t, y: calls.append(t) or -y, np.array([1.0]), cfg)
    assert calls == []


def test_sample_table_budget_checked_before_allocation(monkeypatch):
    cfg = IntegratorConfig(t_end=1e300, monitor_period=1e-300)
    with pytest.raises(ConfigError, match="budget"):
        integrate(lambda t, y: -y, np.array([1.0]), cfg)
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.1)
    assert integrate(lambda t, y: -y, np.ones(3), cfg).states.shape == (11, 3)
    monkeypatch.setattr(straingrid.ode, "MAX_SAMPLE_VALUES", 30)
    with pytest.raises(ConfigError, match="budget"):
        integrate(lambda t, y: -y, np.ones(3), cfg)


def test_observed_table_holds_the_observable_of_each_sample(monkeypatch):
    """With observe, rows first, ..., first + k - 1 of the table hold
    observe(first, states) of the k consecutive states the plain run
    samples as those rows, monitors still see full states, and the budget
    counts the observed width."""
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.1)
    y0 = np.array([1.0, 2.0, 3.0])
    seen, firsts = [], []

    def monitor(y):
        seen.append(y.size)
        return float(y[0])

    def observe(first, ys):
        firsts.append((first, len(ys)))
        return np.stack([ys.sum(axis=1) + first + np.arange(len(ys)), ys[:, 2]], axis=1)
    plain = integrate(lambda t, y: -y, y0, cfg, monitors=[monitor])
    monkeypatch.setattr(straingrid.ode, "BATCH_VALUES", 12)     # blocks of 4 samples
    observed = integrate(lambda t, y: -y, y0, cfg, monitors=[monitor], observe=observe)
    # the width call on y0, then blocks that cover the 11 samples in order
    assert firsts == [(0, 1), (0, 4), (4, 4), (8, 3)]
    assert observed.states.shape == (11, 2)
    assert np.array_equal(observed.states, observe(0, plain.states))
    assert np.array_equal(observed.diagnostics, plain.diagnostics)
    assert set(seen) == {3}
    monkeypatch.setattr(straingrid.ode, "MAX_SAMPLE_VALUES", 30)
    assert integrate(lambda t, y: -y, y0, cfg, observe=observe).states.shape == (11, 2)
    with pytest.raises(ConfigError, match="budget"):
        integrate(lambda t, y: -y, y0, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage", range(1, 7))
def test_non_finite_stage_stops_its_step(bad, stage):
    """One non-finite entry returned at any stage of the third step raises
    NumericalBlowup before a fourth step starts."""
    cfg = IntegratorConfig(t_end=1.0, monitor_period=1.0, initial_step=1e-3)
    bad_call = 1 + 2 * 6 + stage        # the FSAL call, two steps, then stages 1..
    calls = []

    def rhs(t, y):
        calls.append(t)
        out = -y
        if len(calls) == bad_call:
            out[0] = bad
        return out
    with pytest.raises(NumericalBlowup):
        integrate(rhs, np.array([1.0, 2.0]), cfg)
    assert len(calls) == 1 + 3 * 6


def test_last_step_ends_on_t_end():
    """t + (t_end - t) rounds an ulp short of this t_end when the last
    step starts before t_end / 2; the run must still end on t_end, not
    fail on a step of about 5.6e-17."""
    t_end = 0.43364036525956345
    cfg = IntegratorConfig(t_end=t_end, rel_tol=1e-3, abs_tol=1e-6, monitor_period=t_end / 200)
    traj = integrate(lambda t, y: -0.01 * y, [1.0], cfg)
    assert traj.times.size == 201
    assert traj.times[-1] == t_end


# ------------------------------------------------------------------ ensembles

OMEGA = np.array([1.0, 2.0, 3.0, 5.0])


def rotation(t, y, members):
    """y' = omega_b (y_1, -y_0) for member b, on stacked states (b, 2)."""
    return OMEGA[list(members), None] * y[:, ::-1] * [1.0, -1.0]


def alone(y0, cfg, b):
    """Member b of the rotation ensemble, run through the 1-d contract."""
    return integrate(lambda t, y: rotation(np.array([t]), y[None], (b,))[0], y0, cfg,
                     monitors=[lambda y: float(y[0])])


def test_members_leave_the_ensemble_at_their_own_t_end():
    """Four members with t_end 1:2:4:8 leave in that order, each when it
    reaches t_end, and each trajectory is bit-identical to its run alone."""
    cfgs = [IntegratorConfig(t_end=t_end, monitor_period=t_end / 20) for t_end in (1, 2, 4, 8)]
    y0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, -1.0]])
    seen = []

    def rhs(t, y, members, out):
        assert t.shape == (len(members),) and y.shape == out.shape == (len(members), 2)
        seen.append(members)
        out[...] = rotation(t, y, members)
    trajs = integrate(rhs, y0, cfgs, monitors=[lambda ys: ys[:, 0]])  # a stacked monitor
    for b, (traj, cfg) in enumerate(zip(trajs, cfgs)):
        assert traj.times[-1] == cfg.t_end and traj.times.size == 21
        solo = alone(y0[b], cfg, b)
        for name in ("times", "states", "diagnostics", "monitor_max"):
            assert np.array_equal(getattr(traj, name), getattr(solo, name)), name
    # the member sets shrink one at a time, in t_end order, and never grow back
    shrinking = [(0, 1, 2, 3), (1, 2, 3), (2, 3), (3,)]
    assert [m for i, m in enumerate(seen) if i == 0 or m != seen[i - 1]] == shrinking


def test_ensemble_checks_its_inputs():
    cfg = IntegratorConfig(t_end=1.0)
    with pytest.raises(ConfigError, match="integrator settings"):
        integrate(rotation, np.ones((2, 2)), [cfg])
    with pytest.raises(ConfigError, match="non-finite"):
        integrate(rotation, np.array([[1.0, 0.0], [np.nan, 0.0]]), [cfg, cfg])


def test_a_failing_member_stops_the_ensemble_with_a_typed_error(monkeypatch):
    """A member whose rhs turns non-finite, or that runs out of steps,
    raises a StrainGridError out of the ensemble."""
    cfgs = [IntegratorConfig(t_end=1.0, monitor_period=0.5),
            IntegratorConfig(t_end=20.0, monitor_period=10.0)]

    def blows_up(t, y, members, out):
        out[...] = rotation(t, y, members)
        if len(members) == 1 and t[0] > 5.0:
            out[0, 0] = np.nan
    with pytest.raises(NumericalBlowup):
        integrate(blows_up, np.ones((2, 2)), cfgs)
    calls = []

    def counted(t, y, members, out):
        calls.append(t)
        out[...] = rotation(t, y, members)
    integrate(counted, np.ones((2, 2)), cfgs)
    attempts = (len(calls) - 1) // 6      # the longer member's attempted steps
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", attempts - 1)
    with pytest.raises(StrainGridError, match="step budget"):
        integrate(counted, np.ones((2, 2)), cfgs)


def test_ensemble_monitors_see_stacks_once_per_block(monkeypatch):
    """In an ensemble a monitor maps a stack (k, dim) to k values: it runs
    once per member's block of samples and once per block of the initial
    and accepted rows, never once per member and step. Under a block
    budget below one row, each step's accepted rows go to it as they are,
    and every value recorded is the same."""
    cfgs = [IntegratorConfig(t_end=t_end, monitor_period=t_end / 4) for t_end in (1, 2, 4)]
    calls, stacks = [], []

    def rhs(t, y, members, out):
        calls.append(members)
        out[...] = rotation(t, y, members)

    def monitor(ys):
        stacks.append(ys.shape)
        return ys[:, 0]
    trajs = integrate(rhs, np.ones((3, 2)), cfgs, monitors=[monitor])
    assert all(np.array_equal(traj.diagnostics[:, 0], traj.states[:, 0]) for traj in trajs)
    # each member's 5 samples are one block; the 3 initial rows and every
    # accepted row (at least one per step) are one more
    steps = (len(calls) - 1) // 6
    assert stacks.count((5, 2)) == 3 and len(stacks) == 4
    assert 3 + steps <= max(k for k, _ in stacks)

    monkeypatch.setattr(straingrid.ode, "BATCH_VALUES", 1)
    calls.clear(), stacks.clear()
    unblocked = integrate(rhs, np.ones((3, 2)), cfgs, monitors=[monitor])
    assert {(3, 2), (2, 2), (1, 2)} <= set(stacks)
    assert len(stacks) <= 1 + steps + sum(traj.times.size for traj in trajs)
    for traj, again in zip(trajs, unblocked):
        for name in ("states", "diagnostics", "monitor_max"):
            assert np.array_equal(getattr(traj, name), getattr(again, name)), name


@pytest.mark.parametrize("budget", [1, 2, 30, None], ids=["below-a-row", "one-row", "few-rows",
                                                            "default"])
def test_block_size_changes_no_bit(budget, monkeypatch):
    """A 1-d run, and a 3-member ensemble with observe whose members leave
    with a block part full, record the same states, diagnostics and
    monitor maxima under every block budget (BATCH_VALUES, here in values
    of 2-value states) as under the default."""
    def runs():
        cfg = IntegratorConfig(t_end=1.0, monitor_period=0.05)
        one = integrate(lambda t, y: -y, np.array([1.0, -2.0]), cfg,
                        monitors=[lambda y: float(y.sum()), np.min])
        cfgs = [IntegratorConfig(t_end=t_end, monitor_period=t_end / 21) for t_end in (1, 2, 4)]

        def observe(first, ys):
            return np.stack([ys.sum(axis=1) * (first + np.arange(1, len(ys) + 1)), ys[:, 1]],
                            axis=1)    # row r is sample first + r

        def rhs(t, y, members, out):
            out[...] = rotation(t, y, members)
        y0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
        return [one, *integrate(rhs, y0, cfgs, monitors=[lambda ys: ys[:, 0],
                                                         lambda ys: ys.min(axis=1)],
                                observe=observe)]
    default = runs()
    assert np.array_equal(default[0].monitor_max, [1.0, 2.0])   # |sum| and |min| of y0
    if budget is not None:
        monkeypatch.setattr(straingrid.ode, "BATCH_VALUES", budget)
    for traj, again in zip(default, runs()):
        for name in ("times", "states", "diagnostics", "monitor_max"):
            assert np.array_equal(getattr(traj, name), getattr(again, name)), name
