"""Adaptive integrator against closed-form oracles."""

import numpy as np
import pytest

import straingrid.ode
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
    """With observe, the table holds observe(state) of the states the
    plain run samples, monitors still see the full state, and the budget
    counts the observed width."""
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.1)
    y0 = np.array([1.0, 2.0, 3.0])
    seen = []

    def monitor(y):
        seen.append(y.size)
        return float(y[0])

    def observe(y):
        return np.array([[y.sum()], [y[2]]])
    plain = integrate(lambda t, y: -y, y0, cfg, monitors=[monitor])
    observed = integrate(lambda t, y: -y, y0, cfg, monitors=[monitor], observe=observe)
    assert observed.states.shape == (11, 2)
    assert np.array_equal(observed.states, [observe(y).ravel() for y in plain.states])
    assert np.array_equal(observed.diagnostics, plain.diagnostics)
    assert set(seen) == {3}
    monkeypatch.setattr(straingrid.ode, "MAX_SAMPLE_VALUES", 30)
    assert integrate(lambda t, y: -y, y0, cfg, observe=observe).states.shape == (11, 2)
    with pytest.raises(ConfigError, match="budget"):
        integrate(lambda t, y: -y, y0, cfg)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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

    def rhs(t, y, members):
        assert t.shape == (len(members),) and y.shape == (len(members), 2)
        seen.append(members)
        return rotation(t, y, members)
    trajs = integrate(rhs, y0, cfgs, monitors=[lambda y: float(y[0])])
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_failing_member_stops_the_ensemble_with_a_typed_error(monkeypatch):
    """A member whose rhs turns non-finite, or that runs out of steps,
    raises a StrainGridError out of the ensemble."""
    cfgs = [IntegratorConfig(t_end=1.0, monitor_period=0.5),
            IntegratorConfig(t_end=20.0, monitor_period=10.0)]

    def blows_up(t, y, members):
        out = rotation(t, y, members)
        if len(members) == 1 and t[0] > 5.0:
            out[0, 0] = np.nan
        return out
    with pytest.raises(NumericalBlowup):
        integrate(blows_up, np.ones((2, 2)), cfgs)
    calls = []
    integrate(lambda t, y, members: calls.append(t) or rotation(t, y, members),
              np.ones((2, 2)), cfgs)
    attempts = (len(calls) - 1) // 6      # the longer member's attempted steps
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", attempts - 1)
    with pytest.raises(StrainGridError, match="step budget"):
        integrate(rotation, np.ones((2, 2)), cfgs)
