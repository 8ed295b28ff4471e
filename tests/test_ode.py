"""Adaptive integrator against closed-form oracles."""

import numpy as np
import pytest

from straingrid import (ConfigError, IntegratorConfig, NumericalBlowup,
                        StiffnessFailure, integrate)


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


def test_exponential_decay():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0,
                           monitor_period=0.1)
    traj = integrate(lambda t, y: -y, np.array([1.0]), cfg)
    assert traj.final_state()[0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_logistic_oracle():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0,
                           monitor_period=0.5)
    traj = integrate(lambda t, y: y * (1.0 - y), np.array([0.1]), cfg)
    exact = 0.1 * np.exp(5.0) / (0.9 + 0.1 * np.exp(5.0))
    assert traj.final_state()[0] == pytest.approx(exact, abs=1e-6)


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
            total += abs(traj.final_state()[0] - exact)
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
