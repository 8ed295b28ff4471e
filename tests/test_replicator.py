"""Reduced replicator system: the right-hand side, checked against the
diffusion-advection reference form, and the driver."""

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, IntegratorConfig,
                        ReplicatorSetup, rhs_replicator, simulate_replicator)

from oracles import rhs_replicator_advection


def replicator_derivative(z, setup):
    """rhs_replicator at the frequencies z (P, N), shaped (P, N)."""
    return rhs_replicator(0.0, z.ravel(), setup).reshape(z.shape)


def make_setup(Theta, Lambdas, conn=None, d=0.0):
    Theta = np.asarray(Theta, dtype=float)
    Lambdas = np.asarray(Lambdas, dtype=float)
    P = Theta.shape[0]
    if conn is None:
        conn = ConnectivityMatrix(entries=np.zeros((1, 1))) if P == 1 else \
            ConnectivityMatrix(entries=np.ones((P, P)) - P * np.eye(P))
    # homogeneous coupling: migration equals the raw connectivity, and
    # there is no advection
    setup = ReplicatorSetup(Theta=Theta, Lambdas=Lambdas, migration=conn.entries.copy(), d=d)
    return setup, conn, np.zeros((P, P))


def random_setup(rng, P, N, d):
    entries = rng.uniform(0.1, 1.0, size=(P, P))
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, -entries.sum(axis=1))
    conn = ConnectivityMatrix(entries=entries)
    overlap = rng.uniform(0.5, 1.5, size=(P, P))
    np.fill_diagonal(overlap, 1.0)   # self-overlap is exactly 1
    nu = overlap - 1.0
    np.fill_diagonal(nu, 0.0)
    M = entries * overlap
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1))
    Lambdas = rng.normal(size=(P, N, N))
    for p in range(P):
        np.fill_diagonal(Lambdas[p], 0.0)
    setup = ReplicatorSetup(Theta=rng.uniform(0.5, 3.0, size=P),
                            Lambdas=Lambdas, migration=M, d=d)
    return setup, conn, nu


def test_neutral_uniform_is_stationary():
    setup, *_ = make_setup(np.ones(3), np.zeros((3, 2, 2)), d=1.0)
    z = np.full((3, 2), 0.5)
    assert np.max(np.abs(replicator_derivative(z, setup))) < 1e-15


def test_single_patch_pair_hand_value():
    setup, *_ = make_setup([1.0], [[[0.0, 1.0], [0.0, 0.0]]])
    z = np.array([[0.5, 0.5]])
    dz = replicator_derivative(z, setup)
    assert dz[0, 0] == pytest.approx(0.125, abs=1e-15)
    assert dz[0, 1] == pytest.approx(-0.125, abs=1e-15)


def test_rows_sum_to_zero_random():
    rng = np.random.default_rng(41)
    for _ in range(20):
        P, N = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        setup, *_ = random_setup(rng, P, N, d=rng.uniform(0.0, 2.0))
        z = rng.dirichlet(np.ones(N), size=P)
        dz = replicator_derivative(z, setup)
        assert np.max(np.abs(dz.sum(axis=1))) < 1e-14


def test_advection_form_identical_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        P, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        setup, conn, nu = random_setup(rng, P, N, d=rng.uniform(0.1, 2.0))
        z = rng.dirichlet(np.ones(N), size=P)
        a = replicator_derivative(z, setup)
        b = rhs_replicator_advection(z, setup, conn, nu)
        assert np.max(np.abs(a - b)) < 1e-13


def test_homogeneous_advection_vanishes():
    setup, conn, nu = make_setup(np.ones(2), np.zeros((2, 3, 3)), d=1.5)
    assert np.max(np.abs(nu)) == 0.0
    rng = np.random.default_rng(47)
    z = rng.dirichlet(np.ones(3), size=2)
    a = replicator_derivative(z, setup)
    b = rhs_replicator_advection(z, setup, conn, nu)
    assert np.max(np.abs(a - b)) < 1e-15


def test_absent_strain_stays_absent():
    """A strain with zero frequency in every patch has an identically
    zero derivative."""
    rng = np.random.default_rng(53)
    setup, *_ = random_setup(rng, 3, 3, d=1.0)
    z = rng.dirichlet(np.ones(2), size=3)
    z = np.column_stack([z[:, 0], np.zeros(3), z[:, 1]])
    dz = replicator_derivative(z, setup)
    assert np.max(np.abs(dz[:, 1])) == 0.0


def test_logistic_closed_form():
    """Antisymmetric two-strain fitness reduces to the logistic equation."""
    setup, *_ = make_setup([2.0], [[[0.0, 0.5], [-0.5, 0.0]]])
    z0 = np.array([[0.1, 0.9]])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0,
                           monitor_period=0.25)
    traj = simulate_replicator(setup, z0, cfg)
    rate = 2.0 * 0.5   # Theta * lambda12
    exact = 0.1 * np.exp(rate * 5.0) / (0.9 + 0.1 * np.exp(rate * 5.0))
    assert traj.states[-1][0] == pytest.approx(exact, abs=1e-6)


def test_neutral_migration_consensus():
    """Pure migration contracts heterogeneous frequencies to agreement."""
    setup, *_ = make_setup(np.ones(3), np.zeros((3, 2, 2)), d=1.0)
    z0 = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=30.0,
                           monitor_period=1.0)
    traj = simulate_replicator(setup, z0, cfg)
    z = traj.states[-1].reshape(3, 2)
    assert np.max(z, axis=0)[0] - np.min(z, axis=0)[0] < 1e-6


def test_decoupled_patches_match_independent_runs():
    rng = np.random.default_rng(59)
    setup, *_ = random_setup(rng, 3, 2, d=0.0)
    z0 = rng.dirichlet(np.ones(2), size=3)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=4.0,
                           monitor_period=0.5)
    joint = simulate_replicator(setup, z0, cfg)
    for p in range(3):
        single = ReplicatorSetup(
            Theta=setup.Theta[p:p + 1], Lambdas=setup.Lambdas[p:p + 1],
            migration=np.zeros((1, 1)), d=0.0)
        traj = simulate_replicator(single, z0[p:p + 1], cfg)
        got = joint.states[-1].reshape(3, 2)[p]
        assert np.max(np.abs(got - traj.states[-1])) < 1e-10


def test_simplex_monitor_stays_small():
    rng = np.random.default_rng(61)
    setup, *_ = random_setup(rng, 2, 3, d=0.5)
    z0 = rng.dirichlet(np.ones(3), size=2)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=10.0,
                           monitor_period=0.5)
    traj = simulate_replicator(setup, z0, cfg)
    assert traj.monitor_max[0] < 1e-8


def test_driver_shape_mismatch():
    setup, *_ = make_setup(np.ones(2), np.zeros((2, 2, 2)))
    for z0 in (np.full((1, 2), 0.5), np.full(4, 0.5), np.full((2, 3), 1 / 3), [[0.5, 0.5]]):
        with pytest.raises(ConfigError, match="z0 has shape"):
            simulate_replicator(setup, z0, IntegratorConfig(t_end=1.0))


@pytest.mark.parametrize("z0", [[[2.0, -1.0]], [[0.3, 0.6]]])
def test_driver_rejects_off_simplex_start(z0):
    setup, *_ = make_setup([1.0], [[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ConfigError, match="off the simplex"):
        simulate_replicator(setup, np.array(z0), IntegratorConfig(t_end=1.0))


def test_negative_migration_intensity_rejected():
    with pytest.raises(ConfigError, match="migration intensity d must be >= 0"):
        make_setup(np.ones(2), np.zeros((2, 2, 2)), d=-0.5)
