"""Closed-form reduction objects: equilibria, spectral objects, fitness
and migration matrices.

The worked-patch constants are checked against an independently coded
substitution oracle (exact rational arithmetic). The fitness matrix is
additionally checked against a numerical projection of the full dynamics
onto its slow manifold, which is the ground truth the closed form must
reproduce.
"""

from fractions import Fraction

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, FrequencyState,
                        FullModel, PatchParams, ScaleParams,
                        StrainPerturbations, SubcriticalPatch, drift_matrix,
                        fitness_matrix, fitness_structure, init_on_manifold,
                        left_eigenvector, migration_matrix,
                        neutral_equilibrium, rhs_full, speed_and_weights)
from straingrid.reduction import build_background

from conftest import random_supercritical_patch


# ------------------------------------------------------------ equilibria

def exact_equilibrium(r, beta, gamma, k):
    """Substitution oracle in exact rational arithmetic."""
    r, beta, gamma, k = map(Fraction, (r, beta, gamma, k))
    S = (r + gamma) / beta
    T = 1 - S
    I = beta * T * S / (r + gamma + k * beta * T)
    D = k * beta * T * I / (r + gamma)
    return S, I, D, T


def test_worked_patch_equilibrium(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    assert eq.S_star == pytest.approx(0.5, abs=1e-15)
    assert eq.I_star == pytest.approx(0.25, abs=1e-15)
    assert eq.D_star == pytest.approx(0.25, abs=1e-15)
    assert eq.T_star == pytest.approx(0.5, abs=1e-15)


def test_second_patch_equilibrium(second_patch):
    eq = neutral_equilibrium(second_patch)
    assert eq.S_star == pytest.approx(0.5, abs=1e-15)
    assert eq.I_star == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert eq.D_star == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_subcritical_patch_rejected():
    with pytest.raises(SubcriticalPatch):
        neutral_equilibrium(PatchParams(r=1.0, beta=2.0, gamma=1.0, k=1.0))


def test_equilibrium_against_rational_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_supercritical_patch(rng)
        eq = neutral_equilibrium(p)
        S, I, D, T = exact_equilibrium(p.r, p.beta, p.gamma, p.k)
        assert eq.S_star == pytest.approx(float(S), rel=1e-13)
        assert eq.I_star == pytest.approx(float(I), rel=1e-13)
        assert eq.D_star == pytest.approx(float(D), rel=1e-13)
        assert eq.S_star + eq.I_star + eq.D_star == pytest.approx(1.0, abs=1e-13)


def test_k_zero_degenerates_cleanly():
    p = PatchParams(r=1.0, beta=4.0, gamma=1.0, k=0.0)
    eq = neutral_equilibrium(p)
    assert eq.D_star == 0.0
    assert eq.S_star + eq.I_star == pytest.approx(1.0, abs=1e-15)
    om = left_eigenvector(eq)
    assert om.phi * eq.I_star == pytest.approx(1.0, abs=1e-14)
    Theta, theta = speed_and_weights(eq, p)
    assert Theta > 0
    assert theta.sum() == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------- drift and eigenvector

def test_worked_drift_matrix(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    A = drift_matrix(eq, worked_patch)
    assert np.allclose(A, [[-2.0, 2.0], [1.5, -1.5]], atol=1e-15)
    assert np.trace(A) == pytest.approx(-3.5, abs=1e-15)
    assert np.max(np.abs(A @ eq.X_star)) < 1e-15


def test_worked_left_eigenvector(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    om = left_eigenvector(eq)
    assert om.phi == pytest.approx(12.0 / 7.0, abs=1e-15)
    assert om.psi == pytest.approx(16.0 / 7.0, abs=1e-15)
    assert om.omega @ eq.X_star == pytest.approx(1.0, abs=1e-15)


def test_spectral_identities_random_patches():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_supercritical_patch(rng)
        eq = neutral_equilibrium(p)
        A = drift_matrix(eq, p)
        om = left_eigenvector(eq)
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A @ eq.X_star)) < 1e-13 * scale
        assert np.max(np.abs(om.omega @ A)) < 1e-13 * scale * np.max(om.omega)
        assert om.omega @ eq.X_star == pytest.approx(1.0, abs=1e-14)
        assert np.trace(A) < 0


def test_eigenvector_matches_numerical_kernel():
    """Cross-check of the closed form against an SVD left-kernel solve."""
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = random_supercritical_patch(rng)
        if p.k == 0:
            continue
        eq = neutral_equilibrium(p)
        A = drift_matrix(eq, p)
        _, s, vt = np.linalg.svd(A.T)
        assert s[-1] < 1e-12 * s[0]
        w = vt[-1]
        w = w / (w @ eq.X_star)
        assert np.allclose(w, left_eigenvector(eq).omega, rtol=1e-10)


# -------------------------------------------------- speeds and weights

def test_worked_speed_and_weights(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    Theta, theta = speed_and_weights(eq, worked_patch)
    assert Theta == pytest.approx(37.0 / 7.0, abs=1e-14)
    assert np.allclose(theta, np.array([16.0, 3.0, 2.0, 8.0, 8.0]) / 37.0,
                       atol=1e-15)


def test_weights_normalized_and_positive():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = random_supercritical_patch(rng)
        Theta, theta = speed_and_weights(neutral_equilibrium(p), p)
        assert Theta > 0
        assert theta.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(theta >= 0)


# --------------------------------------------------------- fitness matrix

def test_fitness_zero_perturbations(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    _, theta = speed_and_weights(eq, worked_patch)
    lam = fitness_matrix(eq, worked_patch, StrainPerturbations.zeros(1, 3),
                         theta, 0)
    assert np.array_equal(lam, np.zeros((3, 3)))


def test_fitness_diagonal_zero_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_supercritical_patch(rng)
        eq = neutral_equilibrium(p)
        _, theta = speed_and_weights(eq, p)
        N = int(rng.integers(2, 5))
        pert = StrainPerturbations(
            b=rng.normal(size=(1, N)), nu=rng.normal(size=(1, N)),
            c_pair=rng.normal(size=(1, N, N)), w=rng.normal(size=(1, N, N)),
            alpha=rng.normal(size=(1, N, N)))
        lam = fitness_matrix(eq, p, pert, theta, 0)
        assert np.max(np.abs(np.diag(lam))) < 1e-14


def test_fitness_antisymmetric_channels(worked_patch):
    """Transmission, single-clearance and transmission-probability
    deviations each contribute an antisymmetric part."""
    rng = np.random.default_rng(37)
    eq = neutral_equilibrium(worked_patch)
    _, theta = speed_and_weights(eq, worked_patch)
    N = 3
    zeros = StrainPerturbations.zeros(1, N)
    channels = {
        "b": rng.normal(size=(1, N)),
        "nu": rng.normal(size=(1, N)),
        "w": rng.normal(size=(1, N, N)),
    }
    for name, value in channels.items():
        fields = {f: getattr(zeros, f) for f in ("b", "nu", "c_pair", "w", "alpha")}
        fields[name] = value
        lam = fitness_matrix(eq, worked_patch, StrainPerturbations(**fields),
                             theta, 0)
        if name == "b":
            # the transmission deviation also feeds the co-colonization
            # channel; the combined contribution is still antisymmetric
            pass
        assert np.max(np.abs(lam + lam.T)) < 1e-13


def test_fitness_bad_weights_shape(worked_patch):
    eq = neutral_equilibrium(worked_patch)
    with pytest.raises(ConfigError):
        fitness_matrix(eq, worked_patch, StrainPerturbations.zeros(1, 2),
                       np.zeros(4), 0)


def _slow_rate_oracle(patch, pert, zvec):
    """True slow frequency dynamics of the full single-patch system.

    Projects the first eps-derivative of the vector field onto the left
    kernel of the neutral Jacobian at the manifold point, i.e. the
    leading-order reduced dynamics, entirely independent of the closed
    forms under test.
    """
    N = len(zvec)
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))

    m0 = FullModel(patches=(patch,), pert=StrainPerturbations.zeros(1, N),
                   scale=ScaleParams(eps=0.0, d=0.0), connectivity=conn)

    def manifold(z):
        return init_on_manifold(FrequencyState(z=np.array([z])),
                                m0.background).ravel()

    h = 1e-6
    mp = FullModel(patches=(patch,), pert=pert,
                   scale=ScaleParams(eps=h, d=0.0), connectivity=conn)
    y = manifold(np.asarray(zvec))
    F1 = (rhs_full(0.0, y, mp) - rhs_full(0.0, y, m0)) / h

    n = y.size
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-7
        A[:, j] = (rhs_full(0.0, y + e, m0) - rhs_full(0.0, y - e, m0)) / 2e-7

    tangents = []
    for i in range(1, N):
        dz = np.zeros(N)
        dz[0], dz[i] = 1e-6, -1e-6
        tangents.append((manifold(zvec + dz) - manifold(zvec - dz)) / 2e-6)
    _, _, vt = np.linalg.svd(A.T)
    W = vt[-(N - 1):, :]
    T = np.array(tangents).T
    coef = np.linalg.solve(W @ T, W @ F1)
    dz = np.zeros(N)
    for idx, c in enumerate(coef, start=1):
        dz[0] += c
        dz[idx] -= c
    return dz


def test_fitness_matches_slow_manifold_projection():
    """The closed-form replicator rates equal the projected slow dynamics
    of the full system, for random patches, N in {2, 3}, all five trait
    channels active."""
    rng = np.random.default_rng(42)
    for _ in range(8):
        patch = random_supercritical_patch(rng)
        N = int(rng.integers(2, 4))
        pert = StrainPerturbations(
            b=rng.normal(size=(1, N)), nu=rng.normal(size=(1, N)),
            c_pair=rng.normal(size=(1, N, N)), w=rng.normal(size=(1, N, N)),
            alpha=rng.normal(size=(1, N, N)))
        z = rng.dirichlet(np.ones(N) * 3)

        fs = fitness_structure(neutral_equilibrium(patch), patch, pert, 0)
        Az = fs.Lambda @ z
        predicted = fs.Theta * z * (Az - z @ Az)
        oracle = _slow_rate_oracle(patch, pert, z)
        assert np.max(np.abs(predicted - oracle)) < 1e-5


def test_fitness_worked_transmission_pair(worked_patch):
    """Two strains differing only in transmission on the worked patch:
    the invasion rate at any z equals 5/14 (verified against the
    projection oracle and direct full-system simulation)."""
    eq = neutral_equilibrium(worked_patch)
    fs = fitness_structure(
        eq, worked_patch,
        StrainPerturbations(b=np.array([[1.0, 0.0]]), nu=np.zeros((1, 2)),
                            c_pair=np.zeros((1, 2, 2)), w=np.zeros((1, 2, 2)),
                            alpha=np.zeros((1, 2, 2))), 0)
    assert fs.Lambda[0, 1] == pytest.approx(2.5 / 37.0, abs=1e-14)
    assert fs.Lambda[1, 0] == pytest.approx(-2.5 / 37.0, abs=1e-14)
    # the z-independent logistic rate Theta * lambda12
    assert fs.Theta * fs.Lambda[0, 1] == pytest.approx(5.0 / 14.0, abs=1e-13)


# -------------------------------------------------------- migration matrix

def test_homogeneous_migration_collapses(worked_patch):
    conn = ConnectivityMatrix(entries=np.array([
        [-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
    eqs = [neutral_equilibrium(worked_patch)] * 3
    omegas = [left_eigenvector(eq) for eq in eqs]
    mig = migration_matrix(conn, eqs, omegas)
    assert np.max(np.abs(mig.entries - conn.entries)) < 1e-12
    assert np.max(np.abs(mig.advection)) < 1e-12


def test_heterogeneous_two_patch_hand_values(worked_patch, second_patch,
                                             two_patch_conn):
    eqs = [neutral_equilibrium(worked_patch), neutral_equilibrium(second_patch)]
    omegas = [left_eigenvector(eq) for eq in eqs]
    mig = migration_matrix(two_patch_conn, eqs, omegas)
    assert mig.entries[0, 1] == pytest.approx(22.0 / 21.0, abs=1e-14)
    assert mig.entries[0, 0] == pytest.approx(-22.0 / 21.0, abs=1e-14)
    assert mig.advection[0, 1] == pytest.approx(1.0 / 21.0, abs=1e-14)
    # decomposition m_pk = d_pk * (1 + nu_pk)
    assert mig.entries[0, 1] == pytest.approx(
        two_patch_conn.entries[0, 1] * (1.0 + mig.advection[0, 1]), abs=1e-14)


def test_migration_row_sums_and_metzler_random():
    rng = np.random.default_rng(53)
    for _ in range(20):
        P = int(rng.integers(2, 5))
        entries = rng.uniform(0.1, 2.0, size=(P, P))
        np.fill_diagonal(entries, 0.0)
        np.fill_diagonal(entries, -entries.sum(axis=1))
        conn = ConnectivityMatrix(entries=entries)
        eqs = [neutral_equilibrium(random_supercritical_patch(rng))
               for _ in range(P)]
        omegas = [left_eigenvector(eq) for eq in eqs]
        mig = migration_matrix(conn, eqs, omegas)
        off = mig.entries - np.diag(np.diag(mig.entries))
        assert np.all(off >= 0)
        assert np.max(np.abs(mig.entries.sum(axis=1))) < 1e-12


def test_migration_length_mismatch(worked_patch, two_patch_conn):
    eq = neutral_equilibrium(worked_patch)
    with pytest.raises(ConfigError):
        migration_matrix(two_patch_conn, [eq], [left_eigenvector(eq)])


# ------------------------------------------------------------- background

def test_background_stacks_the_per_patch_forms():
    """The stacked record holds exactly what the per-patch closed forms
    return, patch by patch."""
    rng = np.random.default_rng(59)
    P, N = 4, 3
    patches = tuple(random_supercritical_patch(rng) for _ in range(P))
    pert = StrainPerturbations(
        b=rng.normal(size=(P, N)), nu=rng.normal(size=(P, N)),
        c_pair=rng.normal(size=(P, N, N)), w=rng.normal(size=(P, N, N)),
        alpha=rng.normal(size=(P, N, N)))
    entries = rng.uniform(0.1, 2.0, size=(P, P))
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, -entries.sum(axis=1))
    conn = ConnectivityMatrix(entries=entries)
    bg = build_background(patches, pert, conn)

    eqs = [neutral_equilibrium(p) for p in patches]
    omegas = [left_eigenvector(eq) for eq in eqs]
    for i, (eq, om, patch) in enumerate(zip(eqs, omegas, patches)):
        fs = fitness_structure(eq, patch, pert, i)
        assert (bg.S_star[i], bg.I_star[i], bg.D_star[i], bg.T_star[i]) \
            == (eq.S_star, eq.I_star, eq.D_star, eq.T_star)
        assert (bg.phi[i], bg.psi[i]) == (om.phi, om.psi)
        assert np.array_equal(bg.drift[i], drift_matrix(eq, patch))
        assert bg.Theta[i] == fs.Theta
        assert np.array_equal(bg.theta[i], fs.theta)
        assert np.array_equal(bg.Lambdas[i], fs.Lambda)
    mig = migration_matrix(conn, eqs, omegas)
    assert np.array_equal(bg.migration.entries, mig.entries)
    assert np.array_equal(bg.migration.advection, mig.advection)
    assert not bg.S_star.flags.writeable


def test_background_rejects_subcritical_patch(worked_patch):
    patches = (worked_patch, PatchParams(r=1.0, beta=2.0, gamma=1.0, k=1.0))
    conn = ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(SubcriticalPatch):
        build_background(patches, StrainPerturbations.zeros(2, 2), conn)
