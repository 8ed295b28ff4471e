"""Closed-form reduction objects: equilibria, spectral objects, fitness
and migration matrices.

Every form is evaluated over all patches at once; single-patch checks are
the case P = 1, and random-patch checks stack their patches in one call.
The worked-patch constants are checked against an independently coded
substitution oracle (exact rational arithmetic). The fitness matrix is
additionally checked against a numerical projection of the full dynamics
onto its slow manifold, which is the ground truth the closed form must
reproduce.
"""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, FullModel,
                        StrainPerturbations, SubcriticalPatch, drift_matrix,
                        fitness_matrix, fitness_structure, init_on_manifold,
                        left_eigenvector, migration_matrix, neutral_equilibrium,
                        rhs_full, setup_from_model, speed_and_weights)
from straingrid.reduction import build_background

from conftest import random_supercritical_patch, stacked


def forms(*patches):
    """(rates, eq) of the patches, stacked in patch order."""
    rates = stacked(*patches)
    return rates, neutral_equilibrium(rates)


def kernel_vectors(eq):
    """X_p* = (I_p*, D_p*), one row per patch."""
    _, I, D, _ = eq
    return np.stack([I, D], axis=1)


def random_pert(rng, P, N):
    return StrainPerturbations(
        b=rng.normal(size=(P, N)), nu=rng.normal(size=(P, N)),
        c_pair=rng.normal(size=(P, N, N)), w=rng.normal(size=(P, N, N)),
        alpha=rng.normal(size=(P, N, N)))


def patch_slice(pert, p):
    """The deviations of patch p alone (P = 1)."""
    return StrainPerturbations(*(getattr(pert, f)[p:p + 1]
                                 for f in ("b", "nu", "c_pair", "w", "alpha")))


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
    S, I, D, T = forms(worked_patch)[1]
    assert S[0] == pytest.approx(0.5, abs=1e-15)
    assert I[0] == pytest.approx(0.25, abs=1e-15)
    assert D[0] == pytest.approx(0.25, abs=1e-15)
    assert T[0] == pytest.approx(0.5, abs=1e-15)


def test_second_patch_equilibrium(second_patch):
    S, I, D, _ = forms(second_patch)[1]
    assert S[0] == pytest.approx(0.5, abs=1e-15)
    assert I[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert D[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_subcritical_patch_rejected(worked_patch):
    sub = (1.0, 2.0, 1.0, 1.0)
    with pytest.raises(SubcriticalPatch):
        forms(sub)
    with pytest.raises(SubcriticalPatch, match=r"^patch 1: beta=2.0 <= r\+gamma=2.0"):
        forms(worked_patch, sub, sub)


def test_equilibrium_against_rational_oracle():
    rng = np.random.default_rng(3)
    patches = [random_supercritical_patch(rng) for _ in range(50)]
    eq = forms(*patches)[1]
    for p, (S_p, I_p, D_p, _) in zip(patches, np.column_stack(eq)):
        S, I, D, T = exact_equilibrium(*p)
        assert S_p == pytest.approx(float(S), rel=1e-13)
        assert I_p == pytest.approx(float(I), rel=1e-13)
        assert D_p == pytest.approx(float(D), rel=1e-13)
        assert S_p + I_p + D_p == pytest.approx(1.0, abs=1e-13)


def test_k_zero_degenerates_cleanly():
    rates, eq = forms((1.0, 4.0, 1.0, 0.0))
    S, I, D, _ = eq
    assert D[0] == 0.0
    assert S[0] + I[0] == pytest.approx(1.0, abs=1e-15)
    phi, _ = left_eigenvector(eq)
    assert phi[0] * I[0] == pytest.approx(1.0, abs=1e-14)
    Theta, theta = speed_and_weights(rates, eq)
    assert Theta[0] > 0
    assert theta[0].sum() == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------- drift and eigenvector

def test_worked_drift_matrix(worked_patch):
    rates, eq = forms(worked_patch)
    A = drift_matrix(rates, eq)
    assert A.shape == (1, 2, 2)
    A = A[0]
    assert np.allclose(A, [[-2.0, 2.0], [1.5, -1.5]], atol=1e-15)
    assert np.trace(A) == pytest.approx(-3.5, abs=1e-15)
    assert np.max(np.abs(A @ kernel_vectors(eq)[0])) < 1e-15


def test_worked_left_eigenvector(worked_patch):
    eq = forms(worked_patch)[1]
    phi, psi = left_eigenvector(eq)
    assert phi[0] == pytest.approx(12.0 / 7.0, abs=1e-15)
    assert psi[0] == pytest.approx(16.0 / 7.0, abs=1e-15)
    assert np.array([phi[0], psi[0]]) @ kernel_vectors(eq)[0] == pytest.approx(1.0, abs=1e-15)


def test_spectral_identities_random_patches():
    rng = np.random.default_rng(11)
    rates, eq = forms(*(random_supercritical_patch(rng) for _ in range(100)))
    omegas = np.stack(left_eigenvector(eq), axis=1)
    for A, X, om in zip(drift_matrix(rates, eq), kernel_vectors(eq), omegas):
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A @ X)) < 1e-13 * scale
        assert np.max(np.abs(om @ A)) < 1e-13 * scale * np.max(om)
        assert om @ X == pytest.approx(1.0, abs=1e-14)
        assert np.trace(A) < 0


def test_eigenvector_matches_numerical_kernel():
    """Cross-check of the closed form against an SVD left-kernel solve."""
    rng = np.random.default_rng(23)
    rates, eq = forms(*(random_supercritical_patch(rng) for _ in range(30)))
    omegas = np.stack(left_eigenvector(eq), axis=1)
    for k, A, X, om in zip(rates[3], drift_matrix(rates, eq), kernel_vectors(eq), omegas):
        if k == 0:
            continue
        _, s, vt = np.linalg.svd(A.T)
        assert s[-1] < 1e-12 * s[0]
        w = vt[-1]
        w = w / (w @ X)
        assert np.allclose(w, om, rtol=1e-10)


# -------------------------------------------------- speeds and weights

def test_worked_speed_and_weights(worked_patch):
    Theta, theta = speed_and_weights(*forms(worked_patch))
    assert Theta.shape == (1,) and theta.shape == (1, 5)
    assert Theta[0] == pytest.approx(37.0 / 7.0, abs=1e-14)
    assert np.allclose(theta[0], np.array([16.0, 3.0, 2.0, 8.0, 8.0]) / 37.0,
                       atol=1e-15)


def test_weights_normalized_and_positive():
    rng = np.random.default_rng(29)
    Theta, theta = speed_and_weights(
        *forms(*(random_supercritical_patch(rng) for _ in range(100))))
    for Theta_p, theta_p in zip(Theta, theta):
        assert Theta_p > 0
        assert theta_p.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(theta_p >= 0)


# --------------------------------------------------------- fitness matrix

def test_fitness_zero_perturbations(worked_patch):
    rates, eq = forms(worked_patch)
    _, theta = speed_and_weights(rates, eq)
    lam = fitness_matrix(rates, eq, StrainPerturbations.zeros(1, 3), theta)
    assert np.array_equal(lam, np.zeros((1, 3, 3)))


def test_fitness_diagonal_zero_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rates, eq = forms(random_supercritical_patch(rng))
        _, theta = speed_and_weights(rates, eq)
        N = int(rng.integers(2, 5))
        lam = fitness_matrix(rates, eq, random_pert(rng, 1, N), theta)[0]
        assert np.max(np.abs(np.diag(lam))) < 1e-14


def test_fitness_antisymmetric_channels(worked_patch):
    """Transmission, single-clearance and transmission-probability
    deviations each contribute an antisymmetric part."""
    rng = np.random.default_rng(37)
    rates, eq = forms(worked_patch)
    _, theta = speed_and_weights(rates, eq)
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
        lam = fitness_matrix(rates, eq, StrainPerturbations(**fields), theta)[0]
        # the transmission deviation also feeds the co-colonization
        # channel; the combined contribution is still antisymmetric
        assert np.max(np.abs(lam + lam.T)) < 1e-13


def test_fitness_bad_weights_shape(worked_patch):
    rates, eq = forms(worked_patch)
    for theta in (np.zeros((1, 4)), np.zeros(5), np.zeros((2, 5))):
        with pytest.raises(ConfigError):
            fitness_matrix(rates, eq, StrainPerturbations.zeros(1, 2), theta)


def test_fitness_without_clearance_has_no_clearance_channels(worked_patch):
    """A gamma = 0 patch stacked with a gamma > 0 one: its clearance
    deviations drop out, without a division warning, and each row equals
    its single-patch evaluation."""
    rng = np.random.default_rng(41)
    no_clearance = (1.0, 4.0, 0.0, 1.0)
    pert = random_pert(rng, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, theta, lam = fitness_structure(*forms(no_clearance, worked_patch), pert)
    assert theta[0, 1] == theta[0, 2] == 0.0
    kept = StrainPerturbations(b=pert.b[:1], nu=np.zeros((1, 3)), c_pair=np.zeros((1, 3, 3)),
                               w=pert.w[:1], alpha=pert.alpha[:1])
    assert np.array_equal(lam[0], fitness_structure(*forms(no_clearance), kept)[2][0])
    assert np.array_equal(lam[1], fitness_structure(*forms(worked_patch), patch_slice(pert, 1))[2][0])


def _slow_rate_oracle(patch, pert, zvec):
    """True slow frequency dynamics of the full single-patch system.

    Projects the first eps-derivative of the vector field onto the left
    kernel of the neutral Jacobian at the manifold point, i.e. the
    leading-order reduced dynamics, entirely independent of the closed
    forms under test.
    """
    N = len(zvec)
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))

    m0 = FullModel(*stacked(patch), pert=StrainPerturbations.zeros(1, N), eps=0.0, d=0.0,
                   connectivity=conn)

    def manifold(z):
        return init_on_manifold(np.array([z]), m0.background)

    h = 1e-6
    mp = FullModel(*stacked(patch), pert=pert, eps=h, d=0.0, connectivity=conn)
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
        pert = random_pert(rng, 1, N)
        z = rng.dirichlet(np.ones(N) * 3)

        Theta, _, lam = fitness_structure(*forms(patch), pert)
        Az = lam[0] @ z
        predicted = Theta[0] * z * (Az - z @ Az)
        oracle = _slow_rate_oracle(patch, pert, z)
        assert np.max(np.abs(predicted - oracle)) < 1e-5


def test_fitness_worked_transmission_pair(worked_patch):
    """Two strains differing only in transmission on the worked patch:
    the invasion rate at any z equals 5/14 (verified against the
    projection oracle and direct full-system simulation)."""
    Theta, _, lam = fitness_structure(
        *forms(worked_patch),
        StrainPerturbations(b=np.array([[1.0, 0.0]]), nu=np.zeros((1, 2)),
                            c_pair=np.zeros((1, 2, 2)), w=np.zeros((1, 2, 2)),
                            alpha=np.zeros((1, 2, 2))))
    assert lam[0, 0, 1] == pytest.approx(2.5 / 37.0, abs=1e-14)
    assert lam[0, 1, 0] == pytest.approx(-2.5 / 37.0, abs=1e-14)
    # the z-independent logistic rate Theta * lambda12
    assert Theta[0] * lam[0, 0, 1] == pytest.approx(5.0 / 14.0, abs=1e-13)


# -------------------------------------------------------- migration matrix

def migration_of(conn, *patches):
    eq = forms(*patches)[1]
    return migration_matrix(conn, eq, left_eigenvector(eq))


def test_homogeneous_migration_collapses(worked_patch):
    conn = ConnectivityMatrix(entries=np.array([
        [-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
    M, nu = migration_of(conn, worked_patch, worked_patch, worked_patch)
    assert np.max(np.abs(M - conn.entries)) < 1e-12
    assert np.max(np.abs(nu)) < 1e-12


def test_heterogeneous_two_patch_hand_values(worked_patch, second_patch,
                                             two_patch_conn):
    M, nu = migration_of(two_patch_conn, worked_patch, second_patch)
    assert M.shape == nu.shape == (2, 2)
    assert M[0, 1] == pytest.approx(22.0 / 21.0, abs=1e-14)
    assert M[0, 0] == pytest.approx(-22.0 / 21.0, abs=1e-14)
    assert nu[0, 1] == pytest.approx(1.0 / 21.0, abs=1e-14)
    # decomposition m_pk = d_pk * (1 + nu_pk)
    assert M[0, 1] == pytest.approx(
        two_patch_conn.entries[0, 1] * (1.0 + nu[0, 1]), abs=1e-14)


def test_migration_row_sums_and_metzler_random():
    rng = np.random.default_rng(53)
    for _ in range(20):
        P = int(rng.integers(2, 5))
        entries = rng.uniform(0.1, 2.0, size=(P, P))
        np.fill_diagonal(entries, 0.0)
        np.fill_diagonal(entries, -entries.sum(axis=1))
        conn = ConnectivityMatrix(entries=entries)
        M, _ = migration_of(conn, *(random_supercritical_patch(rng) for _ in range(P)))
        off = M - np.diag(np.diag(M))
        assert np.all(off >= 0)
        assert np.max(np.abs(M.sum(axis=1))) < 1e-12


def test_migration_length_mismatch(worked_patch, two_patch_conn):
    with pytest.raises(ConfigError):
        migration_of(two_patch_conn, worked_patch)


# ------------------------------------------------------------- background

def test_background_stacks_the_per_patch_forms():
    """Row p of the stacked record is, bit for bit, what the closed forms
    return for patch p alone (P = 1)."""
    rng = np.random.default_rng(59)
    P, N = 4, 3
    patches = tuple(random_supercritical_patch(rng) for _ in range(P))
    pert = random_pert(rng, P, N)
    entries = rng.uniform(0.1, 2.0, size=(P, P))
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, -entries.sum(axis=1))
    conn = ConnectivityMatrix(entries=entries)
    bg = build_background(stacked(*patches), pert, conn)

    for p, patch in enumerate(patches):
        rates, eq = forms(patch)
        Theta, theta, lam = fitness_structure(rates, eq, patch_slice(pert, p))
        expected = (*eq, *left_eigenvector(eq), drift_matrix(rates, eq), Theta, theta, lam)
        arrays = (bg.S_star, bg.I_star, bg.D_star, bg.T_star, bg.phi, bg.psi,
                   bg.drift, bg.Theta, bg.theta, bg.Lambdas)
        for got, want in zip(arrays, expected):
            assert got[p].tobytes() == want[0].tobytes()
    eq = forms(*patches)[1]
    M, nu = migration_matrix(conn, eq, left_eigenvector(eq))
    assert np.array_equal(bg.migration, M)
    assert np.array_equal(bg.advection, nu)
    assert not any(a.flags.writeable for a in arrays)


def test_background_and_setup_arrays_are_read_only(worked_patch, second_patch,
                                                  two_patch_conn):
    """The background is shared by every eps of a model: no field, the
    migration matrix and the advection included, can be written."""
    model = FullModel(*stacked(worked_patch, second_patch),
                      pert=StrainPerturbations.zeros(2, 2), eps=0.05, d=1.0,
                      connectivity=two_patch_conn)
    bg = model.background
    for field in dataclasses.fields(bg):
        assert not getattr(bg, field.name).flags.writeable, field.name
    setup = setup_from_model(model)
    assert setup.migration is bg.migration
    with pytest.raises(ValueError, match="read-only"):
        setup.migration[0, 1] = 0.0


def test_background_rejects_subcritical_patch(worked_patch):
    rates = stacked(worked_patch, (1.0, 2.0, 1.0, 1.0))
    conn = ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(SubcriticalPatch, match="^patch 1: "):
        build_background(rates, StrainPerturbations.zeros(2, 2), conn)
