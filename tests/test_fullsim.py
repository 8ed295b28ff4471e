"""Full co-colonization system: right-hand side identities, manifold
initialization, frequency extraction and simulation behavior."""

from dataclasses import fields, replace

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, ExtinctPatch,
                        FullModel, IntegratorConfig, PatchParams, ScaleParams,
                        StrainPerturbations, extract_frequencies, full_state,
                        init_on_manifold, neutral_equilibrium, patch_rates,
                        rhs_full, simulate_full, transmissible_load)
from straingrid.types import full_views

from conftest import random_supercritical_patch
from oracles import manifold_state

ONE_PATCH = ConnectivityMatrix(entries=np.zeros((1, 1)))


def neutral_model(patches, N, d=0.0, eps=0.0, conn=None):
    P = len(patches)
    if conn is None:
        conn = ONE_PATCH if P == 1 else ConnectivityMatrix(
            entries=np.ones((P, P)) - P * np.eye(P))
    return FullModel(patches=tuple(patches),
                     pert=StrainPerturbations.zeros(P, N),
                     scale=ScaleParams(eps=eps, d=d), connectivity=conn)


def random_model(rng, P, N, eps):
    patches = tuple(random_supercritical_patch(rng) for _ in range(P))
    pert = StrainPerturbations(
        b=rng.normal(size=(P, N)), nu=rng.normal(size=(P, N)),
        c_pair=rng.normal(size=(P, N, N)), w=rng.normal(size=(P, N, N)),
        alpha=rng.normal(size=(P, N, N)))
    conn = ONE_PATCH if P == 1 else ConnectivityMatrix(
        entries=np.ones((P, P)) - P * np.eye(P))
    return FullModel(patches=patches, pert=pert,
                     scale=ScaleParams(eps=eps, d=1.0), connectivity=conn)


def random_state(rng, P, N):
    """Random interior flat state with unit patch mass."""
    S = rng.uniform(0.2, 0.5, size=P)
    I = rng.uniform(0.1, 1.0, size=(P, N))
    D = rng.uniform(0.1, 1.0, size=(P, N, N))
    rest = 1.0 - S
    scale = rest / (I.sum(axis=1) + D.sum(axis=(1, 2)))
    return full_state(S, I * scale[:, None], D * scale[:, None, None])


# ----------------------------------------------------------- model assembly

def test_model_assembles_strain_rates(worked_patch):
    pert = StrainPerturbations(
        b=np.array([[1.0, -0.5]]), nu=np.array([[0.2, 0.0]]),
        c_pair=np.full((1, 2, 2), 0.3), w=np.full((1, 2, 2), 0.1),
        alpha=np.full((1, 2, 2), -0.2))
    model = FullModel(patches=(worked_patch,), pert=pert,
                      scale=ScaleParams(eps=0.1, d=0.0), connectivity=ONE_PATCH)
    assert np.allclose(model.beta_i, [[4.1, 3.95]])
    assert np.allclose(model.gamma_i, [[1.02, 1.0]])
    assert np.allclose(model.gamma_ij, 1.03)
    assert np.allclose(model.k_ij, 0.98)
    assert np.allclose(model.prob_first, 0.51)


def test_model_rejects_inadmissible_rates(worked_patch):
    pert = StrainPerturbations(
        b=np.array([[-10.0]]), nu=np.zeros((1, 1)), c_pair=np.zeros((1, 1, 1)),
        w=np.zeros((1, 1, 1)), alpha=np.zeros((1, 1, 1)))
    with pytest.raises(ConfigError):
        FullModel(patches=(worked_patch,), pert=pert,
                  scale=ScaleParams(eps=1.0, d=0.0), connectivity=ONE_PATCH)
    wpert = StrainPerturbations(
        b=np.zeros((1, 1)), nu=np.zeros((1, 1)), c_pair=np.zeros((1, 1, 1)),
        w=np.full((1, 1, 1), 10.0), alpha=np.zeros((1, 1, 1)))
    with pytest.raises(ConfigError):
        FullModel(patches=(worked_patch,), pert=wpert,
                  scale=ScaleParams(eps=0.2, d=0.0), connectivity=ONE_PATCH)


def test_with_eps_preserves_structure(worked_patch):
    model = neutral_model([worked_patch], N=2, eps=0.1, d=2.0)
    other = model.with_eps(0.05)
    assert other.scale.eps == 0.05
    assert other.scale.d == 2.0
    assert other.patches == model.patches
    assert "background" not in other.__dict__      # with_eps builds none
    bg = model.background
    rebuilt = model.with_eps(0.02).background
    for field in fields(bg):
        np.testing.assert_array_equal(getattr(rebuilt, field.name), getattr(bg, field.name))


def test_with_eps_does_not_build_the_background(worked_patch):
    """A subcritical patch has no background; with_eps alone must not ask
    for one."""
    subcritical = PatchParams(r=1.0, beta=1.5, gamma=1.0, k=1.0)
    model = neutral_model([worked_patch, subcritical], N=2, eps=0.1)
    assert model.with_eps(0.05).scale.eps == 0.05


def test_model_arrays_stay_out_of_init_eq_and_repr(worked_patch):
    model = neutral_model([worked_patch], N=2, eps=0.1)
    assert np.array_equal(model.r, [1.0])
    assert "beta_i" not in repr(model) and "background" not in repr(model)
    with pytest.raises(TypeError):
        FullModel(patches=model.patches, pert=model.pert, scale=model.scale,
                  connectivity=model.connectivity, r=model.r)


# ------------------------------------------------------------- rhs identities

def test_disease_free_state_stationary(worked_patch, second_patch):
    model = neutral_model([worked_patch, second_patch], N=2, d=1.0, eps=0.0)
    deriv = rhs_full(0.0, full_state(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2, 2))), model)
    assert np.max(np.abs(deriv)) < 1e-15


def test_neutral_manifold_stationary(worked_patch, second_patch):
    rng = np.random.default_rng(5)
    model = neutral_model([worked_patch, second_patch], N=3, d=0.0, eps=0.0)
    z = rng.dirichlet(np.ones(3), size=2)
    deriv = rhs_full(0.0, init_on_manifold(z, model.background), model)
    assert np.max(np.abs(deriv)) < 1e-14


def test_transmissible_load_neutral_split(worked_patch):
    """With probabilities exactly 1/2, J^i = I^i + the symmetrized pair
    load, and the total load is conserved."""
    rng = np.random.default_rng(9)
    model = neutral_model([worked_patch], N=3, eps=0.0)
    _, I, D = full_views(random_state(rng, 1, 3), 1, 3)
    J = transmissible_load(model, I, D)
    expected = I + 0.5 * (D.sum(axis=2) + D.sum(axis=1))
    assert np.allclose(J, expected, atol=1e-15)
    assert J.sum() == pytest.approx(I.sum() + D.sum(), abs=1e-14)


def test_mass_derivative_identity():
    """The summed right-hand side per patch equals the closed scalar law
    r(1 - mass) + delta * (connectivity @ mass) at any state."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        model = random_model(rng, P=3, N=2, eps=0.03)
        y = random_state(rng, 3, 2)
        dS, dI, dD = full_views(rhs_full(0.0, y, model), 3, 2)
        got = dS + dI.sum(axis=1) + dD.sum(axis=(1, 2))
        S, I, D = full_views(y, 3, 2)
        mass = S + I.sum(axis=1) + D.sum(axis=(1, 2))
        expected = model.r * (1.0 - mass) \
            + model.scale.delta * (model.connectivity.entries @ mass)
        assert np.max(np.abs(got - expected)) < 1e-13


def test_migration_is_one_product_on_the_patch_index(worked_patch, second_patch):
    """The migration part of rhs_full equals delta * (A S, A I, A D)
    taken compartment by compartment."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        pert = StrainPerturbations(
            b=rng.normal(size=(4, 3)), nu=rng.normal(size=(4, 3)),
            c_pair=rng.normal(size=(4, 3, 3)), w=rng.normal(size=(4, 3, 3)),
            alpha=rng.normal(size=(4, 3, 3)))
        model = replace(neutral_model([worked_patch, second_patch] * 2, N=3, d=1.0, eps=0.03),
                        pert=pert)
        local = replace(model, scale=ScaleParams(eps=0.03, d=0.0))
        y = random_state(rng, 4, 3)
        got = full_views(rhs_full(0.0, y, model) - rhs_full(0.0, y, local), 4, 3)
        S, I, D = full_views(y, 4, 3)
        A, delta = model.connectivity.entries, model.scale.delta
        for part, want in zip(got, (A @ S, A @ I, np.einsum("pk,kij->pij", A, D))):
            assert np.max(np.abs(part - delta * want)) < 1e-15


# ------------------------------------------------- manifold init / extraction

def test_init_on_manifold_worked_values(worked_patch):
    bg = neutral_model([worked_patch], N=4).background
    S, I, D = full_views(init_on_manifold(np.full((1, 4), 0.25), bg), 1, 4)
    assert np.allclose(I, 0.25 / 4)
    assert np.allclose(D, 0.25 / 16)
    assert (S + I.sum(axis=1) + D.sum(axis=(1, 2)))[0] == pytest.approx(1.0, abs=1e-15)


def test_init_single_strain_is_endemic_point(worked_patch):
    bg = neutral_model([worked_patch], N=1).background
    S, I, D = full_views(init_on_manifold(np.ones((1, 1)), bg), 1, 1)
    assert S[0] == 0.5
    assert I[0, 0] == 0.25
    assert D[0, 0, 0] == 0.25


def test_init_rejects_off_simplex(worked_patch):
    bg = neutral_model([worked_patch], N=2).background
    with pytest.raises(ConfigError):
        init_on_manifold(np.array([[0.3, 0.6]]), bg)


def test_manifold_state_takes_off_simplex_frequencies(worked_patch):
    """The oracle's unchecked product state, built on extracted frequencies
    that solver noise can push slightly below zero."""
    bg = neutral_model([worked_patch], N=2).background
    z = np.array([[1.0 + 1e-9, -1e-9]])
    _, I, D = full_views(manifold_state(z, bg), 1, 2)
    assert np.array_equal(I, bg.I_star[:, None] * z)
    assert D[0, 0, 1] == bg.D_star[0] * z[0, 0] * z[0, 1]


def test_extract_inverts_init(worked_patch, second_patch):
    rng = np.random.default_rng(17)
    bg = neutral_model([worked_patch, second_patch], N=3).background
    z0 = rng.dirichlet(np.ones(3), size=2)
    z = extract_frequencies(init_on_manifold(z0, bg), bg)
    assert np.max(np.abs(z - z0)) < 1e-14


def test_extract_single_strain_is_one(worked_patch):
    bg = neutral_model([worked_patch], N=1).background
    z = extract_frequencies(full_state([0.9], [[0.05]], [[[0.05]]]), bg)
    assert z[0, 0] == 1.0


def test_extract_rows_sum_to_one(worked_patch):
    rng = np.random.default_rng(19)
    bg = neutral_model([worked_patch] * 2, N=3).background
    for _ in range(20):
        z = extract_frequencies(random_state(rng, 2, 3), bg)
        assert np.max(np.abs(z.sum(axis=1) - 1.0)) < 1e-14


def test_extract_extinct_patch(worked_patch):
    bg = neutral_model([worked_patch], N=2).background
    with pytest.raises(ExtinctPatch):
        extract_frequencies(full_state([1.0], np.zeros((1, 2)), np.zeros((1, 2, 2))), bg)


def test_extract_stack_equals_per_state_extraction(worked_patch, second_patch):
    """One call on a stack of states gives each state's extraction bit for bit."""
    rng = np.random.default_rng(23)
    for P, N in ((2, 3), (3, 30)):
        bg = neutral_model([worked_patch, second_patch, worked_patch][:P], N=N).background
        states = np.array([random_state(rng, P, N) for _ in range(6)]).reshape(2, 3, -1)
        stacked = extract_frequencies(states, bg)
        assert stacked.shape == (2, 3, P, N)
        for a in range(2):
            for b in range(3):
                assert np.array_equal(stacked[a, b], extract_frequencies(states[a, b], bg))


def test_extract_stack_names_the_extinct_patch(worked_patch):
    rng = np.random.default_rng(29)
    bg = neutral_model([worked_patch] * 3, N=2).background
    states = np.array([random_state(rng, 3, 2) for _ in range(4)])
    _, I, D = full_views(states[2], 3, 2)
    I[1], D[1] = 0.0, 0.0
    with pytest.raises(ExtinctPatch, match="patch 1"):
        extract_frequencies(states, bg)


# ------------------------------------------------------------------ dynamics

def test_simulate_full_rejects_wrongly_sized_state(worked_patch):
    model = neutral_model([worked_patch], N=2)
    y0 = init_on_manifold(np.array([[0.3, 0.7]]), model.background)
    cfg = IntegratorConfig(t_end=1.0, monitor_period=0.5)
    for bad in (y0[:-1], np.append(y0, 0.0), y0.reshape(1, -1)):
        with pytest.raises(ConfigError, match="y0 has shape"):
            simulate_full(model, bad, cfg)

def test_single_strain_converges_to_endemic_point(worked_patch):
    rng = np.random.default_rng(21)
    model = neutral_model([worked_patch], N=1, eps=0.0)
    S0 = rng.uniform(0.2, 0.6)
    I0 = rng.uniform(0.05, 0.3)
    D0 = rng.uniform(0.01, min(0.3, 1.0 - S0 - I0))
    y0 = full_state([S0], [[I0]], [[[D0]]])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=200.0,
                           monitor_period=10.0)
    traj = simulate_full(model, y0, cfg)
    S_star, I_star, D_star, _ = neutral_equilibrium(patch_rates([worked_patch]))
    S, I, D = full_views(traj.states[-1], 1, 1)
    assert abs(S[0] - S_star[0]) < 1e-6
    assert abs(I[0, 0] - I_star[0]) < 1e-6
    assert abs(D[0, 0, 0] - D_star[0]) < 1e-6


def test_mass_and_negativity_monitors(worked_patch, second_patch,
                                      two_patch_conn):
    rng = np.random.default_rng(27)
    patches = (worked_patch, second_patch)
    pert = StrainPerturbations(
        b=rng.normal(size=(2, 2)), nu=rng.normal(size=(2, 2)),
        c_pair=rng.normal(size=(2, 2, 2)), w=rng.normal(size=(2, 2, 2)) * 0.3,
        alpha=rng.normal(size=(2, 2, 2)))
    model = FullModel(patches=patches, pert=pert,
                      scale=ScaleParams(eps=0.05, d=1.0),
                      connectivity=two_patch_conn)
    y0 = init_on_manifold(np.array([[0.3, 0.7], [0.6, 0.4]]), model.background)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=100.0,
                           monitor_period=5.0)
    traj = simulate_full(model, y0, cfg)
    assert traj.monitor_max[0] < 100 * (1e-10 + 1e-12)   # mass defect
    # min entry stays essentially nonnegative
    assert float(np.min(traj.states)) > -10 * (1e-10 + 1e-12)


def test_model_parts_sized_for_another_patch_count(worked_patch, second_patch):
    patches = (worked_patch, second_patch)
    conn = ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ConfigError, match="perturbations cover 1 patches, model has 2"):
        FullModel(patches=patches, pert=StrainPerturbations.zeros(1, 2),
                  scale=ScaleParams(eps=0.1, d=1.0), connectivity=conn)
    with pytest.raises(ConfigError, match="connectivity size does not match patch count"):
        FullModel(patches=patches, pert=StrainPerturbations.zeros(2, 2),
                  scale=ScaleParams(eps=0.1, d=1.0), connectivity=ONE_PATCH)


def test_manifold_state_needs_one_row_per_patch(worked_patch):
    bg = neutral_model([worked_patch], 2).background
    with pytest.raises(ConfigError, match="need one equilibrium per patch"):
        init_on_manifold(np.full((2, 2), 0.5), bg)
