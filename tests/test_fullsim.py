"""Full co-colonization system: right-hand side identities, manifold
initialization, frequency extraction and simulation behavior."""

import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import straingrid.fullsim
from straingrid import (ConfigError, ConnectivityMatrix, ExtinctPatch,
                        FullModel, IntegratorConfig, ModelStack, NumericalBlowup,
                        StiffnessFailure, StrainPerturbations, extract_frequencies, full_state,
                        init_on_manifold, neutral_equilibrium, rhs_full, simulate_full,
                        transmissible_load)
from straingrid.connectivity import renormalize_to_density, volume_matrix
from straingrid.fullsim import _TermTable
from straingrid.types import full_views, row_sum_defect

from conftest import random_supercritical_patch, stacked
from oracles import manifold_state, rhs_of

ONE_PATCH = ConnectivityMatrix(entries=np.zeros((1, 1)))


def neutral_model(patches, N, d=0.0, eps=0.0, conn=None):
    P = len(patches)
    if conn is None:
        conn = ONE_PATCH if P == 1 else ConnectivityMatrix(
            entries=np.ones((P, P)) - P * np.eye(P))
    return FullModel(*stacked(*patches), pert=StrainPerturbations.zeros(P, N),
                     eps=eps, d=d, connectivity=conn)


def random_model(rng, P, N, eps):
    patches = tuple(random_supercritical_patch(rng) for _ in range(P))
    pert = StrainPerturbations(
        b=rng.normal(size=(P, N)), nu=rng.normal(size=(P, N)),
        c_pair=rng.normal(size=(P, N, N)), w=rng.normal(size=(P, N, N)),
        alpha=rng.normal(size=(P, N, N)))
    conn = ONE_PATCH if P == 1 else ConnectivityMatrix(
        entries=np.ones((P, P)) - P * np.eye(P))
    return FullModel(*stacked(*patches), pert=pert, eps=eps, d=1.0, connectivity=conn)


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
    model = FullModel(*stacked(worked_patch), pert=pert, eps=0.1, d=0.0,
                      connectivity=ONE_PATCH)
    assert np.allclose(model.beta_i, [[4.1, 3.95]])
    assert np.allclose(model.gamma_i, [[1.02, 1.0]])
    rates = ModelStack([model])
    assert np.allclose(rates.gamma_ij, 1.03)
    assert np.allclose(rates.co_rate, 0.98 * model.beta_i[:, :, None])     # k_ij beta_i
    assert np.allclose(rates.prob_first, 0.51)


def test_model_rejects_inadmissible_rates(worked_patch):
    pert = StrainPerturbations(
        b=np.array([[-10.0]]), nu=np.zeros((1, 1)), c_pair=np.zeros((1, 1, 1)),
        w=np.zeros((1, 1, 1)), alpha=np.zeros((1, 1, 1)))
    with pytest.raises(ConfigError):
        FullModel(*stacked(worked_patch), pert=pert, eps=1.0, d=0.0,
                  connectivity=ONE_PATCH)
    wpert = StrainPerturbations(
        b=np.zeros((1, 1)), nu=np.zeros((1, 1)), c_pair=np.zeros((1, 1, 1)),
        w=np.full((1, 1, 1), 10.0), alpha=np.zeros((1, 1, 1)))
    with pytest.raises(ConfigError):
        FullModel(*stacked(worked_patch), pert=wpert, eps=0.2, d=0.0,
                  connectivity=ONE_PATCH)


RATES_MESSAGE = "assembled strain rates leave the admissible range; reduce eps"
PROB_MESSAGE = "transmission probabilities leave [0,1]; reduce eps or |w|"


def zero_deviations(P, N):
    """Writeable zero trait deviations, keyed by StrainPerturbations field."""
    return {name: np.zeros((P, N) if name in ("b", "nu") else (P, N, N))
            for name in ("b", "nu", "c_pair", "w", "alpha")}


@pytest.mark.parametrize("trait, value, eps, message", [
    ("b", -10.0, 1.0, RATES_MESSAGE),          # beta_i <= 0
    ("nu", -10.0, 1.0, RATES_MESSAGE),         # gamma_i < 0
    ("c_pair", -10.0, 1.0, RATES_MESSAGE),     # gamma_ij < 0
    ("alpha", -10.0, 1.0, RATES_MESSAGE),      # k_ij < 0
    ("w", 10.0, 0.2, PROB_MESSAGE),            # prob_first > 1
    ("w", -10.0, 0.2, PROB_MESSAGE),           # prob_first < 0
])
def test_model_names_each_inadmissible_assembled_rate(worked_patch, two_patch_conn, trait,
                                                     value, eps, message):
    """One deviation of one strain pair, in the second of two patches,
    takes its assembled rate out of range."""
    arrays = zero_deviations(2, 2)
    arrays[trait][(1, 1) if arrays[trait].ndim == 2 else (1, 1, 0)] = value
    with pytest.raises(ConfigError) as info:
        FullModel(*stacked(worked_patch, worked_patch), pert=StrainPerturbations(**arrays),
                  eps=eps, d=0.0, connectivity=two_patch_conn)
    assert str(info.value) == message


def test_admissibility_is_checked_per_patch_and_exactly(worked_patch, two_patch_conn):
    """A rate assembled to exactly 0 is admissible, and one patch's large
    deviation is weighed against its own baseline only."""
    low_gamma = (1.0, 4.0, 0.1, 0.1)
    arrays = zero_deviations(2, 2)
    arrays["c_pair"][0] = -2.0     # gamma + 0.5 * -2 = 0 in patch 0
    arrays["alpha"][0] = -2.0
    arrays["w"][0] = 1.0           # prob_first = 1
    arrays["w"][1, 0, 1] = -1.0    # prob_first = 0
    model = FullModel(*stacked(worked_patch, low_gamma), pert=StrainPerturbations(**arrays),
                      eps=0.5, d=0.0, connectivity=two_patch_conn)
    rates = ModelStack([model])
    assert rates.gamma_ij.min() == 0.0 and rates.co_rate.min() == 0.0     # k_ij = 0
    assert rates.prob_first.min() == 0.0 and rates.prob_first.max() == 1.0


def test_model_names_every_patch_with_inadmissible_rates(worked_patch):
    rates = stacked((0.0, 4.0, 1.0, 1.0), worked_patch, (1.0, 4.0, -1.0, 1.0))
    with pytest.raises(ConfigError) as info:
        FullModel(*rates, pert=StrainPerturbations.zeros(3, 2), eps=0.1, d=0.0,
                  connectivity=ConnectivityMatrix(entries=np.ones((3, 3)) - 3 * np.eye(3)))
    assert str(info.value) == ("patch 0: r and beta must be positive, got r=0.0, beta=4.0; "
                               "patch 2: gamma and k must be nonnegative, got gamma=-1.0, k=1.0")


def test_with_eps_preserves_structure(worked_patch):
    model = neutral_model([worked_patch], N=2, eps=0.1, d=2.0)
    other = model.with_eps(0.05)
    assert other != model
    assert other.eps == 0.05
    assert other.d == 2.0
    for name in ("r", "beta", "gamma", "k"):
        assert np.array_equal(getattr(other, name), getattr(model, name))
    assert "background" not in other.__dict__      # with_eps builds none
    bg = model.background
    rebuilt = model.with_eps(0.02).background
    for field in fields(bg):
        np.testing.assert_array_equal(getattr(rebuilt, field.name), getattr(bg, field.name))


def test_with_eps_does_not_build_the_background(worked_patch):
    """A subcritical patch has no background; with_eps alone must not ask
    for one."""
    subcritical = (1.0, 1.5, 1.0, 1.0)
    model = neutral_model([worked_patch, subcritical], N=2, eps=0.1)
    assert model.with_eps(0.05).eps == 0.05


def test_model_arrays_stay_out_of_init_eq_and_repr(worked_patch):
    model = neutral_model([worked_patch], N=2, eps=0.1)
    assert np.array_equal(model.r, [1.0])
    assert "beta_i" not in repr(model) and "background" not in repr(model)
    with pytest.raises(TypeError):
        FullModel(model.r, model.beta, model.gamma, model.k, pert=model.pert,
                  eps=model.eps, d=model.d, connectivity=model.connectivity,
                  beta_i=model.beta_i)


# ------------------------------------------------------------- rhs identities

def test_disease_free_state_stationary(worked_patch, second_patch):
    model = neutral_model([worked_patch, second_patch], N=2, d=1.0, eps=0.0)
    deriv = rhs_of(model, full_state(np.ones(2), np.zeros((2, 2)), np.zeros((2, 2, 2))))
    assert np.max(np.abs(deriv)) < 1e-15


def test_neutral_manifold_stationary(worked_patch, second_patch):
    rng = np.random.default_rng(5)
    model = neutral_model([worked_patch, second_patch], N=3, d=0.0, eps=0.0)
    z = rng.dirichlet(np.ones(3), size=2)
    deriv = rhs_of(model, init_on_manifold(z, model.background))
    assert np.max(np.abs(deriv)) < 1e-14


def test_transmissible_load_neutral_split(worked_patch):
    """With probabilities exactly 1/2, J^i = I^i + the symmetrized pair
    load, and the total load is conserved."""
    rng = np.random.default_rng(9)
    model = neutral_model([worked_patch], N=3, eps=0.0)
    _, I, D = full_views(random_state(rng, 1, 3), 1, 3)
    J = transmissible_load(ModelStack([model]), I[None], D[None])[0]
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
        dS, dI, dD = full_views(rhs_of(model, y), 3, 2)
        got = dS + dI.sum(axis=1) + dD.sum(axis=(1, 2))
        S, I, D = full_views(y, 3, 2)
        mass = S + I.sum(axis=1) + D.sum(axis=(1, 2))
        expected = model.r * (1.0 - mass) \
            + model.eps * model.d * (model.connectivity.entries @ mass)
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
        local = replace(model, d=0.0)
        y = random_state(rng, 4, 3)
        got = full_views(rhs_of(model, y) - rhs_of(local, y), 4, 3)
        S, I, D = full_views(y, 4, 3)
        A, delta = model.connectivity.entries, model.eps * model.d
        for part, want in zip(got, (A @ S, A @ I, np.einsum("pk,kij->pij", A, D))):
            assert np.max(np.abs(part - delta * want)) < 1e-15


def test_stacked_rhs_is_each_models_rhs_row_by_row():
    """rhs_full on a ModelStack gives each member's rhs alone bit for bit,
    also for a subset of members taken in another order."""
    rng = np.random.default_rng(19)
    model = random_model(rng, P=3, N=3, eps=0.05)
    models = [model.with_eps(eps) for eps in (0.1, 0.05, 0.025)]
    ys = np.stack([random_state(rng, 3, 3) for _ in models])
    stack = ModelStack(models)
    rows = rhs_full(0.0, ys, stack, np.empty_like(ys), np.empty_like(ys))
    for m, y, row in zip(models, ys, rows):
        assert np.array_equal(rhs_of(m, y), row)
    sub = np.empty((2, ys.shape[1]))
    assert np.array_equal(rhs_full(0.0, ys[[2, 0]], stack.take((2, 0)), sub, np.empty_like(sub)),
                          rows[[2, 0]])
    assert not any(getattr(stack, name).flags.writeable for name in ("r", "co_rate", "migration"))


def test_rhs_constants_are_read_only_and_built_once(worked_patch):
    """A ModelStack builds its members' eps-level rates once, read-only,
    and no model keeps them, not even after rhs_full ran on it."""
    model = neutral_model([worked_patch], N=2, eps=0.1)
    rhs_of(model, init_on_manifold(np.array([[0.3, 0.7]]), model.background))
    assert not [name for name, value in vars(model).items() if np.ndim(value) == 3]
    rates = ModelStack([model])
    for name in ("prob_second", "co_rate", "loss"):
        assert not getattr(rates, name).flags.writeable
    k_ij = model.k[:, None, None] + model.eps * model.pert.alpha
    assert np.array_equal(rates.co_rate[0], k_ij * model.beta_i[:, :, None])
    loss_D = full_views(rates.loss[0], 1, 2)[2]
    assert np.array_equal(loss_D, model.r[:, None, None] + rates.gamma_ij[0])


def test_rhs_writes_into_a_strided_stage_row():
    """rhs_full writes each member's rhs alone, bit for bit, into a stage
    row of a (B, 7, dim) array and nowhere else: into K[:, s] of a
    one-member stack and into the strided rows K[:, s] of a 3-member one.
    What the scratch holds does not change the result."""
    rng = np.random.default_rng(23)
    model = random_model(rng, P=3, N=3, eps=0.05)
    models = [model.with_eps(eps) for eps in (0.1, 0.05, 0.025)]
    ys = np.stack([random_state(rng, 3, 3) for _ in models])
    for members in (models[:1], models):
        stack, y = ModelStack(members), ys[:len(members)]
        K = np.full((len(members), 7, y.shape[1]), np.nan)
        out, scratch = K[:, 4], np.empty_like(y)
        assert rhs_full(0.0, y, stack, out, scratch) is out
        for m, state, row in zip(members, y, out):
            assert np.array_equal(row, rhs_of(m, state))
        assert np.isnan(np.delete(K, 4, axis=1)).all()
        scratch[...] = np.inf
        assert np.array_equal(rhs_full(0.0, y, stack, np.empty_like(y), scratch), out)


def test_rhs_into_out_allocates_nothing_of_the_states_size():
    """A call on a one-member ModelStack at P = N = 40 peaks below one
    (P, N, N) array (512 KB; about 92 KB measured, most of it numpy's own
    buffer for a broadcast product, at most 8192 values)."""
    rng = np.random.default_rng(29)
    P = N = 40
    stack = ModelStack([random_model(rng, P, N, eps=0.01)])
    y = random_state(rng, P, N)[None]
    out, scratch = np.empty_like(y), np.empty_like(y)
    rhs_full(0.0, y, stack, out, scratch)
    tracemalloc.start()
    try:
        rhs_full(0.0, y, stack, out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < P * N * N * 8


def test_stacked_models_must_share_their_layout(worked_patch, second_patch):
    one = neutral_model([worked_patch], N=2)
    with pytest.raises(ConfigError, match="share patches, strains and connectivity"):
        ModelStack([one, neutral_model([worked_patch], N=3)])
    two = neutral_model([worked_patch, second_patch], N=2)
    with pytest.raises(ConfigError, match="share"):
        ModelStack([two, replace(two, connectivity=ConnectivityMatrix(
            entries=np.array([[-2.0, 2.0], [1.0, -1.0]])))])
    y0 = init_on_manifold(np.array([[0.3, 0.7]]), one.background)
    with pytest.raises(ConfigError, match="integrator settings"):
        simulate_full([one, one], y0, [IntegratorConfig()])
    assert simulate_full([], y0, []) == []


def test_simulate_full_checks_every_model_before_the_first_run(worked_patch, monkeypatch):
    """Under a budget that runs each model alone, a layout mismatch in the
    last model, or settings past its step budget, still stop simulate_full
    before any integration."""
    def unused(*args, **kwargs):
        raise AssertionError("integrated before every model was checked")
    monkeypatch.setattr(straingrid.fullsim, "BATCH_VALUES", 1)
    monkeypatch.setattr(straingrid.fullsim, "integrate", unused)
    one = neutral_model([worked_patch], N=2)
    y0 = init_on_manifold(np.array([[0.3, 0.7]]), one.background)
    with pytest.raises(ConfigError, match="share"):
        simulate_full([one, one, neutral_model([worked_patch], N=3)], y0,
                      [IntegratorConfig()] * 3)
    tiny_steps = IntegratorConfig(t_end=5.0, max_step=1e-12, initial_step=1e-12)
    with pytest.raises(StiffnessFailure, match="budget"):
        simulate_full([one] * 3, y0, [IntegratorConfig()] * 2 + [tiny_steps])


@pytest.mark.parametrize("limit", [straingrid.fullsim.TABLE_MAX_TERMS, 0],
                         ids=["table", "rhs_full"])
def test_each_ensembles_rates_are_freed_before_the_next_is_built(monkeypatch, limit):
    """Run one model at a time, an ensemble's stack (and with it its
    rates, table and scratch) is gone when the next one is built, and so
    is the last one when simulate_full returns."""
    stacks = []

    class Recorded(ModelStack):
        def __init__(self, models):
            assert all(ref() is None for ref in stacks)
            super().__init__(models)
            stacks.append(weakref.ref(self))
    monkeypatch.setattr(straingrid.fullsim, "ModelStack", Recorded)
    monkeypatch.setattr(straingrid.fullsim, "BATCH_VALUES", 1)
    monkeypatch.setattr(straingrid.fullsim, "TABLE_MAX_TERMS", limit)
    models, _ = table_case("3x3")
    y0 = init_on_manifold(np.full((3, 3), 1 / 3), models[0].background)
    assert len(simulate_full(models, y0, [IntegratorConfig(t_end=0.5)] * 3)) == 3
    assert len(stacks) == 3 and all(ref() is None for ref in stacks)


# ---------------------------------------------------------------- term table

def ring(P):
    """Unit-rate ring coupling: each patch exchanges with its two neighbours."""
    M = np.roll(np.eye(P), 1, axis=1) + np.roll(np.eye(P), -1, axis=1)
    return ConnectivityMatrix(entries=M - np.diag(M.sum(axis=1)))


def volumes(P):
    """Density-convention exchange of unequal volumes along a ring."""
    V = np.linspace(0.5, 2.0, P)
    x = np.roll(np.eye(P), 1, axis=1)
    return ConnectivityMatrix(entries=renormalize_to_density(volume_matrix(V, np.triu(x + x.T)),
                                                             V))


TABLE_CASES = {   # (P, N, connectivity, eps of the three members, d)
    "one patch": (1, 3, None, (0.04, 0.02, 0.01), 1.0),
    "one strain": (3, 1, ring(3), (0.04, 0.02, 0.01), 1.0),
    "3x3": (3, 3, ring(3), (0.04, 0.02, 0.01), 1.0),
    "4x2 ring": (4, 2, ring(4), (0.04, 0.02, 0.01), 1.0),
    "4x2 volumes": (4, 2, volumes(4), (0.04, 0.02, 0.01), 2.0),
    "eps = 0": (3, 3, ring(3), (0.04, 0.0, 0.01), 1.0),
    "d = 0": (3, 2, ring(3), (0.04, 0.02, 0.01), 0.0),
    # above TABLE_MAX_TERMS: simulate_full runs these with rhs_full
    "6x8 ring": (6, 8, ring(6), (0.04, 0.02, 0.01), 1.0),
    "5x7 volumes": (5, 7, volumes(5), (0.04, 0.02, 0.01), 2.0),
    "6x8 eps = 0": (6, 8, ring(6), (0.04, 0.0, 0.01), 1.0),
    "5x7 d = 0": (5, 7, volumes(5), (0.04, 0.02, 0.01), 0.0),
}
ABOVE_THE_GATE = ("6x8 ring", "5x7 volumes", "6x8 eps = 0", "5x7 d = 0")


def table_case(name, seed=31):
    """Three models of a TABLE_CASES entry and a random positive state each."""
    P, N, conn, eps_list, d = TABLE_CASES[name]
    rng = np.random.default_rng(seed)
    r, gamma, k = rng.uniform(0.5, 1.5, size=(3, P))
    pert = StrainPerturbations(*(rng.uniform(-1.0, 1.0, size=(P, N, N)[:n])
                                 for n in (2, 2, 3, 3, 3)))
    model = FullModel(r, (r + gamma) * rng.uniform(1.5, 3.0, size=P), gamma, k, pert=pert,
                      eps=0.0, d=d, connectivity=conn or ONE_PATCH)
    models = [model.with_eps(eps) for eps in eps_list]
    return models, np.stack([random_state(rng, P, N) for _ in models])


@pytest.mark.parametrize("case", TABLE_CASES)
def test_term_table_agrees_with_rhs_full(case):
    """Each member's row of a table call is its rhs_full within 1e-13 of
    the largest derivative; a subset of members, taken in another order,
    and a member alone give their rows of the full call bit for bit. The
    stack's migration, which both read, is read-only and delta * C of
    each member bit for bit, also in a taken subset."""
    models, ys = table_case(case)
    stack = ModelStack(models)
    table = _TermTable(stack)
    for m, row in zip(models, stack.migration):
        assert np.array_equal(row, m.delta * m.connectivity.entries)
    sub = stack.take((2, 0)).migration
    assert np.array_equal(sub, stack.migration[[2, 0]])
    assert not (stack.migration.flags.writeable or sub.flags.writeable)
    got = np.empty_like(ys)
    table(ys, got)
    for m, y, row in zip(models, ys, got):
        want = rhs_of(m, y)
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
    for members in ((2, 0), (1,)):
        sub = np.empty((len(members), ys.shape[1]))
        table.take(members)(ys[list(members)], sub)
        assert np.array_equal(sub, got[list(members)])
    alone = np.empty((1, ys.shape[1]))
    _TermTable(ModelStack(models[1:2]))(ys[1:2], alone)
    assert np.array_equal(alone[0], got[1])


def test_table_cases_lie_on_both_sides_of_the_gate():
    """The table is checked against rhs_full at sizes that simulate_full
    runs from the table and at sizes where it calls rhs_full."""
    for case in TABLE_CASES:
        models, _ = table_case(case)
        terms = _TermTable(ModelStack(models[:1])).coef.shape[1]
        assert (terms > straingrid.fullsim.TABLE_MAX_TERMS) == (case in ABOVE_THE_GATE)


def counting_rhs_full(monkeypatch):
    """Replace fullsim.rhs_full by a wrapper; returns its call list."""
    calls = []
    original = straingrid.fullsim.rhs_full

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(straingrid.fullsim, "rhs_full", counted)
    return calls


def test_simulate_full_takes_the_table_up_to_its_gate(monkeypatch):
    """simulate_full evaluates a system of exactly TABLE_MAX_TERMS terms per
    member (counted as the table counts them, here on a ring with fewer
    nonzero couplings than P^2) from the table and never calls rhs_full,
    and one term more calls rhs_full; both runs agree within tolerance."""
    models, _ = table_case("4x2 ring")
    terms = _TermTable(ModelStack(models[:1])).coef.shape[1]
    y0 = init_on_manifold(np.full((4, 2), 0.5), models[0].background)
    cfgs = [IntegratorConfig(t_end=2.0, monitor_period=0.5)] * 3
    calls = counting_rhs_full(monkeypatch)
    runs = {}
    for limit in (terms, terms - 1):
        monkeypatch.setattr(straingrid.fullsim, "TABLE_MAX_TERMS", limit)
        del calls[:]
        runs[limit] = simulate_full(models, y0, cfgs)
        assert bool(calls) == (limit < terms)
    for table, reference in zip(runs[terms], runs[terms - 1]):
        assert np.allclose(table.states, reference.states, rtol=0, atol=1e-9)


def test_table_path_surfaces_a_non_finite_rhs(monkeypatch):
    """A state whose products overflow gives a non-finite table rhs, which
    still raises NumericalBlowup."""
    models, ys = table_case("3x3")
    calls = counting_rhs_full(monkeypatch)
    with pytest.raises(NumericalBlowup):
        simulate_full(models[:1], ys[0] * 1e200, [IntegratorConfig()])
    assert not calls


def test_table_call_allocates_nothing_of_the_states_size():
    """A table call on three members (and on a taken subset) writes into
    strided stage rows while peaking below one member's state."""
    models, _ = table_case("one patch")
    models = [replace(m, pert=StrainPerturbations.zeros(1, 20)) for m in models]
    ys = np.stack([init_on_manifold(np.full((1, 20), 0.05), m.background) for m in models])
    table = _TermTable(ModelStack(models))
    sub, sub_ys = table.take((2, 0)), ys[[2, 0]]
    K = np.empty((3, 7, ys.shape[1]))
    table(ys, K[:, 3])                          # first calls, outside the trace
    sub(sub_ys, K[:2, 4])
    tracemalloc.start()
    try:
        table(ys, K[:, 3])
        sub(sub_ys, K[:2, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ys[0].nbytes


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
            simulate_full([model], bad, [cfg])

def test_single_strain_converges_to_endemic_point(worked_patch):
    rng = np.random.default_rng(21)
    model = neutral_model([worked_patch], N=1, eps=0.0)
    S0 = rng.uniform(0.2, 0.6)
    I0 = rng.uniform(0.05, 0.3)
    D0 = rng.uniform(0.01, min(0.3, 1.0 - S0 - I0))
    y0 = full_state([S0], [[I0]], [[[D0]]])
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=200.0,
                           monitor_period=10.0)
    traj, = simulate_full([model], y0, [cfg])
    S_star, I_star, D_star, _ = neutral_equilibrium(stacked(worked_patch))
    S, I, D = full_views(traj.states[-1], 1, 1)
    assert abs(S[0] - S_star[0]) < 1e-6
    assert abs(I[0, 0] - I_star[0]) < 1e-6
    assert abs(D[0, 0, 0] - D_star[0]) < 1e-6


def test_mass_and_negativity_monitors(worked_patch, second_patch,
                                      two_patch_conn):
    rng = np.random.default_rng(27)
    pert = StrainPerturbations(
        b=rng.normal(size=(2, 2)), nu=rng.normal(size=(2, 2)),
        c_pair=rng.normal(size=(2, 2, 2)), w=rng.normal(size=(2, 2, 2)) * 0.3,
        alpha=rng.normal(size=(2, 2, 2)))
    model = FullModel(*stacked(worked_patch, second_patch), pert=pert, eps=0.05, d=1.0,
                      connectivity=two_patch_conn)
    y0 = init_on_manifold(np.array([[0.3, 0.7], [0.6, 0.4]]), model.background)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=100.0,
                           monitor_period=5.0)
    traj, = simulate_full([model], y0, [cfg])
    assert traj.monitor_max[0] < 100 * (1e-10 + 1e-12)   # mass defect
    # min entry stays essentially nonnegative
    assert float(np.min(traj.states)) > -10 * (1e-10 + 1e-12)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_stacked_monitors_are_the_scalar_ones_row_by_row(monkeypatch, P):
    """simulate_full's monitors map a stack (k, dim) to k values, each the
    bits of row_sum_defect(y, P) and np.min(y) of its row."""
    rng = np.random.default_rng(P)
    handed = []

    def spy(rhs, y0, cfgs, monitors, observe):
        handed.append(monitors)
        return [None] * len(cfgs)
    monkeypatch.setattr(straingrid.fullsim, "integrate", spy)
    simulate_full([random_model(rng, P, 2, 0.05)], random_state(rng, P, 2), [IntegratorConfig()])
    mass, least = handed[0]
    for B in (1, 2, 3):
        ys = rng.uniform(-0.5, 1.5, size=(B, 7 * P))
        assert np.array_equal(mass(ys), [row_sum_defect(y, P) for y in ys])
        assert np.array_equal(least(ys), [np.min(y) for y in ys])
        assert mass(ys).shape == least(ys).shape == (B,)


def test_model_parts_sized_for_another_patch_count(worked_patch, second_patch):
    rates = stacked(worked_patch, second_patch)
    conn = ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ConfigError, match="perturbations cover 1 patches, model has 2"):
        FullModel(*rates, pert=StrainPerturbations.zeros(1, 2), eps=0.1, d=1.0,
                  connectivity=conn)
    with pytest.raises(ConfigError, match="connectivity size does not match patch count"):
        FullModel(*rates, pert=StrainPerturbations.zeros(2, 2), eps=0.1, d=1.0,
                  connectivity=ONE_PATCH)
    with pytest.raises(ConfigError, match=r"must be \(P,\) arrays, got shapes "
                                          r"\[\(2,\), \(2,\), \(1,\), \(2,\)\]"):
        FullModel(rates[0], rates[1], rates[2][:1], rates[3],
                  pert=StrainPerturbations.zeros(2, 2), eps=0.1, d=1.0, connectivity=conn)


def test_manifold_state_needs_one_row_per_patch(worked_patch):
    bg = neutral_model([worked_patch], 2).background
    with pytest.raises(ConfigError, match="need one equilibrium per patch"):
        init_on_manifold(np.full((2, 2), 0.5), bg)
