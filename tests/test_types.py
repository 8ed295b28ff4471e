"""Domain type invariants and containers."""

import re

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, FullModel, StrainPerturbations,
                        SubcriticalPatch, full_state, require_simplex)
from straingrid.types import full_views, rate_issue, row_sum_defect

from conftest import stacked


ONE_PATCH = ConnectivityMatrix(entries=np.zeros((1, 1)))


def one_patch_model(rates, eps=0.0, d=0.0):
    return FullModel(*stacked(rates), pert=StrainPerturbations.zeros(1, 1), eps=eps, d=d,
                     connectivity=ONE_PATCH)


def test_patch_params_validation():
    """rate_issue names the first inadmissible property of a patch's rates;
    FullModel refuses the patch with that message."""
    for rates, issue in (
            ((0.0, 1.0, 0.0, 0.0), "r and beta must be positive, got r=0.0, beta=1.0"),
            ((1.0, -1.0, 0.0, 0.0), "r and beta must be positive, got r=1.0, beta=-1.0"),
            ((1.0, 2.0, -0.1, 0.0), "gamma and k must be nonnegative, got gamma=-0.1, k=0.0"),
            ((1.0, 2.0, 0.0, -1.0), "gamma and k must be nonnegative, got gamma=0.0, k=-1.0"),
            ((1.0, np.inf, 0.0, 0.0), "rates must be finite, got r=1.0, beta=inf, gamma=0.0, k=0.0"),
            ((1.0, 2.0, np.nan, -1.0), "rates must be finite, got r=1.0, beta=2.0, gamma=nan")):
        assert rate_issue(*rates).startswith(issue)
        with pytest.raises(ConfigError, match=f"^patch 0: {re.escape(issue)}"):
            one_patch_model(rates)
    assert rate_issue(1.0, 4.0, 1.0, 0.0) is None
    assert rate_issue(1.0, 0.5, 0.0, 1.0) is None


def test_supercriticality_predicate():
    """Subcriticality, beta <= r + gamma, is no rate issue: the model takes
    the patch and only its background, the endemic point, refuses it."""
    assert one_patch_model((1.0, 4.0, 1.0, 1.0)).background.S_star[0] == 0.5
    subcritical = one_patch_model((1.0, 2.0, 1.0, 1.0))
    with pytest.raises(SubcriticalPatch, match="^patch 0: beta=2.0 <= r"):
        subcritical.background


def test_perturbations_shapes_and_zeros():
    pert = StrainPerturbations.zeros(2, 3)
    assert pert.n_patches == 2 and pert.n_strains == 3
    assert pert.b.shape == (2, 3) and pert.w.shape == (2, 3, 3)
    with pytest.raises(ConfigError):
        StrainPerturbations(b=np.zeros((2, 3)), nu=np.zeros((2, 2)),
                            c_pair=np.zeros((2, 3, 3)), w=np.zeros((2, 3, 3)),
                            alpha=np.zeros((2, 3, 3)))
    with pytest.raises(ConfigError, match=r"w must have shape \(2, 3, 3\), got \(2, 3, 2\)"):
        StrainPerturbations(b=np.zeros((2, 3)), nu=np.zeros((2, 3)),
                            c_pair=np.zeros((2, 3, 3)), w=np.zeros((2, 3, 2)),
                            alpha=np.zeros((2, 3, 3)))
    with pytest.raises(ConfigError):
        StrainPerturbations(b=np.array([[np.inf]]), nu=np.zeros((1, 1)),
                            c_pair=np.zeros((1, 1, 1)), w=np.zeros((1, 1, 1)),
                            alpha=np.zeros((1, 1, 1)))


def test_perturbation_arrays_immutable():
    pert = StrainPerturbations.zeros(1, 2)
    with pytest.raises(ValueError):
        pert.b[0, 0] = 1.0


def test_perturbations_copy_any_array_another_owner_can_write():
    """A read-only float array that owns its memory is kept; a writeable
    array, a view and another dtype are copied."""
    owned, view = np.zeros((1, 2, 2)), np.zeros((2, 2, 2))[:1]
    owned.setflags(write=False)
    view.setflags(write=False)
    writeable = np.zeros((1, 2, 2))
    pert = StrainPerturbations(b=np.zeros((1, 2)), nu=np.zeros((1, 2), dtype=np.float32),
                               c_pair=owned, w=writeable, alpha=view)
    assert pert.c_pair is owned
    writeable[0, 0, 0] = 1.0
    assert pert.w[0, 0, 0] == 0.0 and not pert.w.flags.writeable
    assert pert.alpha.base is None and pert.nu.dtype == np.float64


def test_scale_params():
    """eps and d are finite and >= 0; with_eps keeps d."""
    model = one_patch_model((1.0, 4.0, 1.0, 1.0), eps=0.1, d=2.0)
    assert model.eps * model.d == pytest.approx(0.2)
    other = model.with_eps(0.05)
    assert other.eps * other.d == pytest.approx(0.1)
    assert one_patch_model((1.0, 4.0, 1.0, 1.0), eps=0.0, d=1.0).eps == 0.0
    for eps, d, message in ((-0.1, 1.0, "eps must be finite and >= 0, got -0.1"),
                            (np.inf, 1.0, "eps must be finite and >= 0, got inf"),
                            (np.nan, 1.0, "eps must be finite and >= 0, got nan"),
                            (0.1, -1.0, "d must be finite and >= 0, got -1.0"),
                            (0.1, np.inf, "d must be finite and >= 0, got inf")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            one_patch_model((1.0, 4.0, 1.0, 1.0), eps=eps, d=d)


def test_full_state_mass_and_roundtrip():
    rng = np.random.default_rng(0)
    P, N = 2, 3
    S = rng.uniform(0.1, 0.4, size=P)
    I = rng.uniform(0.0, 0.1, size=(P, N))
    D = rng.uniform(0.0, 0.02, size=(P, N, N))
    y = full_state(S, I, D)
    assert y.shape == (P * (1 + N + N * N),)
    back_S, back_I, back_D = full_views(y, P, N)
    assert np.array_equal(back_S, S)
    assert np.array_equal(back_I, I)
    assert np.array_equal(back_D, D)


def test_full_state_ravel_is_patch_major():
    rng = np.random.default_rng(1)
    P, N = 3, 2
    S, I, D = rng.uniform(size=P), rng.uniform(size=(P, N)), rng.uniform(size=(P, N, N))
    y = full_state(S, I, D)
    rows = y.reshape(P, 1 + N + N * N)
    for p in range(P):
        assert np.array_equal(rows[p], [S[p], *I[p], *D[p].ravel()])
    views = full_views(y, P, N)
    assert all(np.shares_memory(view, y) for view in views)
    for view, part in zip(views, (S, I, D)):
        assert np.array_equal(view, part)


def test_full_views_take_leading_sample_axes():
    rng = np.random.default_rng(3)
    P, N = 3, 2
    states = rng.uniform(size=(4, 5, P * (1 + N + N * N)))
    stacked = full_views(states, P, N)
    assert [v.shape for v in stacked] == [(4, 5, P), (4, 5, P, N), (4, 5, P, N, N)]
    assert all(np.shares_memory(view, states) for view in stacked)
    for a in range(4):
        for b in range(5):
            for view, part in zip(stacked, full_views(states[a, b], P, N)):
                assert np.array_equal(view[a, b], part)


def test_row_sum_defect_is_the_mass_defect():
    rng = np.random.default_rng(2)
    P, N = 4, 3
    S, I, D = (rng.uniform(0.1, 0.4, size=P), rng.uniform(0.0, 0.1, size=(P, N)),
               rng.uniform(0.0, 0.05, size=(P, N, N)))
    expected = np.max(np.abs(S + I.sum(axis=1) + D.sum(axis=(1, 2)) - 1.0))
    assert row_sum_defect(full_state(S, I, D), P) == pytest.approx(expected, abs=1e-15)
    z = np.array([[0.3, 0.6], [0.5, 0.5]])
    assert row_sum_defect(z.ravel(), 2) == pytest.approx(0.1)


def test_full_state_shape_mismatch():
    for S, I, D in ((np.zeros(2), np.zeros((2, 2)), np.zeros((1, 2, 2))),
                    (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 2, 2))),
                    (np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2, 3))),
                    (np.zeros(2), np.zeros(2), np.zeros((2, 2, 2))),
                    (0.5, np.zeros((1, 1)), np.zeros((1, 1, 1)))):
        with pytest.raises(ConfigError, match="inconsistent state shapes"):
            full_state(S, I, D)


def test_frequency_state_predicates():
    z = [[0.3, 0.7], [0.5, 0.5]]
    checked = require_simplex(z)
    assert checked.dtype == float and np.array_equal(checked, z)
    given = np.array([[0.3, 0.7]])
    assert not np.shares_memory(require_simplex(given), given)
    assert require_simplex(np.array([[1.0 + 5e-13, -5e-13]])).shape == (1, 2)
    for z in ([[0.3, 0.6]], [[np.nan, 1.0]], [[1.5, -0.5]], [[0.5, 0.5], [0.3, 0.6]]):
        with pytest.raises(ConfigError, match="off the simplex"):
            require_simplex(np.array(z))
    with pytest.raises(ConfigError, match="2-d"):
        require_simplex(np.array([0.3, 0.7]))
