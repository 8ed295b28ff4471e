"""Domain type invariants and containers."""

import numpy as np
import pytest

from straingrid import (ConfigError, FrequencyState, FullState, PatchParams,
                        ScaleParams, StrainPerturbations)


def test_patch_params_validation():
    with pytest.raises(ConfigError):
        PatchParams(r=0.0, beta=1.0, gamma=0.0, k=0.0)
    with pytest.raises(ConfigError):
        PatchParams(r=1.0, beta=-1.0, gamma=0.0, k=0.0)
    with pytest.raises(ConfigError):
        PatchParams(r=1.0, beta=2.0, gamma=-0.1, k=0.0)
    with pytest.raises(ConfigError):
        PatchParams(r=1.0, beta=2.0, gamma=0.0, k=-1.0)


def test_supercriticality_predicate():
    assert PatchParams(r=1.0, beta=4.0, gamma=1.0, k=1.0).supercritical
    assert not PatchParams(r=1.0, beta=2.0, gamma=1.0, k=1.0).supercritical


def test_perturbations_shapes_and_zeros():
    pert = StrainPerturbations.zeros(2, 3)
    assert pert.n_patches == 2 and pert.n_strains == 3
    assert pert.b.shape == (2, 3) and pert.w.shape == (2, 3, 3)
    with pytest.raises(ConfigError):
        StrainPerturbations(b=np.zeros((2, 3)), nu=np.zeros((2, 2)),
                            c_pair=np.zeros((2, 3, 3)), w=np.zeros((2, 3, 3)),
                            alpha=np.zeros((2, 3, 3)))
    with pytest.raises(ConfigError):
        StrainPerturbations(b=np.array([[np.inf]]), nu=np.zeros((1, 1)),
                            c_pair=np.zeros((1, 1, 1)), w=np.zeros((1, 1, 1)),
                            alpha=np.zeros((1, 1, 1)))


def test_perturbation_arrays_immutable():
    pert = StrainPerturbations.zeros(1, 2)
    with pytest.raises(ValueError):
        pert.b[0, 0] = 1.0


def test_scale_params():
    scale = ScaleParams(eps=0.1, d=2.0)
    assert scale.delta == pytest.approx(0.2)
    assert scale.with_eps(0.05).delta == pytest.approx(0.1)
    assert ScaleParams(eps=0.0, d=1.0).delta == 0.0
    with pytest.raises(ConfigError):
        ScaleParams(eps=-0.1, d=1.0)
    with pytest.raises(ConfigError):
        ScaleParams(eps=0.1, d=-1.0)


def test_full_state_mass_and_roundtrip():
    rng = np.random.default_rng(0)
    P, N = 2, 3
    S = rng.uniform(0.1, 0.4, size=P)
    I = rng.uniform(0.0, 0.1, size=(P, N))
    D = rng.uniform(0.0, 0.02, size=(P, N, N))
    state = FullState(S=S, I=I, D=D)
    expected = S + I.sum(axis=1) + D.sum(axis=(1, 2))
    assert np.allclose(state.patch_mass(), expected, atol=1e-15)
    back = FullState.unravel(state.ravel(), P, N)
    assert np.array_equal(back.S, S)
    assert np.array_equal(back.I, I)
    assert np.array_equal(back.D, D)


def test_full_state_validity_predicate():
    good = FullState(S=np.array([0.5]), I=np.array([[0.25]]),
                     D=np.array([[[0.25]]]))
    assert good.is_valid()
    off_mass = FullState(S=np.array([0.6]), I=np.array([[0.25]]),
                         D=np.array([[[0.25]]]))
    assert not off_mass.is_valid()
    negative = FullState(S=np.array([0.75]), I=np.array([[0.5]]),
                         D=np.array([[[-0.25]]]))
    assert not negative.is_valid()


def test_full_state_shape_mismatch():
    with pytest.raises(ConfigError):
        FullState(S=np.zeros(2), I=np.zeros((2, 2)), D=np.zeros((1, 2, 2)))


def test_frequency_state_predicates():
    z = FrequencyState(z=np.array([[0.3, 0.7], [0.5, 0.5]]))
    assert z.simplex_defect() < 1e-15
    assert z.is_valid()
    bad = FrequencyState(z=np.array([[0.3, 0.6]]))
    assert bad.simplex_defect() == pytest.approx(0.1)
    assert not bad.is_valid()
    for z in ([[0.3, 0.6]], [[np.nan, 1.0]], [[1.5, -0.5]]):
        with pytest.raises(ConfigError, match="off the simplex"):
            FrequencyState(z=np.array(z)).require_simplex()
    FrequencyState(z=np.array([[0.3, 0.7]])).require_simplex()
    with pytest.raises(ConfigError):
        FrequencyState(z=np.array([0.3, 0.7]))
