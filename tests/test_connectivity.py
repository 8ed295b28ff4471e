"""Connectivity validation and volume-based matrix construction."""

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix,
                        renormalize_to_density, validate_connectivity,
                        volume_matrix)
from straingrid.errors import InvalidConnectivity


METZLER = "Metzler violation (negative off-diagonal)"
DISCONNECTED = "not irreducible (patch graph disconnected)"
ROW_SUMS = "row sums are not zero"


def test_complete_graph_passes():
    M = np.ones((3, 3)) - 3 * np.eye(3)
    assert validate_connectivity(M) == []


def test_negative_off_diagonal_fails_metzler():
    # the only positive off-diagonal is 1 -> 0, and the rows sum to -1 and 1
    assert validate_connectivity(np.array([[0.0, -1.0], [1.0, 0.0]])) == [
        METZLER, DISCONNECTED, ROW_SUMS]


def test_disconnected_graph_fails_irreducibility():
    M = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
    ])
    assert validate_connectivity(M) == [DISCONNECTED]


def test_one_way_chain_fails_irreducibility():
    # edges only 0 -> 1 -> 2: reachable but not strongly connected
    M = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    assert validate_connectivity(M) == [DISCONNECTED]


def test_nonzero_row_sums_flagged():
    M = np.array([[-1.0, 2.0], [1.0, -1.0]])
    assert validate_connectivity(M) == [ROW_SUMS]


def test_single_patch_trivially_irreducible():
    assert validate_connectivity(np.zeros((1, 1))) == []


def test_nonsquare_rejected():
    with pytest.raises(ConfigError):
        validate_connectivity(np.zeros((2, 3)))


def test_connectivity_matrix_type_rejects_invalid():
    with pytest.raises(InvalidConnectivity) as exc:
        ConnectivityMatrix(entries=np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert exc.value.failures == [METZLER, DISCONNECTED, ROW_SUMS]
    assert str(exc.value) == f"invalid connectivity matrix: {METZLER}; {DISCONNECTED}; {ROW_SUMS}"


def test_volume_matrix_hand_example():
    M = volume_matrix(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(M, np.array([[-2.0, 1.0], [2.0, -1.0]]))


def test_volume_matrix_equal_volumes_symmetric():
    M = volume_matrix(np.array([1.0, 1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(M, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_volume_matrix_three_patch_structure():
    V = np.array([1.0, 2.0, 4.0])
    x = np.triu(np.ones((3, 3)), k=1)
    M = volume_matrix(V, x)
    assert np.max(np.abs(M.sum(axis=0))) < 1e-12
    assert np.max(np.abs(M @ V)) < 1e-12


def test_volume_matrix_rejects_bad_input():
    with pytest.raises(ConfigError):
        volume_matrix(np.array([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        volume_matrix(np.array([1.0, 2.0]), np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        volume_matrix(np.array([1.0, 2.0]), np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError, match=r"weights must be a 2x2 array, got shape \(3, 3\)"):
        volume_matrix(np.array([1.0, 2.0]), np.ones((3, 3)))


def test_renormalize_hand_example():
    M = np.array([[-2.0, 1.0], [2.0, -1.0]])
    out = renormalize_to_density(M, np.array([1.0, 2.0]))
    assert np.allclose(out, [[-2.0, 2.0], [1.0, -1.0]], atol=1e-14)
    assert np.max(np.abs(out.sum(axis=1))) < 1e-14


def test_renormalize_identity_for_unit_volumes():
    M = np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(renormalize_to_density(M, np.ones(2)), M)


def test_renormalize_rejects_precondition_violation():
    with pytest.raises(ConfigError):
        renormalize_to_density(np.array([[-1.0, 1.0], [0.5, -0.5]]),
                               np.array([1.0, 1.0]))
    # zero column sums, but its kernel is (1, 2), not (1, 1)
    M = np.array([[-2.0, 1.0], [2.0, -1.0]])
    with pytest.raises(ConfigError, match="all volumes must be positive"):
        renormalize_to_density(M, np.array([1.0, 0.0]))
    with pytest.raises(ConfigError, match=r"matrix does not keep the volumes fixed \(M V != 0\)"):
        renormalize_to_density(M, np.array([1.0, 1.0]))


def test_random_volume_pipeline_properties():
    rng = np.random.default_rng(7)
    for _ in range(100):
        P = int(rng.integers(2, 6))
        V = rng.uniform(0.5, 5.0, size=P)
        x = np.triu(rng.uniform(0.0, 2.0, size=(P, P)), k=1)
        # guarantee a connected weight graph via a spanning chain
        for i in range(P - 1):
            x[i, i + 1] = max(x[i, i + 1], 0.1)
        M = volume_matrix(V, x)
        scale = np.max(np.abs(M))
        assert np.max(np.abs(M.sum(axis=0))) <= 1e-12 * scale
        assert np.max(np.abs(M @ V)) <= 1e-12 * scale * np.max(V)
        Dhat = renormalize_to_density(M, V)
        assert np.max(np.abs(Dhat.sum(axis=1))) <= 1e-12 * np.max(np.abs(Dhat))
        assert validate_connectivity(Dhat) == []


def test_non_finite_matrix_rejected():
    with pytest.raises(ConfigError, match="connectivity matrix has non-finite entries"):
        validate_connectivity(np.array([[-1.0, np.inf], [1.0, -1.0]]))
