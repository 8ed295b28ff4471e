"""Shared fixtures and helpers for the test suite.

A patch is given as its rate row (r, beta, gamma, k); `stacked` turns
rows into the (P,) rate arrays that FullModel and the closed forms take.
"""

import numpy as np
import pytest

from straingrid import ConnectivityMatrix


@pytest.fixture
def worked_patch():
    """The hand-checked reference patch: equal unit birth and clearance,
    transmission 4, neutral co-colonization susceptibility."""
    return (1.0, 4.0, 1.0, 1.0)


@pytest.fixture
def second_patch():
    """A distinct supercritical patch with k != 1 used by the
    heterogeneous two-patch hand examples."""
    return (0.5, 2.0, 0.5, 2.0)


@pytest.fixture
def two_patch_conn():
    return ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))


def stacked(*patches) -> tuple[np.ndarray, ...]:
    """The rates (r, beta, gamma, k), each (P,), of the patch rows."""
    return tuple(np.array(patches, dtype=float).T)


def random_supercritical_patch(rng) -> tuple[float, ...]:
    """Random patch with beta safely above the endemic threshold."""
    r = rng.uniform(0.2, 2.0)
    gamma = rng.uniform(0.0, 2.0)
    k = rng.uniform(0.0, 3.0)
    beta = (r + gamma) * rng.uniform(1.2, 4.0)
    return r, beta, gamma, k
