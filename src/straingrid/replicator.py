"""Reduced spatial replicator system on the product of P simplices.

The right-hand side is the compact form of the reduction: per-patch
replicator reaction plus d (M z^i)_p, the coupling through the
reweighted migration matrix M = D (1 + nu) off the diagonal. The driver
integrates it in the slow time variable tau with simplex monitors.
Frequencies are plain (P, N) arrays; the integrated state is their
ravel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .ode import IntegratorConfig, Trajectory, integrate
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .reduction import (fitness_structure as fitness_structure,
                        left_eigenvector as left_eigenvector, migration_matrix as migration_matrix,
                        neutral_equilibrium as neutral_equilibrium)
from .types import require_simplex, row_sum_defect


@dataclass(frozen=True)
class ReplicatorSetup:
    """Per-patch speeds and fitness matrices plus the patch coupling: the
    frequency-coupling matrix M of the compact form and the migration
    intensity d."""

    Theta: np.ndarray            # (P,)
    Lambdas: np.ndarray          # (P, N, N)
    migration: np.ndarray        # (P, P) M
    d: float

    def __post_init__(self):
        if self.d < 0:
            raise ConfigError("migration intensity d must be >= 0")

    @property
    def n_patches(self) -> int:
        return self.Theta.shape[0]

    @property
    def n_strains(self) -> int:
        return self.Lambdas.shape[1]


def setup_from_model(model) -> ReplicatorSetup:
    """Derive the reduced system from a FullModel's rates, deviations
    and connectivity. Independent of eps by construction."""
    bg = model.background
    return ReplicatorSetup(Theta=bg.Theta, Lambdas=bg.Lambdas,
                           migration=bg.migration, d=model.d)


def _reaction(z: np.ndarray, Theta: np.ndarray, Lambdas: np.ndarray) -> np.ndarray:
    Az = np.einsum("pij,pj->pi", Lambdas, z)
    mean = np.einsum("pi,pi->p", z, Az)
    return Theta[:, None] * z * (Az - mean[:, None])


def rhs_replicator(tau: float, y: np.ndarray, setup: ReplicatorSetup) -> np.ndarray:
    """Compact form at the flat state y = z.ravel(): reaction + d * (M z^i)_p.
    Each patch's derivatives sum to zero on the simplex; tau is unused."""
    z = y.reshape(setup.n_patches, setup.n_strains)
    dz = _reaction(z, setup.Theta, setup.Lambdas)
    if setup.d != 0.0:
        dz = dz + setup.d * (setup.migration @ z)
    return dz.ravel()


def simulate_replicator(setup: ReplicatorSetup, z0: np.ndarray,
                        cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced system in slow time tau from the frequencies
    z0 (P, N) with simplex-defect and min-entry monitors."""
    P, N = setup.n_patches, setup.n_strains
    if np.shape(z0) != (P, N):
        raise ConfigError(f"z0 has shape {np.shape(z0)}, setup expects {(P, N)}")
    monitors = [partial(row_sum_defect, P=P), np.min]
    return integrate(partial(rhs_replicator, setup=setup), require_simplex(z0).ravel(), cfg,
                     monitors=monitors)
