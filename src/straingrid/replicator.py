"""Reduced spatial replicator system on the product of P simplices.

Two algebraically identical right-hand sides are provided: the compact
form coupling patches through the reweighted migration matrix, which the
driver integrates in the slow time variable tau with simplex monitors,
and the diffusion-plus-advection form that splits the coupling into the
raw connectivity and heterogeneity corrections, kept as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError
from .ode import IntegratorConfig, Trajectory, integrate
from .reduction import MigrationMatrix
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .reduction import (fitness_structure as fitness_structure,
                        left_eigenvector as left_eigenvector, migration_matrix as migration_matrix,
                        neutral_equilibrium as neutral_equilibrium)
from .types import ConnectivityMatrix, FrequencyState


@dataclass(frozen=True)
class ReplicatorSetup:
    """Per-patch speeds and fitness matrices plus the patch coupling."""

    Theta: np.ndarray            # (P,)
    Lambdas: np.ndarray          # (P, N, N)
    migration: MigrationMatrix
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
    """Derive the reduced system from a FullModel's patches, deviations
    and connectivity. Independent of eps by construction."""
    bg = model.background
    return ReplicatorSetup(Theta=bg.Theta, Lambdas=bg.Lambdas,
                           migration=bg.migration, d=model.scale.d)


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
        dz = dz + setup.d * (setup.migration.entries @ z)
    return dz.ravel()


def rhs_replicator_advection(z: FrequencyState, setup: ReplicatorSetup,
                             D: ConnectivityMatrix) -> np.ndarray:
    """Diffusion-advection form: reaction + d (D z^i)_p
    + d sum_k d_pk nu_pk (z_k^i - z_p^i). Identical to rhs_replicator,
    shaped (P, N)."""
    zz = z.z
    dz = _reaction(zz, setup.Theta, setup.Lambdas)
    if setup.d != 0.0:
        dmat = D.entries
        nu = setup.migration.advection
        diff = dmat @ zz
        adv = np.einsum("pk,pki->pi", dmat * nu, zz[None, :, :] - zz[:, None, :])
        dz = dz + setup.d * (diff + adv)
    return dz


def simulate_replicator(setup: ReplicatorSetup, z0: FrequencyState,
                        cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reduced system in slow time tau with simplex-defect and
    min-entry monitors."""
    P, N = setup.n_patches, setup.n_strains
    if z0.z.shape != (P, N):
        raise ConfigError(f"z0 has shape {z0.z.shape}, setup expects {(P, N)}")
    z0.require_simplex()
    monitors = [lambda y: float(np.max(np.abs(y.reshape(P, N).sum(axis=1) - 1.0))), np.min]
    return integrate(partial(rhs_replicator, setup=setup), z0.z.ravel(), cfg,
                     monitors=monitors)
