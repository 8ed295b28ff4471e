"""Closed-form objects of the slow-fast reduction.

Per supercritical patch: the endemic equilibrium of the aggregated
single-strain system, the 2x2 drift matrix whose kernel carries the slow
strain frequencies, its normalized positive left eigenvector, the speed
of the slow dynamics with its five trait weights, the pairwise invasion
fitness matrix, and the cross-patch migration matrix with its advection
coefficients; `build_background` stacks them into one eps-independent record.

All formulas are explicit; no numerical eigensolver is involved (tests
cross-check the eigenvector against a numerical left-kernel solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SubcriticalPatch
from .types import (ConnectivityMatrix, PatchParams, StrainPerturbations,
                    _frozen)


@dataclass(frozen=True)
class NeutralEquilibrium:
    """Endemic point (S*, I*, D*) of one patch, with T* = 1 - S*."""

    S_star: float
    I_star: float
    D_star: float
    T_star: float

    @property
    def X_star(self) -> np.ndarray:
        """(I*, D*), the kernel eigenvector of the drift matrix."""
        return np.array([self.I_star, self.D_star])


@dataclass(frozen=True)
class LeftEigenvector:
    """Positive left kernel vector (phi, psi) normalized against X*."""

    phi: float
    psi: float

    @property
    def omega(self) -> np.ndarray:
        return np.array([self.phi, self.psi])


@dataclass(frozen=True)
class FitnessStructure:
    """Speed Theta, trait weights theta (5-vector) and fitness matrix Lambda
    of one patch."""

    Theta: float
    theta: np.ndarray
    Lambda: np.ndarray


@dataclass(frozen=True)
class MigrationMatrix:
    """Frequency-coupling matrix of the reduced system.

    entries[p, k] = d_pk * (omega_p . X_k*) off the diagonal, diagonal set
    to minus the off-diagonal row sum. advection[p, k] stores
    nu_pk = omega_p . (X_k* - X_p*), so entries[p, k] = d_pk * (1 + nu_pk).
    """

    entries: np.ndarray
    advection: np.ndarray


def neutral_equilibrium(params: PatchParams) -> NeutralEquilibrium:
    """Endemic equilibrium of the aggregated single-strain patch dynamics.

    Raises SubcriticalPatch when beta <= r + gamma (the infection dies
    out and the reduction is undefined).
    """
    r, beta, gamma, k = params.r, params.beta, params.gamma, params.k
    if not params.supercritical:
        raise SubcriticalPatch(
            f"beta={beta} <= r+gamma={r + gamma}: no endemic equilibrium")
    S = (r + gamma) / beta
    T = 1.0 - S
    I = beta * T * S / (r + gamma + k * beta * T)
    D = k * beta * T * I / (r + gamma)
    return NeutralEquilibrium(S_star=S, I_star=I, D_star=D, T_star=T)


def drift_matrix(eq: NeutralEquilibrium, params: PatchParams) -> np.ndarray:
    """2x2 matrix governing per-strain deviations near the equilibrium.

    Its kernel is spanned by X* = (I*, D*); the other eigenvalue equals
    the (negative) trace.
    """
    r, beta, gamma, k = params.r, params.beta, params.gamma, params.k
    T, S, I = eq.T_star, eq.S_star, eq.I_star
    return np.array([
        [-k * beta * T, beta * S],
        [0.5 * k * beta * (T + I), 0.5 * k * beta * I - (r + gamma)],
    ])


def left_eigenvector(eq: NeutralEquilibrium) -> LeftEigenvector:
    """Closed-form positive left kernel vector with omega . X* = 1."""
    T, I, D = eq.T_star, eq.I_star, eq.D_star
    P = 2.0 * T * T - I * D
    return LeftEigenvector(phi=(T + I) / P, psi=2.0 * T / P)


def speed_and_weights(eq: NeutralEquilibrium, params: PatchParams):
    """Speed Theta of the slow dynamics and its five trait weights.

    Returns (Theta, theta) with theta summing to 1. The five components
    weight, in order: transmission, single clearance, co-infection
    clearance, transmission probability, and co-colonization
    susceptibility deviations.
    """
    r, beta, gamma = params.r, params.beta, params.gamma
    T, I, D = eq.T_star, eq.I_star, eq.D_star
    P = 2.0 * T * T - I * D
    Theta_s = np.array([
        2.0 * (r + gamma) * T * T,
        gamma * I * (I + T),
        gamma * T * D,
        2.0 * (r + gamma) * T * D,
        beta * I * T,
    ]) / P
    Theta = float(Theta_s.sum())
    return Theta, Theta_s / Theta


def fitness_matrix(eq: NeutralEquilibrium, params: PatchParams,
                   pert: StrainPerturbations, theta: np.ndarray,
                   patch: int) -> np.ndarray:
    """Pairwise invasion fitness matrix Lambda of one patch.

    lambda[i, j] is the linearized advantage of strain i over resident j,
    assembled from the trait deviations with the five weights theta. The
    deviations of the baseline rates enter relative to those rates
    (b/beta, nu/gamma, c/gamma), the dimensionless deviations (w, alpha)
    enter directly, and the transmission deviation also shifts the
    effective co-colonization susceptibility by (k/beta)(b_i - b_j)
    because the co-colonization influx carries the invader's
    transmission rate. This makes lambda dimensionless and is verified
    against a direct numerical projection of the full dynamics onto its
    slow manifold. The diagonal is identically zero.
    """
    if theta.shape != (5,):
        raise ConfigError(f"theta must be a 5-vector, got shape {theta.shape}")
    beta, gamma, k = params.beta, params.gamma, params.k
    b = pert.b[patch] / beta
    # theta[1] and theta[2] vanish proportionally to gamma, so the
    # gamma = 0 limit of theta*c/gamma is zero.
    if gamma > 0:
        nu = pert.nu[patch] / gamma
        c = pert.c_pair[patch] / gamma
    else:
        nu = np.zeros_like(pert.nu[patch])
        c = np.zeros_like(pert.c_pair[patch])
    w = pert.w[patch]
    a = pert.alpha[patch] + k * (b[:, None] - b[None, :])
    I, D = eq.I_star, eq.D_star

    lam = (theta[0] * (b[:, None] - b[None, :])
           + theta[1] * (nu[None, :] - nu[:, None])
           + theta[2] * (-c - c.T + 2.0 * np.diag(c)[None, :])
           + theta[3] * (w - w.T)
           + theta[4] * (I * (a.T - a) + D * (a.T - np.diag(a)[None, :])))
    return lam


def fitness_structure(eq: NeutralEquilibrium, params: PatchParams,
                      pert: StrainPerturbations, patch: int) -> FitnessStructure:
    """Bundle Theta, theta and Lambda for one patch."""
    Theta, theta = speed_and_weights(eq, params)
    lam = fitness_matrix(eq, params, pert, theta, patch)
    return FitnessStructure(Theta=Theta, theta=theta, Lambda=lam)


def migration_matrix(D: ConnectivityMatrix, eqs: list[NeutralEquilibrium],
                     omegas: list[LeftEigenvector]) -> MigrationMatrix:
    """Reweight the connectivity by cross-patch equilibrium overlaps.

    entries[p, k] = d_pk * (phi_p I_k* + psi_p D_k*) for p != k, with the
    diagonal closing the row sums to zero. When all patches share the
    same equilibrium the overlaps are 1 and the result equals D.
    """
    dmat = D.entries
    P = dmat.shape[0]
    if len(eqs) != P or len(omegas) != P:
        raise ConfigError("need one equilibrium and eigenvector per patch")
    X = np.array([eq.X_star for eq in eqs])          # (P, 2)
    W = np.array([om.omega for om in omegas])        # (P, 2)
    overlap = W @ X.T                                # overlap[p, k] = omega_p . X_k*
    nu = overlap - np.diag(overlap)[:, None]         # omega_p . (X_k* - X_p*)
    np.fill_diagonal(nu, 0.0)

    M = dmat * overlap
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1))
    return MigrationMatrix(entries=M, advection=nu)


@dataclass(frozen=True)
class Background:
    """The eps-independent reduction objects of all patches: row p of each
    array is the per-patch closed form of patch p."""

    S_star: np.ndarray           # (P,)
    I_star: np.ndarray           # (P,)
    D_star: np.ndarray           # (P,)
    T_star: np.ndarray           # (P,)
    phi: np.ndarray              # (P,)
    psi: np.ndarray              # (P,)
    drift: np.ndarray            # (P, 2, 2)
    Theta: np.ndarray            # (P,)
    theta: np.ndarray            # (P, 5)
    Lambdas: np.ndarray          # (P, N, N)
    migration: MigrationMatrix


def build_background(patches: tuple[PatchParams, ...], pert: StrainPerturbations,
                     connectivity: ConnectivityMatrix) -> Background:
    """Evaluate every per-patch closed form once and stack the results.
    Raises SubcriticalPatch when some patch has no endemic equilibrium."""
    eqs = [neutral_equilibrium(p) for p in patches]
    omegas = [left_eigenvector(eq) for eq in eqs]
    structs = [fitness_structure(eq, p, pert, i)
               for i, (eq, p) in enumerate(zip(eqs, patches))]
    return Background(
        S_star=_frozen([eq.S_star for eq in eqs]),
        I_star=_frozen([eq.I_star for eq in eqs]),
        D_star=_frozen([eq.D_star for eq in eqs]),
        T_star=_frozen([eq.T_star for eq in eqs]),
        phi=_frozen([om.phi for om in omegas]),
        psi=_frozen([om.psi for om in omegas]),
        drift=_frozen([drift_matrix(eq, p) for eq, p in zip(eqs, patches)]),
        Theta=_frozen([fs.Theta for fs in structs]),
        theta=_frozen([fs.theta for fs in structs]),
        Lambdas=_frozen([fs.Lambda for fs in structs]),
        migration=migration_matrix(connectivity, eqs, omegas),
    )
