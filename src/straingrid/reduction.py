"""Closed-form objects of the slow-fast reduction, each one array
expression over all patches (a single patch is the case P = 1).

The baseline rates are the tuple rates = (r, beta, gamma, k) of (P,)
arrays that FullModel holds, and `neutral_equilibrium` maps them to the
endemic points eq = (S*, I*, D*, T*) of the aggregated single-strain
systems, each a (P,) array. The other forms take these tuples: the 2x2
drift matrices whose kernels carry the slow strain frequencies, their
positive left kernel vectors (phi, psi), the speeds of the slow dynamics
with their five trait weights, the pairwise invasion fitness matrices,
and the cross-patch migration matrix with its advection coefficients.
`build_background` calls each once.

All formulas are explicit; no numerical eigensolver is involved (tests
cross-check the eigenvector against a numerical left-kernel solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SubcriticalPatch
from .types import ConnectivityMatrix, StrainPerturbations


def neutral_equilibrium(rates) -> tuple[np.ndarray, ...]:
    """Endemic equilibria (S*, I*, D*, T*), T* = 1 - S*, of the aggregated
    single-strain patch dynamics.

    Raises SubcriticalPatch, naming the first such patch, when
    beta <= r + gamma (the infection dies out and the reduction is
    undefined).
    """
    r, beta, gamma, k = rates
    subcritical = np.flatnonzero(~(beta > r + gamma))
    if subcritical.size:
        p = subcritical[0]
        raise SubcriticalPatch(
            f"patch {p}: beta={beta[p]} <= r+gamma={r[p] + gamma[p]}: no endemic equilibrium")
    S = (r + gamma) / beta
    T = 1.0 - S
    I = beta * T * S / (r + gamma + k * beta * T)
    D = k * beta * T * I / (r + gamma)
    return S, I, D, T


def drift_matrix(rates, eq) -> np.ndarray:
    """(P, 2, 2): the matrices governing per-strain deviations near the
    equilibria.

    The kernel of matrix p is spanned by X_p* = (I_p*, D_p*); its other
    eigenvalue equals the (negative) trace.
    """
    r, beta, gamma, k = rates
    S, I, _, T = eq
    return np.stack([-k * beta * T, beta * S,
                     0.5 * k * beta * (T + I), 0.5 * k * beta * I - (r + gamma)],
                    axis=-1).reshape(-1, 2, 2)


def left_eigenvector(eq) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form positive left kernel vectors (phi, psi) with
    omega_p . X_p* = 1, omega_p = (phi_p, psi_p)."""
    _, I, D, T = eq
    norm = 2.0 * T * T - I * D
    return (T + I) / norm, 2.0 * T / norm


def speed_and_weights(rates, eq) -> tuple[np.ndarray, np.ndarray]:
    """Speeds Theta (P,) of the slow dynamics and their trait weights
    theta (P, 5), each row summing to 1.

    The five components weight, in order: transmission, single clearance,
    co-infection clearance, transmission probability, and co-colonization
    susceptibility deviations.
    """
    r, beta, gamma, _ = rates
    _, I, D, T = eq
    norm = 2.0 * T * T - I * D
    Theta_s = np.stack([
        2.0 * (r + gamma) * T * T,
        gamma * I * (I + T),
        gamma * T * D,
        2.0 * (r + gamma) * T * D,
        beta * I * T,
    ], axis=-1) / norm[:, None]
    Theta = Theta_s.sum(axis=-1)
    return Theta, Theta_s / Theta[:, None]


def fitness_matrix(rates, eq, pert: StrainPerturbations,
                   theta: np.ndarray) -> np.ndarray:
    """Pairwise invasion fitness matrices Lambda (P, N, N).

    lambda_p[i, j] is the linearized advantage of strain i over resident
    j in patch p, assembled from the trait deviations with the five
    weights theta[p]. The deviations of the baseline rates enter relative
    to those rates (b/beta, nu/gamma, c/gamma), the dimensionless
    deviations (w, alpha) enter directly, and the transmission deviation
    also shifts the effective co-colonization susceptibility by
    (k/beta)(b_i - b_j) because the co-colonization influx carries the
    invader's transmission rate. This makes lambda dimensionless and is
    verified against a direct numerical projection of the full dynamics
    onto its slow manifold. The diagonal is identically zero.
    """
    if theta.shape != (pert.n_patches, 5):
        raise ConfigError(f"theta must have shape {(pert.n_patches, 5)}, got {theta.shape}")
    _, beta, gamma, k = rates
    _, I, D, _ = eq
    b = pert.b / beta[:, None]
    # theta[:, 1] and theta[:, 2] vanish proportionally to gamma, so the
    # gamma = 0 limit of theta*c/gamma is zero.
    cleared = gamma > 0
    nu = np.divide(pert.nu, gamma[:, None], out=np.zeros_like(pert.nu),
                   where=cleared[:, None])
    c = np.divide(pert.c_pair, gamma[:, None, None], out=np.zeros_like(pert.c_pair),
                  where=cleared[:, None, None])
    w = pert.w
    db = b[:, :, None] - b[:, None, :]               # db[p, i, j] = b_i - b_j
    a = pert.alpha + k[:, None, None] * db
    aT, cT = a.swapaxes(1, 2), c.swapaxes(1, 2)
    a_jj, c_jj = (np.diagonal(x, axis1=1, axis2=2)[:, None, :] for x in (a, c))
    t = theta.T[:, :, None, None]                    # t[m] broadcasts over (P, N, N)
    return (t[0] * db
            + t[1] * (nu[:, None, :] - nu[:, :, None])
            + t[2] * (-c - cT + 2.0 * c_jj)
            + t[3] * (w - w.swapaxes(1, 2))
            + t[4] * (I[:, None, None] * (aT - a) + D[:, None, None] * (aT - a_jj)))


def fitness_structure(rates, eq, pert: StrainPerturbations):
    """Theta (P,), theta (P, 5) and Lambda (P, N, N) of all patches."""
    Theta, theta = speed_and_weights(rates, eq)
    return Theta, theta, fitness_matrix(rates, eq, pert, theta)


def migration_matrix(connectivity: ConnectivityMatrix, eq,
                     omega) -> tuple[np.ndarray, np.ndarray]:
    """The frequency-coupling matrix M and the advection nu, each (P, P):
    the connectivity reweighted by cross-patch equilibrium overlaps.

    M[p, k] = d_pk * (phi_p I_k* + psi_p D_k*) for p != k, with the
    diagonal closing the row sums to zero, and nu[p, k] =
    omega_p . (X_k* - X_p*), so M[p, k] = d_pk * (1 + nu[p, k]) off the
    diagonal. When all patches share the same equilibrium the overlaps
    are 1 and M equals D.
    """
    dmat = connectivity.entries
    P = dmat.shape[0]
    _, I, D, _ = eq
    if np.shape(I) != (P,) or np.shape(omega[0]) != (P,):
        raise ConfigError("need one equilibrium and eigenvector per patch")
    X = np.stack([I, D], axis=1)                     # (P, 2), row k is X_k*
    W = np.stack(omega, axis=1)                      # (P, 2), row p is omega_p
    overlap = W @ X.T                                # overlap[p, k] = omega_p . X_k*
    nu = overlap - np.diag(overlap)[:, None]         # omega_p . (X_k* - X_p*)
    np.fill_diagonal(nu, 0.0)

    M = dmat * overlap
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1))
    return M, nu


@dataclass(frozen=True)
class Background:
    """The eps-independent reduction objects of all patches, read-only:
    row p of each array belongs to patch p."""

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
    migration: np.ndarray        # (P, P) M
    advection: np.ndarray        # (P, P) nu


def build_background(rates, pert: StrainPerturbations,
                     connectivity: ConnectivityMatrix) -> Background:
    """Evaluate every closed form once over all patches of the rates
    (r, beta, gamma, k). Raises SubcriticalPatch when some patch has no
    endemic equilibrium."""
    eq = neutral_equilibrium(rates)
    omega = left_eigenvector(eq)
    arrays = (*eq, *omega, drift_matrix(rates, eq), *fitness_structure(rates, eq, pert),
              *migration_matrix(connectivity, eq, omega))
    for a in arrays:
        a.setflags(write=False)
    return Background(*arrays)
