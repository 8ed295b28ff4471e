"""Connectivity-matrix construction and validation.

A valid patch-coupling matrix is Metzler (nonnegative off-diagonals),
irreducible (strongly connected positivity pattern) and has zero row
sums, so that patch densities are conserved by migration.

For patches of unequal volume, ``volume_matrix`` builds an
abundance-conserving matrix from pairwise exchange stencils, and
``renormalize_to_density`` conjugates it by diag(V) into the density
convention (zero row sums).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError

# Structural identities are exact up to rounding; tolerances are relative
# to the largest matrix entry.
STRUCT_RTOL = 1e-12


def _is_irreducible(pattern: np.ndarray) -> bool:
    """Strong connectivity of the directed graph of positive off-diagonals,
    by boolean reachability closure (fine for the few-hundred-patch scale)."""
    P = pattern.shape[0]
    if P == 1:
        return True
    reach = pattern | np.eye(P, dtype=bool)
    for _ in range(int(np.ceil(np.log2(P))) + 1):
        reach = reach @ reach
    return bool(reach.all())


def validate_connectivity(M) -> list[str]:
    """The messages of the structural properties a candidate matrix fails;
    an empty list means it is valid.

    Callers decide whether to reject. The matrix must be square with
    finite entries.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ConfigError(f"connectivity matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError("connectivity matrix has non-finite entries")

    P = M.shape[0]
    off = M - np.diag(np.diag(M))
    pattern = (off > 0) & ~np.eye(P, dtype=bool)
    scale = np.max(np.abs(M)) or 1.0
    # Rows are summed in units of the largest entry, which cannot overflow.
    checks = ((np.all(off >= 0), "Metzler violation (negative off-diagonal)"),
              (_is_irreducible(pattern), "not irreducible (patch graph disconnected)"),
              (np.max(np.abs((M / scale).sum(axis=1))) <= STRUCT_RTOL, "row sums are not zero"))
    return [message for ok, message in checks if not ok]


@contextmanager
def _overflow_is_config_error(what: str):
    """Float overflow (or an invalid result) inside the block raises
    ConfigError naming `what` instead of warning or yielding inf."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ConfigError(f"{what} overflows the float range") from None


def volume_matrix(V, x) -> np.ndarray:
    """Abundance-conserving exchange matrix for patch volumes V.

    For each pair i < j with weight x[i, j] >= 0, the stencil contributes
    M[i,i] -= V_j, M[i,j] += V_i, M[j,i] += V_j, M[j,j] -= V_i (times the
    weight). The result has zero column sums (total mass conserved) and
    annihilates V (each volume stays constant).
    """
    V = np.asarray(V, dtype=float)
    x = np.asarray(x, dtype=float)
    P = V.shape[0]
    if x.shape != (P, P):
        raise ConfigError(f"weights must be a {P}x{P} array, got shape {x.shape}")
    if not np.all(np.isfinite(V)):
        raise ConfigError("volumes must be finite")
    if not np.all(np.isfinite(x)):
        raise ConfigError("pair weights must be finite")
    if np.any(V <= 0):
        raise ConfigError("all volumes must be positive")
    iu, ju = np.triu_indices(P, k=1)
    weights = x[iu, ju]
    if np.any(weights < 0):
        raise ConfigError("pair weights must be nonnegative")
    if not np.any(weights > 0):
        raise ConfigError("at least one pair weight must be positive")

    M = np.zeros((P, P))
    with _overflow_is_config_error("exchange stencil"):
        for i, j, w in zip(iu, ju, weights):
            if w == 0.0:
                continue
            M[i, i] -= w * V[j]
            M[i, j] += w * V[i]
            M[j, i] += w * V[j]
            M[j, j] -= w * V[i]
    return M


def renormalize_to_density(M, V) -> np.ndarray:
    """Conjugate an abundance-conserving matrix into density convention.

    Returns diag(V)^-1 M diag(V), which has zero row sums whenever M has
    zero column sums and M V = 0.
    """
    M = np.asarray(M, dtype=float)
    V = np.asarray(V, dtype=float)
    if np.any(V <= 0):
        raise ConfigError("all volumes must be positive")
    with _overflow_is_config_error("density matrix"):
        scale = np.max(np.abs(M)) or 1.0
        vscale = np.max(np.abs(V))
        if np.max(np.abs(M.sum(axis=0))) > 1e-10 * scale:
            raise ConfigError("matrix does not conserve total mass (column sums nonzero)")
        if np.max(np.abs(M @ V)) > 1e-10 * scale * vscale:
            raise ConfigError("matrix does not keep the volumes fixed (M V != 0)")
        return (M * V[np.newaxis, :]) / V[:, np.newaxis]
