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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Structural identities are exact up to rounding; tolerances are relative
# to the largest matrix entry.
STRUCT_RTOL = 1e-12


@dataclass(frozen=True)
class ConnectivityReport:
    """Per-property validation outcome for a candidate coupling matrix."""

    metzler: bool
    irreducible: bool
    row_sum_zero: bool

    @property
    def all_pass(self) -> bool:
        return self.metzler and self.irreducible and self.row_sum_zero

    def __str__(self) -> str:
        def mark(ok):
            return "pass" if ok else "FAIL"
        return (f"metzler={mark(self.metzler)} irreducible={mark(self.irreducible)} "
                f"row_sum_zero={mark(self.row_sum_zero)}")

    def failures(self) -> list[str]:
        """One message per failed property."""
        checks = ((self.metzler, "Metzler violation (negative off-diagonal)"),
                  (self.irreducible, "not irreducible (patch graph disconnected)"),
                  (self.row_sum_zero, "row sums are not zero"))
        return [message for ok, message in checks if not ok]


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


def validate_connectivity(M) -> ConnectivityReport:
    """Report the three structural properties of a candidate matrix.

    Pure report: callers decide whether to reject. The matrix must be
    square with finite entries.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ConfigError(f"connectivity matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError("connectivity matrix has non-finite entries")

    P = M.shape[0]
    off = M - np.diag(np.diag(M))
    metzler = bool(np.all(off >= 0))

    pattern = (off > 0) & ~np.eye(P, dtype=bool)
    irreducible = _is_irreducible(pattern)

    scale = np.max(np.abs(M)) or 1.0
    row_sum_zero = bool(np.max(np.abs(M.sum(axis=1))) <= STRUCT_RTOL * scale)

    return ConnectivityReport(metzler=metzler, irreducible=irreducible,
                              row_sum_zero=row_sum_zero)


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
    if np.any(V <= 0):
        raise ConfigError("all volumes must be positive")
    iu, ju = np.triu_indices(P, k=1)
    weights = x[iu, ju]
    if np.any(weights < 0):
        raise ConfigError("pair weights must be nonnegative")
    if not np.any(weights > 0):
        raise ConfigError("at least one pair weight must be positive")

    M = np.zeros((P, P))
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
    scale = np.max(np.abs(M)) or 1.0
    vscale = np.max(np.abs(V))
    if np.max(np.abs(M.sum(axis=0))) > 1e-10 * scale:
        raise ConfigError("matrix does not conserve total mass (column sums nonzero)")
    if np.max(np.abs(M @ V)) > 1e-10 * scale * vscale:
        raise ConfigError("matrix does not keep the volumes fixed (M V != 0)")
    return (M * V[np.newaxis, :]) / V[:, np.newaxis]
