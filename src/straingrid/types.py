"""Core domain types.

The parameter records are immutable after construction (arrays are
copied and frozen), so instances can be shared freely across parallel
workers. The baseline rates r, beta, gamma and k are plain (P,) arrays,
held by fullsim.FullModel; rate_issue checks one patch's four values.

  - StrainPerturbations: unscaled trait deviations of the N strains.
    The quasi-neutrality scale eps multiplies them only when physical
    parameters are assembled, so one instance serves a whole eps-sweep.
  - ConnectivityMatrix: validated P x P patch-coupling matrix.

States are plain arrays. Both systems integrate a patch-major flat state:
row p of y.reshape(P, -1) holds patch p's compartments, (S_p, I_p,
D_p.ravel()) for the full system and z_p for the replicator, whose
frequencies are a (P, N) array. full_state is the only packer and
full_views the only slicer of the full layout; require_simplex guards
frequencies and row_sum_defect is the monitor of both systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidConnectivity

# Frequencies within this of the simplex, per entry and per row sum, pass
# require_simplex.
SIMPLEX_TOL = 1e-12


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def rate_issue(r, beta, gamma, k) -> str | None:
    """What makes one patch's baseline rates inadmissible, or None: r
    (birth = death rate) and beta (transmission) must be positive, gamma
    (clearance) and k (co-colonization susceptibility) nonnegative."""
    if not all(map(math.isfinite, (r, beta, gamma, k))):
        return f"rates must be finite, got r={r}, beta={beta}, gamma={gamma}, k={k}"
    if not (r > 0 and beta > 0):
        return f"r and beta must be positive, got r={r}, beta={beta}"
    if gamma < 0 or k < 0:
        return f"gamma and k must be nonnegative, got gamma={gamma}, k={k}"
    return None


@dataclass(frozen=True)
class StrainPerturbations:
    """Unscaled trait deviations for N strains in P patches.

    b[p, i]        transmission deviation of strain i in patch p
    nu[p, i]       single-infection clearance deviation
    c_pair[p, i, j] co-infection clearance deviation
    w[p, i, j]     transmission-probability deviation (prob = 1/2 + eps*w)
    alpha[p, i, j] co-colonization susceptibility deviation
    """

    b: np.ndarray
    nu: np.ndarray
    c_pair: np.ndarray
    w: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        for name in ("b", "nu", "c_pair", "w", "alpha"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        P, N = self.b.shape
        if self.nu.shape != (P, N):
            raise ConfigError(f"nu must have shape {(P, N)}, got {self.nu.shape}")
        for name in ("c_pair", "w", "alpha"):
            arr = getattr(self, name)
            if arr.shape != (P, N, N):
                raise ConfigError(f"{name} must have shape {(P, N, N)}, got {arr.shape}")
        for name in ("b", "nu", "c_pair", "w", "alpha"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} contains non-finite entries")

    @property
    def n_patches(self) -> int:
        return self.b.shape[0]

    @property
    def n_strains(self) -> int:
        return self.b.shape[1]

    @classmethod
    def zeros(cls, P: int, N: int) -> "StrainPerturbations":
        """Fully neutral strains."""
        return cls(
            b=np.zeros((P, N)),
            nu=np.zeros((P, N)),
            c_pair=np.zeros((P, N, N)),
            w=np.zeros((P, N, N)),
            alpha=np.zeros((P, N, N)),
        )


@dataclass(frozen=True)
class ConnectivityMatrix:
    """P x P patch-coupling matrix: Metzler, irreducible, zero row sums.

    Construction validates all three properties and raises
    InvalidConnectivity with the failed ones, as
    connectivity.validate_connectivity lists them.
    """

    entries: np.ndarray

    def __post_init__(self):
        # Looked up at each construction, not imported with the module, so a
        # hook on connectivity.validate_connectivity (perfbench/spans.py)
        # sees every one.
        from .connectivity import validate_connectivity

        object.__setattr__(self, "entries", _frozen(self.entries))
        failures = validate_connectivity(self.entries)
        if failures:
            raise InvalidConnectivity(failures)

    @property
    def n_patches(self) -> int:
        return self.entries.shape[0]


def full_state(S, I, D) -> np.ndarray:
    """The flat patch-major full state of S (P,), I (P, N) and D (P, N, N),
    D[p, i, j] being the proportion co-infected first by i then by j."""
    S, I, D = (np.asarray(a, dtype=float) for a in (S, I, D))
    if I.ndim != 2 or S.shape != I.shape[:1] or D.shape != I.shape + I.shape[1:]:
        raise ConfigError(f"inconsistent state shapes S={S.shape} I={I.shape} D={D.shape}")
    P, N = I.shape
    y = np.empty(P * (1 + N + N * N))
    for view, part in zip(full_views(y, P, N), (S, I, D)):
        view[...] = part
    return y


def full_views(y: np.ndarray, P: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S (..., P), I (..., P, N), D (..., P, N, N)) views, not copies, of the
    flat full state y (..., P(1+N+N^2)); leading axes index samples."""
    Y = y.reshape(*y.shape[:-1], P, 1 + N + N * N)
    return Y[..., 0], Y[..., 1:1 + N], Y[..., 1 + N:].reshape(*Y.shape[:-1], N, N)


def row_sum_defect(y: np.ndarray, P: int) -> float:
    """max_p |sum of row p - 1| of a flat state: the full system's mass
    defect and the replicator's simplex defect."""
    return float(np.max(np.abs(y.reshape(P, -1).sum(axis=1) - 1.0)))


def require_simplex(z) -> np.ndarray:
    """A float copy of the frequencies z (P, N); ConfigError unless every row
    lies on the simplex, up to SIMPLEX_TOL (NaN entries fail)."""
    z = np.array(z, dtype=float)
    if z.ndim != 2:
        raise ConfigError(f"z must be 2-d (patch, strain), got shape {z.shape}")
    if not (z.min() >= -SIMPLEX_TOL and z.max() <= 1.0 + SIMPLEX_TOL
            and row_sum_defect(z, z.shape[0]) <= SIMPLEX_TOL):
        raise ConfigError("initial frequencies are off the simplex product")
    return z
