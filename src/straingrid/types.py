"""Core domain types.

Everything here is immutable after construction (arrays are copied and
frozen), so instances can be shared freely across parallel workers.

  - PatchParams: per-patch baseline epidemiological rates.
  - StrainPerturbations: unscaled trait deviations of the N strains.
    The quasi-neutrality scale eps multiplies them only when physical
    parameters are assembled, so one instance serves a whole eps-sweep.
  - ScaleParams: eps and the rescaled migration intensity d.
  - ConnectivityMatrix: validated P x P patch-coupling matrix.
  - FullState / FrequencyState: state containers with pure invariant
    predicates usable as integration monitors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidConnectivity


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PatchParams:
    """Baseline (strain-independent) rates of one patch."""

    r: float        # birth rate, equal to death rate (1/time)
    beta: float     # transmission rate (1/time)
    gamma: float    # clearance rate (1/time)
    k: float        # co-colonization susceptibility factor (dimensionless)

    def __post_init__(self):
        if not (self.r > 0 and self.beta > 0):
            raise ConfigError(f"r and beta must be positive, got r={self.r}, beta={self.beta}")
        if self.gamma < 0 or self.k < 0:
            raise ConfigError(f"gamma and k must be nonnegative, got gamma={self.gamma}, k={self.k}")

    @property
    def supercritical(self) -> bool:
        """R0 = beta/(r+gamma) > 1; required for the endemic equilibrium."""
        return self.beta > self.r + self.gamma


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
class ScaleParams:
    """Quasi-neutrality scale eps and rescaled migration intensity d.

    The physical migration rate is delta = eps * d.
    """

    eps: float
    d: float

    def __post_init__(self):
        # eps = 0 is the exactly neutral, migration-free system, used by
        # the neutral-limit checks.
        if self.eps < 0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")
        if self.d < 0:
            raise ConfigError(f"d must be >= 0, got {self.d}")

    @property
    def delta(self) -> float:
        return self.eps * self.d

    def with_eps(self, eps: float) -> "ScaleParams":
        return ScaleParams(eps=eps, d=self.d)


@dataclass(frozen=True)
class ConnectivityMatrix:
    """P x P patch-coupling matrix: Metzler, irreducible, zero row sums.

    Construction validates all three properties; see
    connectivity.validate_connectivity for the report form.
    """

    entries: np.ndarray

    def __post_init__(self):
        from .connectivity import validate_connectivity  # cycle guard

        object.__setattr__(self, "entries", _frozen(self.entries))
        report = validate_connectivity(self.entries)
        if not report.all_pass:
            raise InvalidConnectivity(report)

    @property
    def n_patches(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FullState:
    """Proportions (S_p, I_p^i, D_p^{ij}) of the full co-colonization model.

    D[p, i, j] is the proportion co-infected first by i then by j; the
    ordered pair matters because the transmission probabilities are
    asymmetric in the acquisition order.
    """

    S: np.ndarray   # (P,)
    I: np.ndarray   # (P, N)
    D: np.ndarray   # (P, N, N)

    def __post_init__(self):
        for name in ("S", "I", "D"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        P = self.S.shape[0]
        N = self.I.shape[1]
        if self.I.shape != (P, N) or self.D.shape != (P, N, N):
            raise ConfigError(
                f"inconsistent state shapes S={self.S.shape} I={self.I.shape} D={self.D.shape}")

    @property
    def n_patches(self) -> int:
        return self.S.shape[0]

    @property
    def n_strains(self) -> int:
        return self.I.shape[1]

    def patch_mass(self) -> np.ndarray:
        """Sigma_p = S_p + sum_i I_p^i + sum_ij D_p^{ij}."""
        return self.S + self.I.sum(axis=1) + self.D.sum(axis=(1, 2))

    def mass_defect(self) -> float:
        return float(np.max(np.abs(self.patch_mass() - 1.0)))

    def min_entry(self) -> float:
        return float(min(self.S.min(), self.I.min(), self.D.min()))

    def is_valid(self, tol: float = 1e-9) -> bool:
        """Pure predicate: inside [0,1] and unit patch mass, up to tol."""
        return (self.min_entry() >= -tol
                and max(self.S.max(), self.I.max(), self.D.max()) <= 1.0 + tol
                and self.mass_defect() <= tol)

    def ravel(self) -> np.ndarray:
        return np.concatenate([self.S, self.I.ravel(), self.D.ravel()])

    @classmethod
    def unravel(cls, y: np.ndarray, P: int, N: int) -> "FullState":
        S = y[:P]
        I = y[P:P + P * N].reshape(P, N)
        D = y[P + P * N:].reshape(P, N, N)
        return cls(S=S, I=I, D=D)


@dataclass(frozen=True)
class FrequencyState:
    """Strain frequencies z[p, i] on the product of P simplices."""

    z: np.ndarray   # (P, N)

    def __post_init__(self):
        object.__setattr__(self, "z", _frozen(self.z))
        if self.z.ndim != 2:
            raise ConfigError(f"z must be 2-d (patch, strain), got shape {self.z.shape}")

    @property
    def n_patches(self) -> int:
        return self.z.shape[0]

    @property
    def n_strains(self) -> int:
        return self.z.shape[1]

    def simplex_defect(self) -> float:
        return float(np.max(np.abs(self.z.sum(axis=1) - 1.0)))

    def min_entry(self) -> float:
        return float(self.z.min())

    def is_valid(self, tol: float = 1e-9) -> bool:
        """Pure predicate: on the simplex product, up to tol."""
        return (self.min_entry() >= -tol
                and self.z.max() <= 1.0 + tol
                and self.simplex_defect() <= tol)

    def require_simplex(self):
        """Raise ConfigError unless every row lies on the simplex, up to 1e-12."""
        if not self.is_valid(1e-12):
            raise ConfigError("initial frequencies are off the simplex product")
