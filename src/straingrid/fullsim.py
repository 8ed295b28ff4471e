"""Full N-strain, P-patch co-colonization SIS system.

Assembles the physical strain-specific parameters from the baseline
rates and the eps-scaled trait deviations, provides the right-hand side
of the full model on the patch-major flat state (row p of
y.reshape(P, -1) is (S_p, I_p, D_p.ravel()), see types.full_views),
slow-manifold initialization, frequency extraction through the left
kernel eigenvectors, and a simulation driver with mass and negativity
monitors. States are plain arrays: the flat full state, and (P, N)
frequencies. Extraction is two maps, each taking a whole stack in one
call: slow_observables projects flat states (..., dim) on the rows
(S_p, u_p) (..., P, 1+N), and observed_frequencies renormalizes u_p to
frequencies (..., P, N). A run can record only the first map's rows
(simulate_full(..., observe=...)) and normalize afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, ExtinctPatch
from .ode import IntegratorConfig, Trajectory, integrate
from .reduction import Background, build_background, patch_rates
from .types import (ConnectivityMatrix, PatchParams, ScaleParams, StrainPerturbations,
                    full_state, full_views, require_simplex, row_sum_defect)

# Below this total weighted strain mass in a patch, frequencies are
# considered undefined.
EXTINCTION_THRESHOLD = 1e-300


@dataclass(frozen=True)
class FullModel:
    """Physical parameterization of the full system.

    Strain-specific rates are baseline + eps * deviation; the migration
    rate is delta = eps * d. __post_init__ assembles them into read-only
    attributes, not fields: r (P,), beta_i, gamma_i (P, N), gamma_ij, k_ij
    and prob_first = P^{(i,j)->i} = 1/2 + eps*w (P, N, N).
    """

    patches: tuple[PatchParams, ...]
    pert: StrainPerturbations
    scale: ScaleParams
    connectivity: ConnectivityMatrix

    def __post_init__(self):
        P = len(self.patches)
        if self.pert.n_patches != P:
            raise ConfigError(f"perturbations cover {self.pert.n_patches} patches, model has {P}")
        if self.connectivity.n_patches != P:
            raise ConfigError("connectivity size does not match patch count")
        eps = self.scale.eps
        r, beta, gamma, k = patch_rates(self.patches)
        beta, gamma, k = beta[:, None], gamma[:, None], k[:, None, None]

        object.__setattr__(self, "r", r)
        object.__setattr__(self, "beta_i", beta + eps * self.pert.b)
        object.__setattr__(self, "gamma_i", gamma + eps * self.pert.nu)
        object.__setattr__(self, "gamma_ij", gamma[..., None] + eps * self.pert.c_pair)
        object.__setattr__(self, "k_ij", k + eps * self.pert.alpha)
        object.__setattr__(self, "prob_first", 0.5 + eps * self.pert.w)

        if np.any(self.beta_i <= 0) or np.any(self.gamma_i < 0) \
                or np.any(self.gamma_ij < 0) or np.any(self.k_ij < 0):
            raise ConfigError("assembled strain rates leave the admissible range; reduce eps")
        if np.any(self.prob_first < 0) or np.any(self.prob_first > 1):
            raise ConfigError("transmission probabilities leave [0,1]; reduce eps or |w|")
        for a in (self.r, self.beta_i, self.gamma_i, self.gamma_ij, self.k_ij,
                  self.prob_first):
            a.setflags(write=False)

    @property
    def n_patches(self) -> int:
        return len(self.patches)

    @property
    def n_strains(self) -> int:
        return self.pert.n_strains

    @cached_property
    def background(self) -> Background:
        """The eps-independent reduction objects, built on first use."""
        return build_background(self.patches, self.pert, self.connectivity)

    def with_eps(self, eps: float) -> "FullModel":
        """Same model at a different eps."""
        return replace(self, scale=self.scale.with_eps(eps))


def transmissible_load(model: FullModel, I: np.ndarray, D: np.ndarray) -> np.ndarray:
    """J[p, i]: proportion of hosts transmitting strain i in patch p.

    Single-infected transmit their strain; co-infected (i then j) hosts
    transmit i with probability prob_first[p, i, j] and j otherwise.
    """
    pf = model.prob_first
    return I + np.einsum("pij,pij->pi", pf, D) + np.einsum("pji,pji->pi", 1.0 - pf, D)


def rhs_full(t: float, y: np.ndarray, model: FullModel) -> np.ndarray:
    """Time derivative of the full system at the flat state y (pure; the
    system is autonomous, so t is unused)."""
    P, N = model.n_patches, model.n_strains
    S, I, D = full_views(y, P, N)
    J = transmissible_load(model, I, D)            # (P, N)
    infection = model.beta_i * J * S[:, None]      # (P, N)
    # co-colonization influx into D[p, i, j]: susceptible-to-j of i-singles
    co = model.k_ij * model.beta_i[:, :, None] * I[:, :, None] * J[:, None, :]

    dy = np.empty_like(y)
    dS, dI, dD = full_views(dy, P, N)
    dS[:] = (model.r * (1.0 - S)
             + np.einsum("pi,pi->p", model.gamma_i, I)
             + np.einsum("pij,pij->p", model.gamma_ij, D)
             - infection.sum(axis=1))
    dI[:] = infection - (model.r[:, None] + model.gamma_i) * I - co.sum(axis=2)
    dD[:] = co - (model.r[:, None, None] + model.gamma_ij) * D
    delta = model.scale.delta
    if delta != 0.0:   # migration acts on the patch index of every compartment at once
        dy += delta * (model.connectivity.entries @ y.reshape(P, -1)).ravel()
    return dy


def init_on_manifold(z0: np.ndarray, background: Background) -> np.ndarray:
    """Flat product state S = S*, I^i = I* z^i, D^{ij} = D* z^i z^j of the
    frequencies z0 (P, N), which must lie on the simplex product (up to
    types.SIMPLEX_TOL)."""
    z = require_simplex(z0)
    if z.shape[0] != background.S_star.shape[0]:
        raise ConfigError("need one equilibrium per patch")
    I = background.I_star[:, None] * z
    D = background.D_star[:, None, None] * z[:, :, None] * z[:, None, :]
    return full_state(background.S_star, I, D)


def slow_observables(y: np.ndarray, background: Background) -> np.ndarray:
    """Rows (..., P, 1+N) = (S_p, u_p) of the flat full states y (..., dim).

    u[p, i] = phi_p I^i + psi_p D^i is the projection on the slow kernel
    coordinates, with D^i = 1/2 sum_j (D^ij + D^ji) the symmetrized pair
    load; it is all that frequency extraction reads of a state.
    """
    P, N = background.Lambdas.shape[:2]
    S, I, D = full_views(y, P, N)
    out = np.empty(S.shape + (1 + N,))
    out[..., 0] = S
    Dsym = 0.5 * (D.sum(axis=-1) + D.sum(axis=-2))
    out[..., 1:] = background.phi[:, None] * I + background.psi[:, None] * Dsym
    return out


def observed_frequencies(obs: np.ndarray) -> np.ndarray:
    """Frequencies (..., P, N) of slow_observables rows (..., P, 1+N).

    Each u_p is renormalized to the simplex, so the result is a valid
    frequency state even off the attractor."""
    u = obs[..., 1:]
    total = u.sum(axis=-1)
    if np.any(total < EXTINCTION_THRESHOLD):
        dead = int(np.argmin(total)) % total.shape[-1]
        raise ExtinctPatch(f"no strain mass left in patch {dead}")
    return u / total[..., None]


def extract_frequencies(y: np.ndarray, background: Background) -> np.ndarray:
    """Frequencies (..., P, N) of the flat full states y (..., dim)."""
    return observed_frequencies(slow_observables(y, background))


def simulate_full(model: FullModel, y0: np.ndarray, cfg: IntegratorConfig,
                  observe=None) -> Trajectory:
    """Integrate the full system from the flat state y0 with mass-defect
    (max_p |Sigma_p - 1|) and min-entry monitors; `observe` goes to
    ode.integrate (the sample table then holds observe(state))."""
    P, N = model.n_patches, model.n_strains
    dim = P * (1 + N + N * N)
    if np.shape(y0) != (dim,):
        raise ConfigError(f"y0 has shape {np.shape(y0)}, the model expects {(dim,)}")
    monitors = [partial(row_sum_defect, P=P), np.min]
    return integrate(partial(rhs_full, model=model), y0, cfg, monitors=monitors,
                     observe=observe)
