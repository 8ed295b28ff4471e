"""Full N-strain, P-patch co-colonization SIS system.

Assembles the physical strain-specific parameters from the baseline
rates and the eps-scaled trait deviations, provides the right-hand side
of the full model on the patch-major flat state (row p of
y.reshape(P, -1) is (S_p, I_p, D_p.ravel()), see types.full_views),
slow-manifold initialization, frequency extraction through the left
kernel eigenvectors, and a simulation driver with mass and negativity
monitors. States are plain arrays: the flat full state, and (P, N)
frequencies. rhs_full takes a ModelStack (the rates of B models on a
leading member axis), one state per member, and the out and scratch it
writes into, so a run's calls allocate nothing of the state's size.
simulate_full, the one planner of full runs, splits its models into
ode.integrate ensembles of at most BATCH_VALUES stacked values, and
evaluates a small system (up to TABLE_MAX_TERMS terms per member) from a
term table: the field is quadratic, each term of dy a rate times two
entries of x = (y, J, 1), J the transmissible load. A FullModel checks
its assembled rates but holds only the (P, N) ones: each ModelStack
builds the (P, N, N) rates it runs. Extraction is two maps, each taking
a whole stack in one call: slow_observables projects flat states
(..., dim) on the rows (S_p, u_p) (..., P, 1+N), and
observed_frequencies renormalizes u_p to frequencies (..., P, N). A run
can record, per block of consecutive samples, only what
observe(first, states) makes of it (simulate_full(..., observe=...)).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, ExtinctPatch
from .ode import BATCH_VALUES, Trajectory, check_budgets, integrate
# Re-exported, not used here: perfbench's self-tests reach it through this module.
from .ode import IntegratorConfig as IntegratorConfig
from .reduction import Background, build_background
from .types import (ConnectivityMatrix, StrainPerturbations, full_state, full_views,
                    rate_issue, require_simplex, run_monitors)

# Below this total weighted strain mass in a patch, frequencies are
# considered undefined.
EXTINCTION_THRESHOLD = 1e-300

# Most terms per member, (4P + nnz(connectivity)) (1 + N + N^2) - 2P,
# that simulate_full evaluates from a _TermTable. A table call costs a
# gather, two products and a sum per term and member, rhs_full about 47
# numpy calls, eleven of them passes over the (P, N, N) block. In a
# ladder at B = 1, 3 and 6 members with full coupling (numpy 2.4, one
# thread of a 2-core Xeon), the table took 0.34 / 0.58 / 0.84 of
# rhs_full's time at 1,527 terms (3x8), 0.37 / 0.61 / 0.91 at 1,816
# (4x7) and 0.38 / 0.62 / 0.87 at 2,472 (12x3), and lost at B = 6 from
# 2,568 terms (6x6) on. The gate stays below 1,816 terms, where an
# earlier ladder on the same host first lost at B = 6.
TABLE_MAX_TERMS = 1600


@dataclass(frozen=True, eq=False)     # array fields: compared by identity
class FullModel:
    """Physical parameterization of the full system.

    The baseline rates r (birth = death), beta (transmission), gamma
    (clearance) and k (co-colonization susceptibility) are read-only (P,)
    arrays; eps is the quasi-neutrality scale and d the rescaled migration
    intensity, so the migration rate is delta = eps * d. Strain-specific
    rates are baseline + eps * deviation, read-only attributes, not
    fields: __post_init__ assembles beta_i and gamma_i (P, N) and the
    migration rate delta (a numpy scalar), and checks every assembled
    rate. The (P, N, N) rates are checked, not kept: a ModelStack builds
    them for its run (_rhs_arrays), so a model held through a study holds
    none.
    """

    r: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    k: np.ndarray
    pert: StrainPerturbations
    eps: float
    d: float
    connectivity: ConnectivityMatrix

    def __post_init__(self):
        for name in ("r", "beta", "gamma", "k"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        r, beta, gamma, k = self.r, self.beta, self.gamma, self.k
        if r.ndim != 1 or not r.shape == beta.shape == gamma.shape == k.shape:
            raise ConfigError(f"r, beta, gamma and k must be (P,) arrays, got shapes "
                              f"{[a.shape for a in (r, beta, gamma, k)]}")
        issues = [f"patch {p}: {issue}"
                  for p, issue in enumerate(map(rate_issue, r, beta, gamma, k)) if issue]
        if issues:
            raise ConfigError("; ".join(issues))
        # eps = 0 is the exactly neutral, migration-free system, used by
        # the neutral-limit checks.
        if not 0 <= self.eps < math.inf:
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
        if not 0 <= self.d < math.inf:
            raise ConfigError(f"d must be finite and >= 0, got {self.d}")
        P = self.n_patches
        if self.pert.n_patches != P:
            raise ConfigError(f"perturbations cover {self.pert.n_patches} patches, model has {P}")
        if self.connectivity.n_patches != P:
            raise ConfigError("connectivity size does not match patch count")
        eps, pert = self.eps, self.pert
        object.__setattr__(self, "beta_i", _read_only(beta[:, None] + eps * pert.b))
        object.__setattr__(self, "gamma_i", _read_only(gamma[:, None] + eps * pert.nu))

        # The (P, N, N) rates are checked through each patch's extreme
        # deviation: base + eps * x is monotone in x (eps >= 0, and so is
        # rounding), so its extreme is the extreme entry's, bit for bit.
        # The extremes include 0, which leaves every verdict as it is (the
        # bases are admissible) and gives strainless patches one.
        low = {name: getattr(pert, name).min(axis=(1, 2), initial=0.0)
               for name in ("c_pair", "alpha", "w")}
        if np.any(self.beta_i <= 0) or np.any(self.gamma_i < 0) \
                or np.any(gamma + eps * low["c_pair"] < 0) or np.any(k + eps * low["alpha"] < 0):
            raise ConfigError("assembled strain rates leave the admissible range; reduce eps")
        if np.any(0.5 + eps * low["w"] < 0) \
                or np.any(0.5 + eps * pert.w.max(axis=(1, 2), initial=0.0) > 1):
            raise ConfigError("transmission probabilities leave [0,1]; reduce eps or |w|")
        object.__setattr__(self, "delta", np.float64(self.eps * self.d))

    @property
    def n_patches(self) -> int:
        return self.r.shape[0]

    @property
    def n_strains(self) -> int:
        return self.pert.n_strains

    @cached_property
    def background(self) -> Background:
        """The eps-independent reduction objects, built on first use."""
        return build_background((self.r, self.beta, self.gamma, self.k), self.pert,
                                self.connectivity)

    def with_eps(self, eps: float) -> "FullModel":
        """Same model at a different eps."""
        return replace(self, eps=eps)


# The arrays rhs_full reads, built by _rhs_arrays and stacked by ModelStack.
_RHS_ARRAYS = ("r", "beta_i", "gamma_i", "gamma_ij", "prob_first", "prob_second", "co_rate",
               "loss", "migration")


def _rhs_arrays(model: FullModel) -> dict:
    """The _RHS_ARRAYS of one model, its eps-level rates built anew: the
    (P, N, N) gamma_ij, prob_first = 1/2 + eps*w (an (i, j) host transmits
    i), prob_second and co_rate = k_ij beta_i, loss, the per-capita loss
    rate at each entry of a flat state (0 at S_p), and the (P, P)
    migration = delta * connectivity."""
    P, N, eps, pert = model.n_patches, model.n_strains, model.eps, model.pert
    gamma_ij = model.gamma[:, None, None] + eps * pert.c_pair
    prob_first = 0.5 + eps * pert.w
    co_rate = eps * pert.alpha
    co_rate += model.k[:, None, None]
    co_rate *= model.beta_i[:, :, None]
    loss = np.zeros(P * (1 + N + N * N))
    _, loss_I, loss_D = full_views(loss, P, N)
    np.add(model.r[:, None], model.gamma_i, out=loss_I)
    np.add(model.r[:, None, None], gamma_ij, out=loss_D)
    return {"r": model.r, "beta_i": model.beta_i, "gamma_i": model.gamma_i,
            "gamma_ij": gamma_ij, "prob_first": prob_first, "prob_second": 1.0 - prob_first,
            "co_rate": co_rate, "loss": loss,
            "migration": model.delta * model.connectivity.entries}


def _check_layout(models):
    """ConfigError unless the models share patches, strains and connectivity."""
    first = models[0]
    for m in models[1:]:
        if m.pert.b.shape != first.pert.b.shape or not np.array_equal(
                m.connectivity.entries, first.connectivity.entries):
            raise ConfigError("stacked models must share patches, strains and connectivity")


class ModelStack:
    """The arrays rhs_full reads (_RHS_ARRAYS) of B models that share
    patches, strains and connectivity, each member's built by _rhs_arrays
    and stacked read-only on a leading member axis: r (B, P), ..., loss
    (B, dim) and migration (B, P, P), which rhs_full and _TermTable read.
    The stack holds the only copy of its members' eps-level rates, so
    they live as long as the stack."""

    def __init__(self, models):
        _check_layout(models)
        rates = [_rhs_arrays(m) for m in models]
        # One member's arrays are viewed, not copied: at P = N = 30 the
        # copies would add 1 MB to a run's peak.
        for name in _RHS_ARRAYS:
            setattr(self, name, _read_only(np.stack([r[name] for r in rates])
                                           if len(models) > 1 else rates[0][name][None]))
        self.connectivity = models[0].connectivity
        self.n_patches, self.n_strains = models[0].n_patches, models[0].n_strains

    def take(self, members) -> "ModelStack":
        """The stack of the given members, in that order."""
        sub = copy.copy(self)
        for name in _RHS_ARRAYS:
            setattr(sub, name, _read_only(getattr(self, name)[list(members)]))
        return sub


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def transmissible_load(stack: ModelStack, I: np.ndarray, D: np.ndarray) -> np.ndarray:
    """J[b, p, i]: proportion of hosts transmitting strain i in patch p,
    for the views I (B, P, N) and D (B, P, N, N) of a ModelStack's members.

    Single-infected transmit their strain; co-infected (i then j) hosts
    transmit i with probability prob_first[p, i, j] and j otherwise.
    """
    return (I + np.vecdot(stack.prob_first, D)
            + np.einsum("...pji,...pji->...pi", stack.prob_second, D))


def rhs_full(t, y: np.ndarray, stack: ModelStack, out, scratch) -> np.ndarray:
    """Time derivative of the full system at the flat states y (B, dim) of a
    ModelStack's members, one per row (t is unused: the system is autonomous),
    written into out and returned. out and the work array scratch are shaped
    like y with contiguous rows, so a call allocates nothing of the state's
    size; the bits do not depend on what scratch holds."""
    P, N = stack.n_patches, stack.n_strains
    S, I, D = full_views(y, P, N)
    J = transmissible_load(stack, I, D)            # (B, P, N)
    infection = stack.beta_i * J * S[..., None]    # (B, P, N)

    dS, dI, dD = full_views(out, P, N)
    # co-colonization influx into D[p, i, j]: susceptible-to-j of i-singles,
    # built in a contiguous block (numpy buffers products on strided views);
    # its sum over j, the co-colonization loss of I[p, i], is one mat-vec
    influx = scratch[..., :P * N * N].reshape(*y.shape[:-1], P, N, N)
    np.multiply(stack.co_rate, I[..., None], out=influx)
    influx *= J[..., None, :]
    dD[...] = influx
    np.subtract(infection, I * (stack.co_rate @ J[..., None])[..., 0], out=dI)
    dS[...] = (stack.r * (1.0 - S)
               + np.vecdot(stack.gamma_i, I)
               + np.vecdot(stack.gamma_ij.reshape(*y.shape[:-1], P, N * N),
                           D.reshape(*y.shape[:-1], P, N * N))
               - infection.sum(axis=-1))
    # every compartment's loss in one flat product (0 at S)
    np.multiply(stack.loss, y, out=scratch)
    out -= scratch
    if stack.migration.any():   # acts on the patch index of every compartment at once
        flow = scratch.reshape(*y.shape[:-1], P, -1)
        np.matmul(stack.migration, y.reshape(flow.shape), out=flow)
        out += scratch
    return out


class _TermTable:
    """The full vector field of a ModelStack as a table of monomials,
    built once per run: row b of dy[k] is the sum of the terms
    coef[b, t] * x[a[t]] * x[c[t]] of output k over the extended state
    x = (y, J, 1), where J[p, i] (transmissible_load) is itself the sum
    of j_coef[b, t] * y[j_idx[t]] of its group. Terms are grouped by
    output in a fixed order, so a member's bits do not depend on the
    other members. A call is nine numpy calls into buffers of the run:
    gathers (ndarray.take with mode="clip", which writes straight into
    out; "raise" buffers it), products and np.add.reduceat into out."""

    def __init__(self, stack):
        P, N, B = stack.n_patches, stack.n_strains, len(stack.r)
        L = 1 + N + N * N
        dim = P * L
        S, I, D = full_views(np.arange(dim), P, N)            # flat indices of S, I, D
        J = dim + np.arange(P * N).reshape(P, N)              # and of J and 1 in x
        ONE = dim + P * N
        # J[p, i] = I[p, i] + sum_j prob_first[p,i,j] D[p,i,j] + prob_second[p,j,i] D[p,j,i]
        self.j_idx = np.concatenate([I[..., None], D, D.swapaxes(1, 2)], axis=-1).ravel()
        self.j_coef = np.concatenate([np.ones((B, P, N, 1)), stack.prob_first,
                                      stack.prob_second.swapaxes(-1, -2)], axis=-1).reshape(B, -1)
        self.j_starts = np.arange(0, self.j_idx.size, 2 * N + 1)
        linear = -stack.loss                                  # losses and clearances, -r S at S
        linear[:, S] = -stack.r
        pq = np.nonzero(stack.connectivity.entries)
        flow = stack.migration[:, pq[0], pq[1]]               # (B, nnz)
        IJ = (I[..., None], J[:, None, :])
        terms = [  # (dy index, a, c, coef (B, ...)); indices broadcast to coef's trailing shape
            (S, ONE, ONE, stack.r),
            (np.arange(dim), np.arange(dim), ONE, linear),
            (S[:, None], S[:, None] + np.arange(1, L), ONE,
             np.concatenate([stack.gamma_i, stack.gamma_ij.reshape(B, P, -1)], axis=-1)),
            (S[:, None], S[:, None], J, -stack.beta_i),
            (I, S[:, None], J, stack.beta_i),
            (I[..., None], *IJ, -stack.co_rate),
            (D, *IJ, stack.co_rate),
            (pq[0][:, None] * L + np.arange(L), pq[1][:, None] * L + np.arange(L), ONE,
             np.repeat(flow[..., None], L, axis=-1)),
        ]
        out, a, c = (np.concatenate([np.broadcast_to(term[k], term[3].shape[1:]).ravel()
                                     for term in terms]) for k in range(3))
        order = np.argsort(out, kind="stable")
        self.a, self.c = a[order], c[order]
        self.coef = np.concatenate([term[3].reshape(B, -1) for term in terms], axis=1).take(
            order, axis=1)                                    # C order: [:, order] is not
        self.starts = np.searchsorted(out[order], np.arange(dim))
        x = np.empty((B, ONE + 1))
        x[:, ONE] = 1.0
        self.buffers = (x[:, :dim], x[:, dim:-1], x, np.empty(self.j_coef.shape),
                        np.empty(self.coef.shape), np.empty(self.coef.shape))

    def take(self, members) -> "_TermTable":
        """The table of the given members, in that order, on the first rows
        of the same buffers."""
        sub = copy.copy(self)
        sub.j_coef, sub.coef = self.j_coef[list(members)], self.coef[list(members)]
        sub.buffers = tuple(buf[:len(members)] for buf in self.buffers)
        return sub

    def __call__(self, y, out):
        """Write the derivatives of the states y (b, dim), one per member, into out."""
        x_y, x_J, x, gj, ga, gc = self.buffers
        x_y[...] = y
        x.take(self.j_idx, axis=1, mode="clip", out=gj)
        gj *= self.j_coef
        np.add.reduceat(gj, self.j_starts, axis=1, out=x_J)
        x.take(self.a, axis=1, mode="clip", out=ga)
        x.take(self.c, axis=1, mode="clip", out=gc)
        ga *= gc
        ga *= self.coef
        np.add.reduceat(ga, self.starts, axis=1, out=out)


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
    Dsym = 0.5 * (np.add.reduce(D, axis=-1) + np.add.reduce(D, axis=-2))
    out[..., 1:] = background.phi[:, None] * I + background.psi[:, None] * Dsym
    return out


def observed_frequencies(obs: np.ndarray) -> np.ndarray:
    """Frequencies (..., P, N) of slow_observables rows (..., P, 1+N).

    Each u_p is renormalized to the simplex, so the result is a valid
    frequency state even off the attractor."""
    u = obs[..., 1:]
    total = np.add.reduce(u, axis=-1)
    if (total < EXTINCTION_THRESHOLD).any():
        dead = int(np.argmin(total)) % total.shape[-1]
        raise ExtinctPatch(f"no strain mass left in patch {dead}")
    return u / total[..., None]


def extract_frequencies(y: np.ndarray, background: Background) -> np.ndarray:
    """Frequencies (..., P, N) of the flat full states y (..., dim)."""
    return observed_frequencies(slow_observables(y, background))


def simulate_full(models, y0: np.ndarray, cfgs, observe=None) -> list[Trajectory]:
    """Integrate the full system of each model from the flat state y0 under
    its IntegratorConfig in cfgs, with mass-defect (max_p |Sigma_p - 1|)
    and min-entry monitors of stacks; `observe` goes to ode.integrate. The
    one planner of full runs: it checks that the models share patches,
    strains and connectivity, and every run's budgets (observe is called
    once more for them), then runs consecutive models as one ensemble
    while their stacked states hold at most BATCH_VALUES values (ode's
    block budget), each from a _TermTable when a member has at most
    TABLE_MAX_TERMS terms (9 numpy calls per stage where rhs_full makes
    about 47), else by rhs_full. Both gates read one member's size, so
    each Trajectory is bit-identical to its run alone."""
    if len(models) != len(cfgs):
        raise ConfigError(f"{len(models)} models with {len(cfgs)} integrator settings")
    if not models:
        return []
    _check_layout(models)
    P, N = models[0].n_patches, models[0].n_strains
    L = 1 + N + N * N
    dim = P * L
    if np.shape(y0) != (dim,):
        raise ConfigError(f"y0 has shape {np.shape(y0)}, the model expects {(dim,)}")
    check_budgets(cfgs, dim if observe is None else np.size(observe(0, y0[None])))
    terms = (4 * P + np.count_nonzero(models[0].connectivity.entries)) * L - 2 * P
    size = max(1, BATCH_VALUES // dim)
    trajs = []
    for start in range(0, len(models), size):
        trajs += _run_ensemble(models[start:start + size], y0, cfgs[start:start + size],
                               terms <= TABLE_MAX_TERMS, run_monitors(P), observe)
    return trajs


def _run_ensemble(models, y0, cfgs, table, monitors, observe) -> list[Trajectory]:
    """One ode.integrate ensemble, its stage derivatives written straight
    into the stage array; its stack, table and scratch go when it returns."""
    stack = ModelStack(models)
    everyone = tuple(range(len(models)))
    subsets = {everyone: _TermTable(stack) if table else stack}
    scratch = None if table else np.empty((len(models), y0.size))

    def rhs(t, y, members, out):
        if members not in subsets:
            subsets[members] = subsets[everyone].take(members)
        if table:
            subsets[members](y, out)
        else:
            rhs_full(None, y, subsets[members], out, scratch[:len(y)])

    return integrate(rhs, np.broadcast_to(y0, (len(models), y0.size)), cfgs, monitors=monitors,
                     observe=observe)
