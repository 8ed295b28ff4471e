"""Reference forms the package is checked against; only tests use them.

  - rhs_replicator_advection: the diffusion-advection form of the reduced
    system, the split a PDE discretization of the spatial replicator
    gives. It is algebraically identical to the compact rhs_replicator
    when M = D (1 + nu) off the diagonal, and so checks M.
  - manifold_state: the product state of frequencies that may lie off the
    simplex product (init_on_manifold is its checked counterpart).
  - neutral_limit_check: the residual of the product-structure attractor
    of the fully neutral, migration-free full system.
"""

from dataclasses import replace

import numpy as np

from straingrid import extract_frequencies, full_state, rhs_replicator, simulate_full
from straingrid.types import full_views
from straingrid.validate import _validation_cfg


def rhs_replicator_advection(z, setup, D, nu):
    """Diffusion-advection form at the frequencies z (P, N): reaction
    + d (D z^i)_p + d sum_k d_pk nu_pk (z_k^i - z_p^i), with D the
    ConnectivityMatrix and nu (P, P) the advection; setup.migration is
    not used. Shaped (P, N)."""
    dz = rhs_replicator(0.0, z.ravel(), replace(setup, d=0.0)).reshape(z.shape)
    if setup.d != 0.0:
        dmat = D.entries
        diff = dmat @ z
        adv = np.einsum("pk,pki->pi", dmat * nu, z[None, :, :] - z[:, None, :])
        dz = dz + setup.d * (diff + adv)
    return dz


def manifold_state(z, background):
    """Flat product state S = S*, I^i = I* z^i, D^{ij} = D* z^i z^j of
    z (P, N), unchecked: z may lie off the simplex product."""
    I = background.I_star[:, None] * z
    D = background.D_star[:, None, None] * z[:, :, None] * z[:, None, :]
    return full_state(background.S_star, I, D)


def neutral_limit_check(model, y0, t_end=200.0):
    """Residual of the product structure S = S*, I^i = I* z^i,
    D^{ij} = D* z^i z^j at t_end, with z extracted from the final state.

    Meaningful for the neutral, migration-free system (the caller builds
    the model with zero deviations and d = 0)."""
    P, N = model.n_patches, model.n_strains
    bg = model.background

    y = simulate_full([model], y0, [_validation_cfg(t_end)])[0].states[-1]
    target = manifold_state(extract_frequencies(y, bg), bg)
    return sum(float(np.max(np.abs(got - want))) for got, want in
               zip(full_views(y, P, N), full_views(target, P, N)))
