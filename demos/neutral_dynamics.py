"""Neutral dynamics: collapse onto the slow manifold.

With identical strains and no migration, the full co-colonization
system forgets everything about its initial condition except the strain
frequencies: the state converges to S = S*, I^i = I* z^i,
D^{ij} = D* z^i z^j for some fixed simplex point z. This script starts
three strains well off the manifold and watches the product-structure
residual decay while the extracted frequencies freeze.
"""

import numpy as np

from straingrid import (ConnectivityMatrix, FullModel, IntegratorConfig,
                        PatchParams, ScaleParams, StrainPerturbations,
                        extract_frequencies, full_state, simulate_full)
from straingrid.types import full_views


def product_residual(y, bg, z):
    S, I, D = full_views(y, 1, z.size)
    res_S = abs(S[0] - bg.S_star[0])
    res_I = np.max(np.abs(I[0] - bg.I_star[0] * z))
    res_D = np.max(np.abs(D[0] - bg.D_star[0] * np.outer(z, z)))
    return res_S + res_I + res_D


def main():
    patch = PatchParams(r=1.0, beta=4.0, gamma=1.0, k=1.0)
    model = FullModel(patches=(patch,),
                      pert=StrainPerturbations.zeros(1, 3),
                      scale=ScaleParams(eps=0.0, d=0.0),
                      connectivity=ConnectivityMatrix(entries=np.zeros((1, 1))))
    bg = model.background
    print(f"endemic equilibrium: S*={bg.S_star[0]}, I*={bg.I_star[0]}, D*={bg.D_star[0]}")

    rng = np.random.default_rng(1)
    S0 = np.array([0.3])
    I0 = rng.uniform(0.05, 0.3, size=(1, 3))
    D0 = rng.uniform(0.01, 0.1, size=(1, 3, 3))
    scale = (1.0 - S0) / (I0.sum() + D0.sum())
    y0 = full_state(S0, I0 * scale, D0 * scale)

    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=80.0,
                           monitor_period=8.0)
    traj = simulate_full(model, y0, cfg)

    print(f"\n{'t':>6}  {'residual':>12}  frequencies")
    for t, y in zip(traj.times, traj.states):
        z = extract_frequencies(y, bg)[0]
        res = product_residual(y, bg, z)
        print(f"{t:6.1f}  {res:12.3e}  {np.round(z, 6)}")

    print("\nThe residual decays exponentially; the frequencies stop moving "
          "once the state reaches the manifold. Selection among the strains "
          "only appears at order eps, on the slow time scale tau = eps*t.")


if __name__ == "__main__":
    main()
