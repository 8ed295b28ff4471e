"""Neutral dynamics: collapse onto the slow manifold.

With identical strains and no migration, the full co-colonization
system forgets everything about its initial condition except the strain
frequencies: the state converges to S = S*, I^i = I* z^i,
D^{ij} = D* z^i z^j for some fixed simplex point z. This script starts
three strains well off the manifold and watches the product-structure
residual decay while the extracted frequencies freeze.
"""

import numpy as np

from straingrid import (ConnectivityMatrix, FullModel, FullState,
                        IntegratorConfig, PatchParams, ScaleParams,
                        StrainPerturbations, extract_frequencies,
                        neutral_equilibrium, simulate_full)


def product_residual(state, eq, z):
    res_S = abs(state.S[0] - eq.S_star)
    res_I = np.max(np.abs(state.I[0] - eq.I_star * z))
    res_D = np.max(np.abs(state.D[0] - eq.D_star * np.outer(z, z)))
    return res_S + res_I + res_D


def main():
    patch = PatchParams(r=1.0, beta=4.0, gamma=1.0, k=1.0)
    model = FullModel(patches=(patch,),
                      pert=StrainPerturbations.zeros(1, 3),
                      scale=ScaleParams(eps=0.0, d=0.0),
                      connectivity=ConnectivityMatrix(entries=np.zeros((1, 1))))
    eq = neutral_equilibrium(patch)
    print(f"endemic equilibrium: S*={eq.S_star}, I*={eq.I_star}, D*={eq.D_star}")

    rng = np.random.default_rng(1)
    S0 = np.array([0.3])
    I0 = rng.uniform(0.05, 0.3, size=(1, 3))
    D0 = rng.uniform(0.01, 0.1, size=(1, 3, 3))
    scale = (1.0 - S0) / (I0.sum() + D0.sum())
    y0 = FullState(S=S0, I=I0 * scale, D=D0 * scale)

    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=80.0,
                           monitor_period=8.0)
    traj = simulate_full(model, y0, cfg)

    print(f"\n{'t':>6}  {'residual':>12}  frequencies")
    for t, y in zip(traj.times, traj.states):
        state = FullState.unravel(y, 1, 3)
        z = extract_frequencies(state, model.background).z[0]
        res = product_residual(state, eq, z)
        print(f"{t:6.1f}  {res:12.3e}  {np.round(z, 6)}")

    print("\nThe residual decays exponentially; the frequencies stop moving "
          "once the state reaches the manifold. Selection among the strains "
          "only appears at order eps, on the slow time scale tau = eps*t.")


if __name__ == "__main__":
    main()
