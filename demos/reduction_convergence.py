"""The replicator reduction at work: full system vs. reduced system.

A heterogeneous two-patch, two-strain quasi-neutral community is
integrated twice: the full compartmental system on the fast time scale
and the reduced spatial replicator equation on the slow scale
tau = eps * t. The sup-norm gap between the extracted and reduced
frequencies shrinks linearly with eps.

Runtime: about 10 seconds (the smallest eps integrates the full system
over a long horizon at tight tolerances).
"""

import numpy as np

from straingrid import (ConnectivityMatrix, FullModel, PatchParams,
                        ScaleParams, StrainPerturbations, convergence_study,
                        default_tau_horizon, setup_from_model)


def main():
    patches = (PatchParams(r=1.0, beta=4.0, gamma=1.0, k=1.0),
               PatchParams(r=0.5, beta=2.0, gamma=0.5, k=2.0))
    pert = StrainPerturbations(
        b=np.array([[1.0, 0.0], [0.5, -0.5]]),
        nu=np.array([[0.0, 0.5], [0.2, 0.0]]),
        c_pair=np.array([[[0.0, 0.3], [0.1, 0.0]], [[0.2, 0.0], [0.0, 0.4]]]),
        w=np.array([[[0.0, 0.2], [-0.2, 0.0]], [[0.0, -0.1], [0.1, 0.0]]]),
        alpha=np.array([[[0.0, 0.1], [0.2, 0.0]], [[0.1, 0.0], [0.0, 0.2]]]))
    model = FullModel(patches=patches, pert=pert,
                      scale=ScaleParams(eps=0.05, d=1.0),
                      connectivity=ConnectivityMatrix(
                          entries=np.array([[-1.0, 1.0], [1.0, -1.0]])))

    setup = setup_from_model(model)
    print("per-patch speeds Theta:", np.round(setup.Theta, 6))
    print("fitness matrix, patch 1:")
    print(np.round(setup.Lambdas[0], 6))
    print("migration matrix (connectivity reweighted by overlaps):")
    print(np.round(setup.migration, 6))

    T = default_tau_horizon(setup)
    z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
    eps_values = [0.05, 0.025, 0.0125]
    print(f"\ntau horizon T = {T:.3f}; comparing on tau in [{0.1 * T:.3f}, {T:.3f}]")

    report = convergence_study(model, z0, eps_values, (0.1 * T, T))

    print(f"\n{'eps':>8}  {'sup |z_full - z_red|':>20}  {'sup |S - S*|':>14}")
    for eps, err, agg in zip(report.eps_values, report.errors,
                             report.aggregate_deviations):
        print(f"{eps:8.4f}  {err:20.3e}  {agg:14.3e}")
    print(f"\nsuccessive error ratios: "
          f"{[round(v, 3) for v in report.error_ratios()]} (O(eps) -> 0.5)")
    print(f"fitted log-log order: {report.fitted_order:.3f} (O(eps) -> 1)")


if __name__ == "__main__":
    main()
