"""Building patch-coupling matrices from volumes and pair weights.

Patches of unequal volume exchange hosts through pairwise stencils that
conserve total abundance and keep every volume fixed. Conjugating by the
volumes turns the abundance matrix into a density-convention coupling
with zero row sums, ready for the metapopulation models.
"""

import numpy as np

from straingrid import (renormalize_to_density, validate_connectivity,
                        volume_matrix)

# The three properties and the message validate_connectivity lists for
# each one that fails.
PROPERTIES = {"metzler": "Metzler violation (negative off-diagonal)",
              "irreducible": "not irreducible (patch graph disconnected)",
              "row_sum_zero": "row sums are not zero"}


def verdict(D) -> str:
    """One pass/FAIL mark per property of the coupling matrix D."""
    failures = validate_connectivity(D)
    return " ".join(f"{name}={'FAIL' if message in failures else 'pass'}"
                    for name, message in PROPERTIES.items())


def main():
    V = np.array([1.0, 2.0, 4.0])
    # weights on the pairs (1,2), (1,3), (2,3); upper triangle is used
    x = np.array([
        [0.0, 1.0, 0.5],
        [0.0, 0.0, 2.0],
        [0.0, 0.0, 0.0],
    ])

    M = volume_matrix(V, x)
    print("volumes:", V)
    print("abundance exchange matrix M:")
    print(M)
    print("column sums (total abundance conserved):", M.sum(axis=0))
    print("M @ V (volumes stationary):", M @ V)

    D = renormalize_to_density(M, V)
    print("\ndensity-convention matrix diag(V)^-1 M diag(V):")
    print(D)
    print("row sums:", D.sum(axis=1))

    print("\nvalidation:", verdict(D))

    # the same pipeline fails loudly when the weight graph is disconnected
    x_disc = np.zeros((3, 3))
    x_disc[0, 1] = 1.0          # only patches 1 and 2 talk
    M_disc = volume_matrix(V, x_disc)
    D_disc = renormalize_to_density(M_disc, V)
    print("\ndisconnected weights ->", verdict(D_disc))


if __name__ == "__main__":
    main()
