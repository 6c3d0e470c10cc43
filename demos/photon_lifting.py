"""Lift a mode unitary to its action on multi-photon Fock states.

Two independent routes are compared entry by entry: exponentiating the
lifted mesh generators coupler by coupler, and the permanent lift of the
matrix, whose entries are permanents of submatrices, built photon by
photon from the matrix alone.  The generator route only ever touches the
n - 1 adjacent mode pairs of the triangle, which is the point.
"""

import numpy as np

from sunmesh import (
    FockBasis,
    basis_dimension,
    canonicalize,
    lift_plan,
    lift_via_permanents,
    random_unitary_qr,
    triangle_decompose,
)


def main():
    n = 3
    m = random_unitary_qr(n, seed=13)
    plan = canonicalize(triangle_decompose(m), m)

    for p in (1, 2, 3):
        basis = FockBasis(n, p)
        via_generators = lift_plan(basis, plan)
        via_permanents = lift_via_permanents(m, p)
        diff = np.abs(via_generators - via_permanents).max()
        print(f"p={p}: dimension {len(basis):>3}, route disagreement {diff:.2e}")

    print()
    basis = FockBasis(3, 2)
    print("two-photon basis on three modes, lexicographically descending:")
    print("  " + "  ".join(str(tuple(s)) for s in basis.occupations.tolist()))

    print()
    big = FockBasis(9, 5)
    m9 = random_unitary_qr(9, seed=14)
    plan9 = canonicalize(triangle_decompose(m9), m9)
    lifted = lift_plan(big, plan9)
    pair_types = len({(c.i, c.j) for c in plan9.couplers})
    print(f"nine modes, five photons: dimension {basis_dimension(9, 5)}, "
          f"36 couplers, {pair_types} generator pair types")
    col = np.abs(lifted[:, 0]) ** 2
    print(f"first-column norm: {col.sum():.12f}")


if __name__ == "__main__":
    main()
