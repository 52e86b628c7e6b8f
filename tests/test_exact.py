"""The float build against exact rational arithmetic, on knots where rounding is hardest.

Every double is a dyadic rational, so the Gram band, the insertion
coefficients and the solve A w = alpha of each level are exact in
``fractions.Fraction``.  Near 1 the spans are a few ulps wide, and only an
assembly that reads knot differences keeps their digits.
"""

import numpy as np
import pytest
from oracles import exact_gram_band, exact_phi

from orthosplines import knots, ortho

U = 2.0**-53  # unit roundoff of a double
DEPTH = 50


def interior_points(case, k):
    """Interior points t_2, t_3, ... of one hard case, for order k."""
    if case == "near-one":
        return [1.0 - 2.0**-j for j in range(1, DEPTH)]
    if case == "mirror":
        return [2.0**-j for j in range(1, DEPTH)]
    if case == "one-ulp-pair":
        return [0.5, 0.25, float(np.nextafter(1.0, 0.0)), 1.0 - 2.0**-52, 0.75]
    if case == "full-multiplicity":
        return [(2 * i + 1) / 32.0 for i in range(16) for _ in range(k)][: DEPTH - 1]
    return list(knots.random_admissible(k, k, DEPTH + 1, case).points[2:])


def hard_sequence(case, k):
    return knots.validate_admissible(k, [0.0, 1.0] + interior_points(case, k))


@pytest.mark.parametrize(
    "case", ["near-one", "mirror", "dyadic-shuffled", "full-multiplicity", "one-ulp-pair"]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_band_and_phi_match_exact_arithmetic(k, case):
    # Band entries within 32 u of the exact rationals (rounded once to doubles),
    # relative to each entry; phi_n within 64 u of the exact one, relative to
    # its largest coefficient.
    seq = hard_sequence(case, k)
    N = len(seq.points) - 1
    checked = []
    for G, of in ortho.levels(seq, N):
        n = G.partition.level
        if n not in (2, N // 2, N):
            continue
        band = exact_gram_band(G.partition)
        exact = np.array(band, dtype=float)
        assert np.all(np.abs(G.band - exact) <= 32 * U * np.abs(exact)), f"level {n}"
        phi = exact_phi(G.partition, of.i0, band)
        assert np.abs(of.phi.coeffs - phi).max() <= 64 * U * np.abs(phi).max(), f"level {n}"
        checked.append(n)
    assert checked == sorted({2, N // 2, N})


@pytest.mark.parametrize("case", ["near-one", "mirror", "one-ulp-pair"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orthonormal_at_depth_50(k, case):
    seq = hard_sequence(case, k)
    system = ortho.build_system(seq, len(seq.points) - 1)
    F = system.matrix
    assert np.abs(F @ system.gram.apply(F.T) - np.eye(system.size)).max() <= 1e-10
