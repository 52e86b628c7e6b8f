"""The float build and the Gram inverse against exact rational arithmetic, on knots where rounding is hardest.

Every double is a dyadic rational, so the Gram band, the insertion
coefficients and the solve A w = alpha of each level are exact in
``fractions.Fraction``, and so is the inverse of the stored band.  Near 1
the spans are a few ulps wide, and only an assembly that reads knot
differences keeps their digits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import exact_gram_band, exact_inverse, exact_phi, streamed_inverse, trailing_solve_columns

from orthosplines import bspline, knots, ortho

U = 2.0**-53  # unit roundoff of a double
DEPTH = 50
# Sequences of the inverse test are shorter: its exact inverse takes M exact solves.
INVERSE_DEPTH = 20
CASES = ["near-one", "mirror", "dyadic-shuffled", "full-multiplicity", "one-ulp-pair"]


def interior_points(case, k, depth=DEPTH):
    """Interior points t_2, t_3, ... of one hard case, for order k."""
    if case == "near-one":
        return [1.0 - 2.0**-j for j in range(1, depth)]
    if case == "mirror":
        return [2.0**-j for j in range(1, depth)]
    if case == "one-ulp-pair":
        return [0.5, 0.25, float(np.nextafter(1.0, 0.0)), 1.0 - 2.0**-52, 0.75]
    if case == "full-multiplicity":
        return [(2 * i + 1) / 32.0 for i in range(16) for _ in range(k)][: depth - 1]
    return list(knots.random_admissible(k, k, depth + 1, case).points[2:])


def hard_sequence(case, k, depth=DEPTH):
    return knots.validate_admissible(k, [0.0, 1.0] + interior_points(case, k, depth))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_band_and_phi_match_exact_arithmetic(k, case):
    # Band entries within 32 u of the exact rationals (rounded once to doubles),
    # relative to each entry; phi_n within 64 u of the exact one, relative to
    # its largest coefficient.
    seq = hard_sequence(case, k)
    N = len(seq.points) - 1
    checked = []
    for level_knots, walked, block, b, coeffs, _ in ortho.levels(seq, N):
        n = block.first + b
        if n not in (2, N // 2, N):
            continue
        part = knots.Partition(order=k, knots=level_knots.copy(), level=n, M=n + k - 1)
        band = exact_gram_band(part)
        exact = np.array(band, dtype=float)
        assert np.all(np.abs(walked - exact) <= 32 * U * np.abs(exact)), f"level {n}"
        phi = exact_phi(part, int(block.i0[b]), band)
        assert np.abs(coeffs - phi).max() <= 64 * U * np.abs(phi).max(), f"level {n}"
        checked.append(n)
    assert checked == sorted({2, N // 2, N})


@pytest.mark.parametrize("case", ["near-one", "mirror", "one-ulp-pair"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_orthonormal_at_depth_50(k, case):
    seq = hard_sequence(case, k)
    system = ortho.build_system(seq, len(seq.points) - 1)
    F = system.matrix
    assert np.abs(F @ system.gram.apply(F.T) - np.eye(system.size)).max() <= 1e-10


def trailing_solve_inverse(G):
    """Dense lower triangle of the Gram inverse as the banded solves of ``oracles.trailing_solve_columns`` give it."""
    B = np.zeros((G.M, G.M))
    for start, cols in trailing_solve_columns(G):
        B[start:, start : start + cols.shape[1]] = cols
    return np.tril(B)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_inverse_matches_exact_arithmetic(k, case):
    # The inverse of the stored band, exact, against the recurrence reader and
    # the banded-solve reader it replaced: |b_ij - exact| <= 128 u sqrt(b_ii b_jj)
    # for both.  The largest ratios over the five cases and both readers grow
    # with the Gram's scaled condition: 1.0, 2.8, 5.8, 11.4, 33, 98 for k = 1..6.
    seq = hard_sequence(case, k, INVERSE_DEPTH)
    G = bspline.gram_matrix(knots.partition_at(seq, len(seq.points) - 1))
    exact = exact_inverse(G.band)
    scale = [math.sqrt(float(exact[i][i])) for i in range(G.M)]
    for name, B in (("recurrence", streamed_inverse(G)), ("trailing solve", trailing_solve_inverse(G))):
        worst = max(
            abs(float(Fraction(B[i, j]) - exact[j][i])) / (U * scale[i] * scale[j])
            for j in range(G.M)
            for i in range(j, G.M)
        )
        assert worst <= 128, f"{name}: {worst:.1f} u"
