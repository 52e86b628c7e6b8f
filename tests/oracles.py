"""Test-only oracles: independent recomputations and paper-lemma checks.

Each function recomputes a quantity that the library obtains another way
(dense linear algebra, explicit refinement matrices, single-point
evaluation, exhaustive window counts, exact rational arithmetic), or checks
a lemma of the paper that no command runs: expansions and their maximal
functions, square functions and their level sets, the diagonal bound of
the Gram inverse, interval distances, monotone subsequences.  The command
line reaches none of them.
"""

import functools
import itertools
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss
from scipy.linalg import solve as dense_solve

from orthosplines import analysis, bspline, charint, knots, ortho
from orthosplines.errors import (
    DomainError,
    LevelOutOfRange,
    NotPositiveDefinite,
    SplineError,
)


class IndexOutOfRange(SplineError, IndexError):
    """A 1-based basis or insertion index is outside its valid range."""


class EmptyInterval(SplineError, ValueError):
    """An interval with nonpositive length was supplied."""


class NotAKnot(SplineError, ValueError):
    """A census window endpoint is not a value of the knot sequence."""


@dataclass(frozen=True)
class Spline:
    """Coefficient vector over a partition's B-spline basis, evaluated at points by a call."""

    partition: object
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if len(c) != self.partition.M:
            raise ValueError(
                f"need {self.partition.M} coefficients, got {len(c)}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def eval(self, xs):
        scalar = np.isscalar(xs)
        out = bspline.spline_values(self.coeffs, *bspline.eval_basis_many(self.partition, np.atleast_1d(xs)))
        return float(out[0]) if scalar else out

    __call__ = eval


def level_records(system):
    """One record per level n = 2..N of a built system, gathered from its block arrays.

    Record n - 2 holds level n's ``level``, ``i0``, knot ``window``,
    ``alpha``, ``j0``, ``J`` as a pair of floats, and ``coeffs`` over the
    level-n basis.  The blocks keep J alone; j0 is selected again by
    ``charint.characteristic_intervals`` from the window and alpha.
    """
    k = system.order
    out = []
    for block in system.blocks:
        j0, _ = charint.characteristic_intervals(block.windows[:, k - 1 : 3 * k], block.alpha, block.i0)
        for b, n in enumerate(range(block.first, block.first + len(block.i0))):
            out.append(
                SimpleNamespace(
                    level=n,
                    i0=int(block.i0[b]),
                    window=block.windows[b],
                    alpha=block.alpha[b],
                    j0=int(j0[b]),
                    J=tuple(block.J[b].tolist()),
                    coeffs=system.coeffs[n - 2],
                )
            )
    return out


def level_spline(seq, rec):
    """phi_n of a level record as a Spline on its own level's partition of the sequence."""
    return Spline(knots.partition_at(seq, rec.level), rec.coeffs)


def canonical_json(payload):
    """The report text a streamed writer must produce: the standard library's indent=2 encoder."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def insert_event(seq, n):
    """1-based index i0 of t_n in the level-n partition, found by sorting the prefix.

    A t_n equal to earlier knots takes the last copy of the block, as
    ``knots.next_partition`` places it.
    """
    part = knots.partition_at(seq, n)
    return int(np.flatnonzero(part.knots == seq.points[n])[-1]) + 1


def block_levels(polys):
    """System levels of the initial block: the degree-d polynomial has level d - k + 2."""
    return range(-len(polys) + 2, 2)


def block_values(polys, xs):
    """Values of every block polynomial at the points, shape (k, len(xs))."""
    xs = np.asarray(xs, dtype=float)
    return np.vstack([p(xs) for p in polys])


def eval_basis(partition, x):
    """Single-point variant of eval_basis_many: (1-based first index, the k values)."""
    first, vals = bspline.eval_basis_many(partition, [float(x)])
    return int(first[0]), vals[0]


def rule_nodes(knots_, rule):
    """Absolute nodes of a rule over a knot array, (S, q): each span's left end plus the node offsets."""
    return knots_[rule.spans][:, None] + rule.offsets


def design_matrix(partition, xs):
    """Dense design matrix of shape (len(xs), M) with entry N_j(x_i)."""
    first, vals = bspline.eval_basis_many(partition, xs)
    out = np.zeros((len(vals), partition.M))
    cols = (first - 1)[:, None] + np.arange(partition.order)[None, :]
    out[np.arange(len(vals))[:, None], cols] = vals
    return out


def value_matrix(system, xs):
    """Every system function at the points, (size, len(xs)), as one dense product."""
    return system.matrix @ design_matrix(system.gram.partition, xs).T


def dense(G):
    """Full symmetric Gram matrix A of a GramSystem, from its band."""
    k, M = G.partition.order, G.M
    a = np.zeros((M, M))
    for d in range(k):
        diag = G.band[k - 1 - d, d:]
        a[np.arange(M - d), np.arange(d, M)] = diag
        a[np.arange(d, M), np.arange(M - d)] = diag
    return a


def offset_maxima_loop(G):
    """``gram.offset_maxima`` one column of each inverse block at a time."""
    part = G.partition
    k, M = part.order, part.M
    knots = part.knots
    raw = np.zeros(M)
    m = np.zeros(M)
    for start, rows in G.inverse_columns():
        for c in range(rows.shape[0]):
            j = start + c
            b = np.abs(rows[c, : M - j])
            np.maximum(raw[: M - j], b, out=raw[: M - j])
            np.maximum(m[: M - j], b * (knots[j + k : M + k] - knots[j]), out=m[: M - j])
    return raw, m


def streamed_inverse(G):
    """Dense B = A^{-1} from G's blocks of lower columns, the upper triangle mirrored from the lower."""
    B = np.zeros((G.M, G.M))
    for start, rows in G.inverse_columns():
        for c in range(rows.shape[0]):
            j = start + c
            B[j:, j] = rows[c, : G.M - j]
    return np.tril(B) + np.tril(B, -1).T


def diag_inverse_bound(G):
    """Max over i of 1 / (a_ii b_ii), B = A^{-1}, from the band of the inverse.

    At most 1 for every SPD A, up to rounding, by Cauchy-Schwarz:
    1 = (A^{1/2} e_i, A^{-1/2} e_i) <= (a_ii b_ii)^{1/2}.
    """
    a_diag = G.band[G.partition.order - 1]
    return float(np.max(1.0 / (a_diag * G.inverse_diagonal)))


def trailing_solve_columns(G):
    """Yield (start, B[start:, start:start + w]), w <= 256, left to right, one banded solve per block.

    The reader ``GramSystem.inverse_columns`` replaced: each block is LAPACK's
    ``dpbtrs`` against the trailing factor alone and unit vectors, since the
    forward sweep is zero above ``start``.
    """
    M = G.M
    for start in range(0, M, 256):
        width = min(256, M - start)
        rhs = np.zeros((M - start, width))
        rhs[np.arange(width), np.arange(width)] = 1.0
        yield start, bspline.dpbtrs(G.factor[:, start:], rhs)[0]


def recurrence_inverse(G):
    """Dense B = A^{-1} by the recurrence of ``GramSystem.inverse_columns`` on whole columns.

    Column j, from the last to the first, is formed from the full columns
    j + 1..j + kd of a dense array with the reader's operations in its
    order, and mirrored into row j; no blocks and no band storage.
    """
    kd, M = G.partition.order - 1, G.M

    def u(j, l):
        return G.factor[kd - l, j + l]  # u_{j, j+l}

    B = np.zeros((M, M))
    for j in range(M - 1, -1, -1):
        lmax = min(kd, M - 1 - j)
        diag = 1.0 / u(j, 0)
        if lmax:
            col = B[j + 1 :, j + lmax] * -u(j, lmax)
            for l in range(lmax - 1, 0, -1):
                col = col - B[j + 1 :, j + l] * u(j, l)
            B[j + 1 :, j] = B[j, j + 1 :] = col / u(j, 0)
            for l in range(lmax, 0, -1):
                diag = diag - u(j, l) * B[j + l, j]
        B[j, j] = diag / u(j, 0)
    return B


def exact_inverse(band):
    """Columns of A^{-1} in Fractions for the band of A given as floats (``GramSystem.band``).

    Each column is ``exact_solve_banded`` against a unit vector; the result
    is the exact inverse of the stored doubles, not of the exact Gram matrix.
    """
    exact = [[Fraction(x) for x in row] for row in band.tolist()]
    M = len(exact[0])
    return [exact_solve_banded(exact, [Fraction(int(i == j)) for i in range(M)]) for j in range(M)]


def boehm_refine(fine, i0):
    """``bspline.boehm_weights`` of the insertion of tau_{i0} (1-based) into a fine partition.

    Raises IndexOutOfRange unless k + 1 <= i0 <= M.
    """
    k = fine.order
    if not k + 1 <= i0 <= fine.M:
        raise IndexOutOfRange(f"i0={i0} outside [k+1, M]=[{k + 1}, {fine.M}]")
    return bspline.boehm_weights(fine.knots[i0 - k - 1 : i0 + k])


def refinement_matrix(coarse, fine, i0):
    """(M_coarse, M_fine) matrix R with tilde-N_i = sum_j R[i, j] N_j.

    Row i (1-based) lists one or two (fine index, weight) pairs.  Regimes:
    identity up to i0 - k - 1, two-term convex combinations for
    i0 - k <= i <= i0 - 1, index shift from i0 on.
    """
    assert np.array_equal(np.delete(fine.knots, i0 - 1), coarse.knots)
    w1, w2 = boehm_refine(fine, i0)
    k = coarse.order
    R = np.zeros((coarse.M, fine.M))
    for i in range(1, coarse.M + 1):
        if i <= i0 - k - 1:
            pairs = [(i, 1.0)]
        elif i <= i0 - 1:
            t = i - (i0 - k)
            pairs = [(i, float(w1[t])), (i + 1, float(w2[t]))]
        else:
            pairs = [(i + 1, 1.0)]
        for j, w in pairs:
            R[i - 1, j - 1] = w
    return R


def prolong(coeffs, i0, w1, w2):
    """Coefficients over the fine basis of splines given over the coarse one.

    ``coeffs`` holds coarse coefficients along its last axis; (w1, w2) are
    the ``bspline.boehm_weights`` of the insertion at tau_{i0} (1-based).
    The k coarse columns the knot splits go through ``bspline.split_columns``.
    """
    a, b = i0 - len(w1) - 1, i0 - 1
    return np.concatenate(
        [coeffs[..., :a], bspline.split_columns(coeffs[..., a:b], w1, w2), coeffs[..., b:]], axis=-1
    )


def prolong_many(F, coarse, fine, i0):
    """Row-wise prolongation of stacked coarse coefficient vectors (T, M_coarse).

    Identity block, two-term block and shifted block written out separately,
    apart from the library's split kernel.
    """
    w1, w2 = boehm_refine(fine, i0)
    F = np.asarray(F, dtype=float)
    k = coarse.order
    T = F.shape[0]
    out = np.zeros((T, fine.M))
    a = i0 - k - 1  # count of identity rows (0-based block end)
    b = i0 - 1  # 0-based end of the two-term block
    out[:, :a] = F[:, :a]
    out[:, a:b] += F[:, a:b] * w1[None, :]
    out[:, a + 1 : b + 1] += F[:, a:b] * w2[None, :]
    out[:, b + 1 :] += F[:, b:]
    return out


def matrix_row_major(system):
    """``OrthoSystem.matrix`` by the row-major sweep: each insertion rewrites k + 1 strided columns.

    Each column stands for one level-N B-spline from the start, labelled by
    the level-N position of its first knot, and each level prolongs the
    rows before it with ``split_columns`` and the weights of
    ``boehm_refine``.
    """
    k, M, N = system.order, system.size, system.N
    rank = np.empty(N - 1, dtype=np.intp)
    rank[np.argsort(system.seq.points[2 : N + 1], kind="stable")] = np.arange(N - 1)
    labels = np.arange(k)
    F = np.zeros((M, M))
    F[:k, :k] = ortho.polynomial_coeffs_over(knots.boundary_partition(k), system.polynomials)
    for row, of in enumerate(level_records(system), start=k):
        w1, w2 = boehm_refine(knots.partition_at(system.seq, of.level), of.i0)
        p = of.i0 - 1
        labels = np.insert(labels, p, k + rank[of.level - 2])
        cols = labels[p - k : p + 1]
        F[:row, cols] = bspline.split_columns(F[:row, cols[:-1]], w1, w2)
        F[row, labels] = of.coeffs
    return F


def span_integrals_whole(system, rule, p):
    """``analysis.span_integrals`` with each block's values formed for every row at once."""
    q, roots = rule.q, rule.weights.ravel() ** (1.0 / p)
    pieces = np.empty((system.size, len(rule.spans)))
    for lo, first, vals in bspline.rule_blocks(system.gram.partition, rule):
        vals = vals * roots[lo : lo + len(first), None]
        mags = np.abs(bspline.spline_values(system.matrix, first, vals)) ** p
        spans = slice(lo // q, (lo + len(first)) // q)
        pieces[:, spans] = mags.reshape(len(mags), -1, q).sum(axis=2)
    return pieces


def square_function(system, coeffs, xs):
    """(sum_n c_n^2 f_n(x)^2)^(1/2) at each point, over the first coeffs.shape[-1] functions.

    Leading axes of ``coeffs``, one row per expansion, are carried.  Each
    block of points is evaluated for every row at once and reduced by one
    product with the squared coefficients, as ``analysis._grid_sums``
    reduces ``analysis.squared_values``.
    """
    F = system.matrix[: coeffs.shape[-1]]
    weights = coeffs**2
    out = np.empty(coeffs.shape[:-1] + (len(xs),))
    for lo, first, vals in bspline.eval_blocks(system.gram.partition, xs):
        V = bspline.spline_values(F, first, vals)
        out[..., lo : lo + len(first)] = np.sqrt(weights @ V**2)
    return out


def alpha_loop(partition, i0):
    """Insertion coefficients alpha_j, j = i0-k..i0, as knot-ratio products in 1-based loops.

    The form that ``ortho.alpha_coefficients`` replaced with products of the
    refinement weights; both multiply the same ratios in the same order.
    """
    k = partition.order

    def tau(i):
        return float(partition.knots[i - 1])

    x = tau(i0)
    alpha = np.empty(k + 1)
    for idx, j in enumerate(range(i0 - k, i0 + 1)):
        prod = 1.0
        for ell in range(i0 - k + 1, j):
            prod *= (x - tau(ell)) / (tau(ell + k) - tau(ell))
        for ell in range(j + 1, i0):
            prod *= (tau(ell + k) - x) / (tau(ell + k) - tau(ell))
        alpha[idx] = (-1.0) ** (j - i0 + k) * prod
    return alpha


def characteristic_interval(partition, i0, alpha):
    """The characteristic interval of one insertion, selected level by level on the whole knot vector.

    The per-level form of ``charint.characteristic_intervals``, with the
    same steps in the same arithmetic.  Returns (j0, J), J a pair of floats.
    """
    k = partition.order
    knots = partition.knots
    js = np.arange(i0 - k, i0 + 1)  # 1-based candidate indices
    lengths = knots[js + k - 1] - knots[js - 1]
    lam0 = lengths <= 2.0 * lengths.min()
    mags = np.abs(alpha)
    amax = mags[lam0].max()
    lam1 = lam0 & (mags >= amax * (1.0 - charint.TIE_REL_TOL))
    j0 = int(js[lam1][0])
    widths = knots[j0 : j0 + k] - knots[j0 - 1 : j0 + k - 1]
    a = int(np.argmax(widths))
    return j0, (float(knots[j0 - 1 + a]), float(knots[j0 + a]))


def ortho_function(G, i0):
    """The level-n orthonormal function from the level-n Gram system, one level on its own.

    The per-level form of the ``ortho.levels`` walk: alpha from the
    knot-ratio loop, A w = alpha with alpha scattered into R^M,
    ||g||_2^2 = alpha . w, J from the whole knot vector, and the knot
    window p-2k+1..p+3k-2 around p = i0 - 1 cut from it.  Returns a record
    with the fields of ``level_records`` and ``norm2``.  Raises
    NotPositiveDefinite, naming the level, when ||g||_2 or w is not finite.
    """
    part = G.partition
    k = part.order
    alpha = alpha_loop(part, i0)
    rhs = np.zeros(part.M)
    rhs[i0 - k - 1 : i0] = alpha
    w = G.solve(rhs)
    norm2 = math.sqrt(float(rhs @ w))
    if not (math.isfinite(norm2) and np.isfinite(w).all()):
        raise NotPositiveDefinite(f"level {part.level}: complement function not finite, norm {norm2}")
    j0, J = characteristic_interval(part, i0, alpha)
    return SimpleNamespace(
        level=part.level,
        i0=i0,
        window=part.knots.take(i0 - 1 + np.arange(1 - 2 * k, 3 * k - 1), mode="clip"),
        alpha=alpha,
        j0=j0,
        J=J,
        coeffs=w / norm2,
        norm2=norm2,
    )


def gram_schmidt_oracle(seq, n):
    """Brute-force construction of the level-n function.

    Projects the newly appearing fine B-spline onto the coarse space embedded
    through the refinement map, subtracts, and normalizes; dense linear
    algebra throughout.  The sign is aligned by the independent rule that the
    N_{i0} coefficient of the result has sign (-1)^k.
    """
    k = seq.order
    fine = knots.partition_at(seq, n)
    coarse = knots.partition_at(seq, n - 1) if n >= 3 else knots.boundary_partition(k)
    i0 = insert_event(seq, n)
    C = refinement_matrix(coarse, fine, i0)
    A = dense(bspline.gram_matrix(fine))
    e = np.zeros(fine.M)
    e[i0 - 1] = 1.0
    normal = C @ A @ C.T
    target = C @ A @ e
    c = dense_solve(normal, target, assume_a="pos")
    r = e - C.T @ c
    nrm = math.sqrt(float(r @ A @ r))
    phi = r / nrm
    if phi[i0 - 1] * (-1.0) ** k < 0:
        phi = -phi
    return Spline(fine, phi)


def estwj_ratio(of, G):
    """|w_{j0}| over the diagonal Gram-inverse entry at the selected index.

    ``of`` is a record of ``ortho_function``; w = norm2 * coeffs are the
    coefficients of the unnormalized complement g.
    """
    j0 = of.j0
    e = np.zeros(G.M)
    e[j0 - 1] = 1.0
    w = of.norm2 * of.coeffs
    return abs(float(w[j0 - 1])) / float(G.solve(e)[j0 - 1])


def deboor_stability_ratio(f, p):
    """Stability of the B-spline coordinates in L^p, two reported numbers.

    First: ||f||_p divided by the weighted coefficient norm
    ||(a_j nu_j^{1/p})||_{l^p} with nu_j the support length of N_j.  Second:
    the max over j of |a_j| against |J_j|^{-1/p} ||f||_{L^p(J_j)}, where J_j
    is the longest knot span inside the support of N_j.
    """
    if not (isinstance(p, (int, float)) and 1.0 <= p < math.inf):
        raise DomainError(f"p must be finite and >= 1, got {p!r}")
    part = f.partition
    k = part.order
    kn = part.knots
    nu = kn[k : k + part.M] - kn[: part.M]
    seq_norm = float((np.abs(f.coeffs) ** p @ nu) ** (1.0 / p))
    ratio = lp_norm(f, p) / seq_norm
    worst = 0.0
    for j in range(part.M):
        if f.coeffs[j] == 0.0:
            continue
        widths = kn[j + 1 : j + k + 1] - kn[j : j + k]
        s = int(np.argmax(widths))
        jj = (float(kn[j + s]), float(kn[j + s + 1]))
        local = lp_norm(f, p, jj)
        quot = abs(f.coeffs[j]) * (jj[1] - jj[0]) ** (1.0 / p) / local
        worst = max(worst, quot)
    return ratio, worst


def lp_norm(f, p, interval=(0.0, 1.0)):
    """L^p norm of a spline over a subinterval of [0, 1], for finite p >= 1.

    Integrates |f|^p by composite Gauss-Legendre with k + 2 nodes on every
    knot span clipped to the interval.  Each node is evaluated on its knot
    span from its offset to the span's left end, so narrow spans lose no
    digits.  On J_n it is the norm that ``analysis.tail_decay_audit``
    reads from its per-span pieces.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError(f"interval [{a}, {b}] is not inside [0, 1]")
    if not (isinstance(p, (int, float)) and 1.0 <= p < math.inf):
        raise DomainError(f"p must be finite and >= 1, got {p!r}")
    knots_ = f.partition.knots
    cuts = np.concatenate([[a], knots_[(knots_ > a) & (knots_ < b)], [b]])
    rule = bspline.QuadratureRule.over_spans(cuts, f.partition.order + 2)
    # A cut span's left end is a knot, or a inside the first span; it is below 1.
    left = cuts[rule.spans]
    spans = np.searchsorted(knots_, left, side="right") - 1
    u = (left - knots_[spans])[:, None] + rule.offsets
    first, vals = bspline.span_values(f.partition, np.repeat(spans, rule.q), u.ravel())
    vals = np.abs(bspline.spline_values(f.coeffs, first, vals)) ** p
    return float((rule.weights.ravel() * vals).sum() ** (1.0 / p))


def char_norms_loop(system, p):
    """The audit's norms on J_n one level at a time: ``lp_norm`` of each phi_n on its J_n."""
    return np.array([lp_norm(level_spline(system.seq, rec), p, rec.J) for rec in level_records(system)])


def boehm_identity_loop(system, seed, xs):
    """``analysis.boehm_identity_error`` one level at a time, as ``verify`` once ran it.

    Each level's partition is evaluated whole at xs, its coarse coefficients
    drawn in a call of their own and prolonged whole (``prolong``), and the
    level's largest gap is folded in with ``np.maximum``, which keeps a NaN;
    the builtin ``max(0.0, nan)`` would drop it.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    coarse = bspline.eval_basis_many(knots.boundary_partition(system.order), xs)
    for of in level_records(system):
        part = knots.partition_at(system.seq, of.level)
        fine = bspline.eval_basis_many(part, xs)
        w1, w2 = boehm_refine(part, of.i0)
        c = rng.standard_normal(part.M - 1)
        fine_c = prolong(c, of.i0, w1, w2)
        gap = bspline.spline_values(fine_c, *fine) - bspline.spline_values(c, *coarse)
        worst = float(np.maximum(worst, np.abs(gap).max()))
        coarse = fine
    return worst


def d_point(knots_, J, x):
    """Knots between x and the characteristic interval J, endpoint included, by binary search.

    ``knots_`` is the level's sorted knot vector and ``x`` a point or an
    array of points; the counts have the shape of x.  Counts knots with
    multiplicity strictly between x and the nearer endpoint of J, plus that
    endpoint once; 0 when x lies in J.  The per-level form of
    ``charint.knot_distances``.
    """
    x = np.asarray(x, dtype=float)
    outside = ~((x >= 0.0) & (x <= 1.0))  # NaN included
    if outside.any():
        raise DomainError(f"x={float(x[outside].flat[0])} outside [0, 1]")
    c, d = J
    left = np.searchsorted(knots_, c, "left") - np.searchsorted(knots_, x, "right") + 1
    right = np.searchsorted(knots_, x, "left") - np.searchsorted(knots_, d, "right") + 1
    return np.where(x < c, left, np.where(x > d, right, 0))


def sup_norm(f, interval):
    """max |f| over 8k Chebyshev points per knot span clipped to the interval, plus the span ends.

    The L^inf norm that ``lp_norm`` does not take, up to the
    sampling of each polynomial piece.
    """
    a, b = float(interval[0]), float(interval[1])
    k = f.partition.order
    knots = f.partition.knots
    cuts = np.concatenate([[a], knots[(knots > a) & (knots < b)], [b]])
    live = np.flatnonzero(np.diff(cuts) > 0)
    lo, hi = cuts[live], cuts[live + 1]
    theta = np.pi * (2 * np.arange(8 * k) + 1) / (16 * k)
    pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * np.cos(theta)
    return float(np.abs(f(np.concatenate([pts.ravel(), lo, hi]))).max())


def legendre_projection(f, interval, order, q=None):
    """Orthogonal L2 projection of f onto order-k polynomials on an interval.

    Uses the affinely mapped Legendre basis of the interval; the inner
    products are computed by Gauss-Legendre quadrature with q nodes
    (default max(k, 16), exact whenever f is itself a polynomial of order
    <= q - k + 1).  Returns a Legendre series object on the interval.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise EmptyInterval(f"interval [{a}, {b}] has no interior")
    if q is None:
        q = max(order, 16)
    ref_x, ref_w = leggauss(q)
    xs = 0.5 * (a + b) + 0.5 * (b - a) * ref_x
    ws = 0.5 * (b - a) * ref_w
    fx = np.asarray([float(f(x)) for x in xs])
    scale = math.sqrt(2.0 / (b - a))
    coef = np.zeros(order)
    u = (2.0 * xs - a - b) / (b - a)
    for j in range(order):
        lj = Legendre.basis(j)(u) * scale
        inner = float(np.sum(ws * fx * lj))
        coef[j] = (2 * j + 1) / 2.0 * inner * scale
    return Legendre(coef, domain=[a, b])


def char_multiplicity_census(system, x, y, beta):
    """How many levels n <= N put their J_n inside [x, y] at comparable length.

    Counts n with J_n a subset of [x, y] and |J_n| >= (1 - beta) (y - x).
    Both window endpoints must be values of the knot sequence.  The direct
    count that charint.census_max must agree with on every window.
    """
    x, y = float(x), float(y)
    if not 0.0 <= beta <= 0.5:
        raise DomainError(f"beta={beta} outside [0, 1/2]")
    if not x < y:
        raise DomainError(f"window needs x < y, got [{x}, {y}]")
    values = set(system.seq.points[: system.N + 1])
    if x not in values:
        raise NotAKnot(f"{x!r} is not a knot value of the sequence")
    if y not in values:
        raise NotAKnot(f"{y!r} is not a knot value of the sequence")
    floor = (1.0 - beta) * (y - x)
    count = 0
    for rec in level_records(system):
        c, d = rec.J
        if c >= x and d <= y and (d - c) >= floor:
            count += 1
    return count


def exact_right_tails(pieces):
    """sum(pieces[r, c:]) for every row r and column c <= S, each correctly rounded, as math.fsum gives.

    Each double is an integer multiple of 2^-1074, so the sums are exact in
    integers, and int / int rounds correctly.
    """
    unit = 2**1074
    out = []
    for row in pieces.tolist():
        ints = [n * (unit // d) for n, d in map(float.as_integer_ratio, reversed(row))]
        out.append([total / unit for total in itertools.accumulate(ints)][::-1] + [0.0])
    return np.array(out)


def tail_decay_loop(system, ps, gammas):
    """``analysis.tail_decay_audit`` for every (p, gamma), one Python iteration per (n, x) pair.

    Returns {(p, gamma): report}, the audit's report but for its norms on
    J_n, which ``char_norms_loop`` gives.  The per-span pieces are the
    audit's own ``analysis.span_integrals``; each pair makes its own
    ``searchsorted`` and scalar ``d_point`` calls, and every logarithm is
    of one float (``np.log`` for the two per-pair terms, as in the audit),
    so the maxima are the per-pair ones bit for bit.
    """
    k = system.order
    rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, k + 6)
    rights = system.gram.partition.knots[rule.spans + 1]
    nodes = list(bspline.rule_blocks(system.gram.partition, rule))
    pieces = {p: analysis.span_integrals(system.matrix, rule, nodes, p) for p in ps}
    records = level_records(system)

    max_log = {(p, g): -math.inf for p in ps for g in gammas}
    count = 0
    for n in range(2, system.N + 1):
        fn = records[n - 2]
        row = n + k - 2
        c, d = fn.J
        level_knots = knots.partition_at(system.seq, n).knots
        for x in np.unique(level_knots):
            if c < x < d:
                continue
            cut = int(np.searchsorted(rights, x, side="right"))
            dist = c - x if x <= c else x - d
            dn = int(d_point(level_knots, fn.J, x))
            for p in ps:
                # One piece at a time, from the far end of the tail inward.
                run = pieces[p][row, :cut] if x <= c else pieces[p][row, cut:][::-1]
                tail_p = 0.0
                for piece in run.tolist():
                    tail_p += piece
                if not tail_p > 0.0:
                    continue
                for g in gammas:
                    log_envelope = (
                        dn * math.log(g)
                        + 0.5 * math.log(d - c)
                        - (1.0 - 1.0 / p) * float(np.log(d - c + dist))
                    )
                    max_log[p, g] = max(max_log[p, g], float(np.log(tail_p)) / p - log_envelope)
            count += 1
    log_float_max = math.log(sys.float_info.max)
    return {
        (p, g): {
            "k": k,
            "p": p,
            "N": system.N,
            "gamma": g,
            "max_ratio": math.exp(m) if m <= log_float_max else math.inf,
            "tails": count,
        }
        for (p, g), m in max_log.items()
    }


def expand(f, system, N=None):
    """Coefficients of f against the orthonormal functions through level N.

    Splines on the system's finest partition go through the Gram matrix and
    are exact; anything callable is integrated by Gauss-Legendre quadrature
    on the finest partition.
    """
    if N is None:
        N = system.N
    if N > system.N:
        raise LevelOutOfRange(f"system built to level {system.N}, asked for {N}")
    size = N + system.order - 1
    if size < 1:
        raise LevelOutOfRange(f"truncation level {N} leaves no functions")
    part = system.gram.partition
    if isinstance(f, Spline) and f.partition.order == part.order and np.array_equal(
        f.partition.knots, part.knots
    ):
        a = system.matrix @ system.gram.apply(f.coeffs)
    else:
        rule = bspline.QuadratureRule.over_spans(part.knots, system.order + 8)
        xs = rule_nodes(part.knots, rule).ravel()
        fv = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
        moments = design_matrix(part, xs).T @ (rule.weights.ravel() * fv)
        a = system.matrix @ moments
    return a[:size]


def expansion_values(system, coeffs, xs):
    """sum_n c_n f_n at the points, over the first len(coeffs) functions."""
    return coeffs @ value_matrix(system, xs)[: len(coeffs)]


def reconstruction(system, coeffs):
    """The expansion as a spline on the finest partition."""
    return Spline(system.gram.partition, system.matrix[: len(coeffs)].T @ coeffs)


def maximal_function(coeffs, V):
    """Largest absolute partial sum of the expansion, level by level.

    ``V`` is ``value_matrix(system, xs)``; one value per point of xs.
    """
    partial = np.cumsum(coeffs[:, None] * V[: len(coeffs)], axis=0)
    return np.abs(partial).max(axis=0)


def hl_maximal(g):
    """Exact sup of interval averages of |g| over grid-aligned intervals.

    ``g`` holds one value per cell of a uniform grid.  For each left endpoint
    i the averages over [i, j] are a running mean in j; a reversed
    cumulative max gives the best interval starting at i and covering each
    cell, and the outer loop keeps the best over i.  Work is O(G^2) but
    entirely in vector ops; degenerate one-cell intervals are included, so
    the result dominates |g| pointwise.
    """
    a = np.abs(g)
    G = len(a)
    P = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(G)
    for i in range(G):
        avgs = (P[i + 1 :] - P[i]) / np.arange(1, G - i + 1)
        np.maximum(out[i:], np.maximum.accumulate(avgs[::-1])[::-1], out=out[i:])
    return out


@dataclass(frozen=True)
class LevelSets:
    """Cell unions for a square-function threshold and its maximal hull."""

    E: np.ndarray
    B: np.ndarray
    e_measure: float
    b_measure: float
    weak_constant: object


def level_sets(sf, lam, r):
    """Threshold set of a square function and its maximal-average hull.

    ``sf`` holds the square function on the G-cell grid, G = len(sf).  E
    collects the cells where Sf > lam.  B is the cell set where some
    grid-aligned interval through the cell has 1_E-average above r; that is
    decided exactly in O(G) by testing whether the best-sum segment of
    1_E - r through each cell is positive, which is the same predicate.  B
    holds E for every input: on a cell of E the one-cell segment alone
    gives through >= 1 - r > 0, up to the rounding of the prefix sums.
    """
    if lam <= 0:
        raise DomainError(f"lambda={lam} must be positive")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r={r} outside (0, 1)")
    G = len(sf)
    E = sf > lam
    s = E.astype(float) - r
    P = np.concatenate([[0.0], np.cumsum(s)])
    end_best = P[1:] - np.minimum.accumulate(P[:-1])
    start_best = np.maximum.accumulate(P[1:][::-1])[::-1] - P[:-1]
    through = end_best + start_best - s
    B = through > 0.0
    e_measure = float(E.sum()) / G
    b_measure = float(B.sum()) / G
    c = r * b_measure / e_measure if e_measure > 0 else None
    return LevelSets(E=E, B=B, e_measure=e_measure, b_measure=b_measure, weak_constant=c)


def d_interval(knots, J, V):
    """Knots between an interval V and J, both facing endpoints counted when knots.

    0 when the closures of V and J intersect; otherwise knots of the sorted
    vector ``knots`` with multiplicity strictly between them, plus one for
    each facing endpoint that is itself a knot value.
    """
    va, vb = float(V[0]), float(V[1])
    if not (0.0 <= va <= vb <= 1.0):
        raise DomainError(f"interval ({va}, {vb}) is not inside [0, 1]")
    c, d = J
    if vb >= c and va <= d:
        return 0
    if vb < c:
        gap_lo, gap_hi = vb, c
        v_end = vb
    else:
        gap_lo, gap_hi = d, va
        v_end = va
    between = np.searchsorted(knots, gap_hi, "left") - np.searchsorted(knots, gap_lo, "right")
    count = int(between) + 1  # the facing endpoint of J is always a knot
    if np.any(knots == v_end):
        count += 1
    return count


def monotone_subsequence(xs):
    """Length of the longest nondecreasing or nonincreasing subsequence."""
    xs = list(xs)
    return max(_longest_nondecreasing(xs), _longest_nondecreasing([-x for x in xs]))


def _longest_nondecreasing(xs):
    # Patience sorting on the tails array; bisect_right admits ties.
    tails = []
    for x in xs:
        pos = bisect_right(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def _exact_span_basis(t, k, s, x):
    """The k B-splines nonzero on span s, as the span's polynomial pieces at x, in Fractions."""
    vals = [Fraction(1)]
    for j in range(1, k):
        saved, new = Fraction(0), []
        for r in range(j):
            left, right = x - t[s + 1 - j + r], t[s + 1 + r] - x
            temp = vals[r] / (left + right)
            new.append(saved + right * temp)
            saved = left * temp
        vals = new + [saved]
    return vals


@functools.lru_cache(maxsize=None)
def _newton_cotes(n):
    """Closed Newton-Cotes nodes and weights of n + 1 points on [0, 1], exact through degree n."""
    ts = [Fraction(i, n) for i in range(n + 1)] if n else [Fraction(0)]
    weights = []
    for i, ti in enumerate(ts):
        poly = [Fraction(1)]  # Lagrange basis polynomial of node i, lowest degree first
        for j, tj in enumerate(ts):
            if j != i:
                poly = [(a - tj * b) / (ti - tj) for a, b in zip([0] + poly, poly + [0])]
        weights.append(sum(c / (m + 1) for m, c in enumerate(poly)))
    return ts, weights


def exact_gram_band(partition):
    """The upper Gram band of a partition in Fractions, laid out as ``GramSystem.band``.

    Every double is a dyadic rational, so each Gram entry is a rational: on
    each nonzero-width span the products of two B-splines have degree
    2k - 2, and the closed Newton-Cotes rule on 2k - 1 equispaced points
    integrates them exactly.
    """
    k, M = partition.order, partition.M
    t = [Fraction(x) for x in partition.knots.tolist()]
    ts, ws = _newton_cotes(2 * k - 2)
    band = [[Fraction(0)] * M for _ in range(k)]
    for s in range(len(t) - 1):
        h = t[s + 1] - t[s]
        if h == 0:
            continue
        vals = [_exact_span_basis(t, k, s, t[s] + h * x) for x in ts]
        for a in range(k):
            for b in range(a, k):
                band[k - 1 - b + a][s - k + 1 + b] += h * sum(w * v[a] * v[b] for w, v in zip(ws, vals))
    return band


def exact_solve_banded(band, rhs):
    """x with A x = rhs for the symmetric band A, by banded elimination with no square root.

    Row i of the elimination keeps A[i, i..i+k-1]; the Schur complements stay
    symmetric, so the multiplier of row i + d is read from the upper entry.
    """
    k, M = len(band), len(rhs)
    U = [[band[k - 1 - d][i + d] if i + d < M else Fraction(0) for d in range(k)] for i in range(M)]
    y = list(rhs)
    for i in range(M):
        for d in range(1, min(k, M - i)):
            f = U[i][d] / U[i][0]
            for e in range(d, k):
                U[i + d][e - d] -= f * U[i][e]
            y[i + d] -= f * y[i]
    x = [Fraction(0)] * M
    for i in reversed(range(M)):
        x[i] = (y[i] - sum(U[i][d] * x[i + d] for d in range(1, min(k, M - i)))) / U[i][0]
    return x


def exact_alpha(partition, i0):
    """``ortho.alpha_coefficients`` in Fractions, from the exact Boehm weights."""
    k = partition.order
    t = [Fraction(x) for x in partition.knots.tolist()]
    x = t[i0 - 1]
    lo = range(i0 - k, i0)
    w1 = [(x - t[j - 1]) / (t[j + k - 1] - t[j - 1]) for j in lo]
    w2 = [(t[j + k] - x) / (t[j + k] - t[j]) for j in lo]
    return [(-1) ** m * math.prod(w1[1:m] + w2[m : k - 1]) for m in range(k + 1)]


def exact_phi(partition, i0, band):
    """Coefficients of the level's phi_n from the exact solve A w = alpha.

    ``band`` is the partition's ``exact_gram_band``.  phi = w / sqrt(alpha . w);
    each coefficient is the rounded square root of the rounded rational
    w_i^2 / (alpha . w), within about one ulp.
    """
    k = partition.order
    rhs = [Fraction(0)] * partition.M
    rhs[i0 - k - 1 : i0] = exact_alpha(partition, i0)
    w = exact_solve_banded(band, rhs)
    norm_sq = sum(r * v for r, v in zip(rhs, w))
    return np.array([math.sqrt(v * v / norm_sq) * (1 if v >= 0 else -1) for v in w])
