"""B-spline basis evaluation, Gram assembly, one-knot refinement, and L^p norms.

The basis is the L^inf-normalized one: the order-k B-splines N_1..N_M of a
partition form a partition of unity.  Evaluation is right-continuous at
interior knots and takes the left limit at x = 1, so the identity
sum_j N_j(x) = 1 holds on the closed interval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import (
    DomainError,
    NotPositiveDefinite,
    PartitionMismatch,
    QuadratureTooCoarse,
)

# Columns of the Gram inverse produced per banded solve.
_INVERSE_BLOCK = 256


@functools.lru_cache(maxsize=None)
def _gauss_legendre(q):
    """Read-only Gauss-Legendre nodes and weights of q points on [-1, 1]."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    ref_x.setflags(write=False)
    ref_w.setflags(write=False)
    return ref_x, ref_w


def _find_spans(partition, xs):
    """0-based span index s with knots[s] <= x < knots[s+1] for each x.

    x = 1 uses the span ending at 1 (left limit).  Raises DomainError for
    points outside [0, 1].
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    knots = partition.knots
    spans = np.searchsorted(knots, xs, side="right") - 1
    last = len(knots) - partition.order - 1
    spans[xs == 1.0] = last
    return spans


def eval_basis_many(partition, xs):
    """Evaluate the k potentially nonzero B-splines at each point.

    Returns ``(first, values)`` where ``first`` holds the 1-based index of the
    first evaluated basis function per point and ``values`` has shape
    (len(xs), k) with N_first..N_{first+k-1} at that point.
    """
    xs = np.asarray(xs, dtype=float)
    spans = _find_spans(partition, xs)
    knots = partition.knots
    k = partition.order
    npts = len(xs)
    vals = np.zeros((npts, k))
    vals[:, 0] = 1.0
    left = np.empty((npts, k))
    right = np.empty((npts, k))
    for j in range(1, k):
        left[:, j] = xs - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - xs
        saved = np.zeros(npts)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    first = spans - k + 2
    return first, vals


def eval_basis(partition, x):
    """Single-point variant: (1-based first index, the k basis values there)."""
    first, vals = eval_basis_many(partition, [float(x)])
    return int(first[0]), vals[0]


def basis_matrix(partition, xs):
    """Dense design matrix of shape (len(xs), M) with entry N_j(x_i)."""
    first, vals = eval_basis_many(partition, xs)
    out = np.zeros((len(vals), partition.M))
    cols = (first - 1)[:, None] + np.arange(partition.order)[None, :]
    out[np.arange(len(vals))[:, None], cols] = vals
    return out


@dataclass(frozen=True)
class Spline:
    """Coefficient vector over a partition's B-spline basis."""

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
        first, vals = eval_basis_many(self.partition, np.atleast_1d(xs))
        cols = (first - 1)[:, None] + np.arange(self.partition.order)[None, :]
        out = (self.coeffs[cols] * vals).sum(axis=1)
        return float(out[0]) if scalar else out

    __call__ = eval

    def to_dict(self):
        return {
            "k": self.partition.order,
            "knots": [float(t) for t in self.partition.knots],
            "coeffs": [float(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class QuadratureRule:
    """Per-knot-interval Gauss-Legendre nodes, exact through degree 2q - 1."""

    q: int
    intervals: np.ndarray  # (S, 2) nonzero-width spans
    nodes: np.ndarray  # (S, q)
    weights: np.ndarray  # (S, q)

    @classmethod
    def for_partition(cls, partition, q):
        return cls._over_spans(partition.knots, q)

    @classmethod
    def _over_spans(cls, knots, q):
        """The rule on the nonzero-width spans of a run of consecutive knots."""
        if q < 1:
            raise QuadratureTooCoarse(f"need at least one node, got q={q}")
        widths = np.diff(knots)
        live = np.flatnonzero(widths > 0)
        a = knots[live]
        b = knots[live + 1]
        ref_x, ref_w = _gauss_legendre(q)
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * ref_x[None, :]
        weights = half[:, None] * ref_w[None, :]
        return cls(
            q=q,
            intervals=np.column_stack([a, b]),
            nodes=nodes,
            weights=weights,
        )

    @property
    def flat_nodes(self):
        return self.nodes.ravel()

    @property
    def flat_weights(self):
        return self.weights.ravel()


class GramSystem:
    """Banded Gram matrix a_ij = <N_i, N_j> with its Cholesky factorization.

    The band has width k - 1 (supports of N_i and N_j are disjoint once
    |i - j| >= k).  The inverse B = A^{-1} is dense; it is read a block of
    columns at a time through the factor and never held whole.
    """

    def __init__(self, partition, band, factor, q):
        self.partition = partition
        self.band = band
        self.factor = factor
        self.q = q

    @property
    def M(self):
        return self.partition.M

    def entry(self, i, j):
        """a_ij, 1-based."""
        i0, j0 = i - 1, j - 1
        if not (0 <= i0 < self.M and 0 <= j0 < self.M):
            raise IndexError(f"({i}, {j}) outside 1..{self.M}")
        if abs(i0 - j0) >= self.partition.order:
            return 0.0
        lo, hi = min(i0, j0), max(i0, j0)
        return float(self.band[self.partition.order - 1 - (hi - lo), hi])

    def dense(self):
        """Full symmetric matrix A."""
        k, M = self.partition.order, self.M
        a = np.zeros((M, M))
        for d in range(k):
            diag = self.band[k - 1 - d, d:]
            a[np.arange(M - d), np.arange(d, M)] = diag
            a[np.arange(d, M), np.arange(M - d)] = diag
        return a

    def apply(self, v):
        """A @ v for a vector (M,) or stacked columns (M, T)."""
        v = np.asarray(v, dtype=float)
        k = self.partition.order
        diag = self.band[k - 1]
        y = diag[:, None] * v if v.ndim == 2 else diag * v
        for d in range(1, k):
            sd = self.band[k - 1 - d, d:]
            s = sd[:, None] if v.ndim == 2 else sd
            y[:-d] += s * v[d:]
            y[d:] += s * v[:-d]
        return y

    def solve(self, rhs):
        """A x = rhs through the banded Cholesky factor."""
        return cho_solve_banded((self.factor, False), rhs)

    def inverse_columns(self):
        """Yield (start, cols) with cols = B[:, start:start + w], w <= 256, left to right.

        Each block is one banded solve against the matching identity columns,
        so at most M x 256 entries of B exist at a time.
        """
        M = self.M
        for start in range(0, M, _INVERSE_BLOCK):
            width = min(_INVERSE_BLOCK, M - start)
            rhs = np.zeros((M, width))
            rhs[start + np.arange(width), np.arange(width)] = 1.0
            yield start, self.solve(rhs)


def _band_columns(partition, rule, lo, hi):
    """Columns lo..hi-1 of the upper Gram band, summed from the rule's span blocks.

    Span blocks are added in (a, b) loop order, then in span order, however
    many columns are asked for, so a column whose spans all lie in the rule
    carries the same bits as in the assembly of the whole band.
    """
    k = partition.order
    first, vals = eval_basis_many(partition, rule.flat_nodes)
    S = rule.nodes.shape[0]
    vals = vals.reshape(S, rule.q, k)
    blocks = np.einsum("sqa,sqb,sq->sab", vals, vals, rule.weights)
    # All nodes of one span share the same first index; take it per span.
    f0 = first.reshape(S, rule.q)[:, 0] - 1 - lo
    band = np.zeros((k, hi - lo))
    for a in range(k):
        for b in range(a, k):
            d = b - a
            cols = f0 + b
            keep = (cols >= 0) & (cols < hi - lo)
            np.add.at(band[k - 1 - d], cols[keep], blocks[keep, a, b])
    return band


def _factored(partition, band, q):
    try:
        factor = cholesky_banded(band, lower=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return GramSystem(partition, band, factor, q)


def gram_matrix(partition, rule=None):
    """Assemble the banded Gram matrix of the partition's B-spline basis.

    The default rule uses q = k nodes per interval, which integrates the
    degree-(2k - 2) products exactly.  A caller-supplied rule must satisfy
    q >= k.
    """
    k = partition.order
    if rule is None:
        rule = QuadratureRule.for_partition(partition, k)
    if rule.q < k:
        raise QuadratureTooCoarse(f"q={rule.q} < k={k} cannot integrate the products exactly")
    return _factored(partition, _band_columns(partition, rule, 0, partition.M), rule.q)


def gram_refine(G, fine, i0):
    """The Gram system of a one-knot refinement, from the coarse one.

    ``fine`` is G's partition with tau_{i0} (1-based) inserted.  Band column
    c (0-based) holds <N_c, N_{c-d}>, d < k, and the Cox-de Boor value of a
    B-spline depends only on its own knots; so every column whose B-splines
    lie on one side of the new knot, c < i0 - k - 1 or c >= i0 + k - 1, is
    the coarse column, shifted by one past the knot.  The columns within 2k
    of the knot are assembled afresh with G's rule size; the extra k on
    either side are slack for a Gauss node that rounds onto the end of a
    span a few ulps wide and is evaluated on a later span.  The band equals
    the one ``gram_matrix(fine)`` assembles, bit for bit, and is factored
    again.
    """
    _check_refinement(G.partition, fine, i0)
    k = fine.order
    p = i0 - 1
    band = np.empty((k, fine.M))
    band[:, :p] = G.band[:, :p]
    band[:, p + 1 :] = G.band[:, p:]
    lo, hi = max(0, p - 2 * k), min(fine.M, p + 2 * k)
    # Span s feeds columns s-k+1..s; take k spans of slack on either side.
    s0, s1 = max(0, lo - k), min(len(fine.knots) - 1, hi + 2 * k - 1)
    rule = QuadratureRule._over_spans(fine.knots[s0 : s1 + 1], G.q)
    band[:, lo:hi] = _band_columns(fine, rule, lo, hi)
    return _factored(fine, band, G.q)


@dataclass(frozen=True)
class RefinementMap:
    """Coarse B-splines written in the basis of a one-knot refinement.

    Row i of the map lists the one or two (index, weight) pairs with
    tilde-N_i = sum weight * N_index over the fine partition.  Regimes:
    identity up to i0 - k - 1, two-term convex combinations for
    i0 - k <= i <= i0 - 1, index shift from i0 on.
    """

    coarse: object
    fine: object
    i0: int
    w1: np.ndarray  # first weight of each two-term row, rows i0-k..i0-1
    w2: np.ndarray  # second weight of the same rows

    @property
    def rows(self):
        """Per coarse index i (1-based), the list of (fine index, weight)."""
        k, i0 = self.coarse.order, self.i0
        out = []
        for i in range(1, self.coarse.M + 1):
            if i <= i0 - k - 1:
                out.append([(i, 1.0)])
            elif i <= i0 - 1:
                t = i - (i0 - k)
                out.append([(i, float(self.w1[t])), (i + 1, float(self.w2[t]))])
            else:
                out.append([(i + 1, 1.0)])
        return out

    def as_matrix(self):
        """(M_coarse, M_fine) matrix R with tilde-N_i = sum_j R[i, j] N_j."""
        R = np.zeros((self.coarse.M, self.fine.M))
        for i, pairs in enumerate(self.rows):
            for j, w in pairs:
                R[i, j - 1] = w
        return R

    def prolong(self, coeffs):
        """Coefficients of a coarse spline over the fine basis."""
        return self.prolong_many(np.asarray(coeffs, dtype=float)[None, :])[0]

    def prolong_many(self, F):
        """Row-wise prolongation of stacked coarse coefficient vectors (T, M_coarse)."""
        F = np.asarray(F, dtype=float)
        k, i0 = self.coarse.order, self.i0
        T = F.shape[0]
        out = np.zeros((T, self.fine.M))
        a = i0 - k - 1  # count of identity rows (0-based block end)
        b = i0 - 1  # 0-based end of the two-term block
        out[:, :a] = F[:, :a]
        out[:, a:b] += F[:, a:b] * self.w1[None, :]
        out[:, a + 1 : b + 1] += F[:, a:b] * self.w2[None, :]
        out[:, b + 1 :] += F[:, b:]
        return out


def _check_refinement(coarse, fine, i0):
    """Raise PartitionMismatch unless fine is coarse with tau_{i0} (1-based) inserted."""
    if coarse.order != fine.order:
        raise PartitionMismatch("orders differ")
    if fine.level != coarse.level + 1 or len(fine.knots) != len(coarse.knots) + 1:
        raise PartitionMismatch("fine partition is not one level above coarse")
    if not 1 <= i0 <= len(fine.knots):
        raise PartitionMismatch(f"insertion index {i0} outside the fine knot vector")
    if not np.array_equal(np.delete(fine.knots, i0 - 1), coarse.knots):
        raise PartitionMismatch("removing the inserted knot does not recover the coarse partition")


def boehm_refine(coarse, fine, i0):
    """Express each coarse B-spline over the fine basis after one knot insert.

    Raises PartitionMismatch unless removing tau_{i0} (1-based) from the fine
    partition reproduces the coarse one exactly.
    """
    _check_refinement(coarse, fine, i0)
    k = coarse.order
    t = fine.knots
    x = t[i0 - 1]
    lo = np.arange(i0 - k, i0)  # 1-based two-term row indices
    w1 = (x - t[lo - 1]) / (t[lo + k - 1] - t[lo - 1])
    w2 = (t[lo + k] - x) / (t[lo + k] - t[lo])
    return RefinementMap(coarse=coarse, fine=fine, i0=i0, w1=w1, w2=w2)


def _chebyshev_points(lo, hi, count):
    theta = np.pi * (2 * np.arange(count) + 1) / (2 * count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _clip_intervals(partition, a, b):
    """Knot spans intersected with [a, b]; returns (lo, hi) arrays, hi > lo."""
    knots = partition.knots
    lo = np.maximum(knots[:-1], a)
    hi = np.minimum(knots[1:], b)
    keep = hi > lo
    return lo[keep], hi[keep]


def lp_norm(f, p, interval=(0.0, 1.0)):
    """L^p norm of a spline over a subinterval of [0, 1].

    Finite p integrates |f|^p by composite Gauss-Legendre with k + 2 nodes on
    every knot span clipped to the interval; p = inf takes the max of |f| over
    8k Chebyshev points per clipped span plus the span endpoints.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a <= b <= 1.0):
        raise DomainError(f"interval [{a}, {b}] is not inside [0, 1]")
    if not (isinstance(p, (int, float)) and (p >= 1.0)):
        raise DomainError(f"p must be in [1, inf], got {p!r}")
    if a == b:
        return 0.0
    k = f.partition.order
    lo, hi = _clip_intervals(f.partition, a, b)
    if len(lo) == 0:
        return 0.0
    if math.isinf(p):
        pts = _chebyshev_points(lo[:, None], hi[:, None], 8 * k)
        xs = np.concatenate([pts.ravel(), lo, hi])
        return float(np.abs(f.eval(xs)).max())
    ref_x, ref_w = _gauss_legendre(k + 2)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * ref_x[None, :]
    ws = half[:, None] * ref_w[None, :]
    vals = np.abs(f.eval(xs.ravel())) ** p
    return float((ws.ravel() * vals).sum() ** (1.0 / p))


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
    knots = part.knots
    nu = knots[k : k + part.M] - knots[: part.M]
    seq_norm = float((np.abs(f.coeffs) ** p @ nu) ** (1.0 / p))
    ratio = lp_norm(f, p) / seq_norm
    worst = 0.0
    for j in range(part.M):
        if f.coeffs[j] == 0.0:
            continue
        widths = knots[j + 1 : j + k + 1] - knots[j : j + k]
        s = int(np.argmax(widths))
        jj = (float(knots[j + s]), float(knots[j + s + 1]))
        local = lp_norm(f, p, jj)
        quot = abs(f.coeffs[j]) * (jj[1] - jj[0]) ** (1.0 / p) / local
        worst = max(worst, quot)
    return ratio, worst
