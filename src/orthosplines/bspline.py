"""B-spline basis evaluation, Gram assembly and one-knot refinement.

The basis is the L^inf-normalized one: the order-k B-splines N_1..N_M of a
partition form a partition of unity.  Evaluation is right-continuous at
interior knots and takes the left limit at x = 1, so the identity
sum_j N_j(x) = 1 holds on the closed interval.  Splines are evaluated only
from the k basis values at each point (``eval_basis_many``, ``spline_values``),
and a rule's nodes a span at a time (``rule_blocks``, ``node_values``).

Every basis value comes from one Cox-de Boor kernel on a span index s and an
offset u = x - tau_s, which reads the knots only through differences from
tau_s.  ``eval_basis_many`` finds the span of an absolute point; quadrature
rules place their Gauss nodes by offset on their own spans and never search
for one, so spans a few ulps wide lose no digits.

The banded Cholesky factor and solve are LAPACK's ``dpbtrf`` and ``dpbtrs``,
taken from scipy's compiled LAPACK extension ``scipy/linalg/_flapack``, the
object ``scipy.linalg.lapack`` re-exports.  It is loaded by file, without
the ``scipy.linalg`` package, whose import costs about 0.3 s per process.
``dpbtrs`` serves only the level walk's window solves (``window_solve``):
the Gram inverse is read from the factor by a recurrence, one diagonal at
a time, with no solve.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotPositiveDefinite,
    QuadratureTooCoarse,
)


def _lapack_band_routines():
    """``dpbtrf`` and ``dpbtrs`` from scipy's LAPACK extension, with no scipy package imported.

    ``PathFinder`` looks for the extension file in scipy's ``linalg``
    directory without running any package ``__init__``; a missing file
    fails the import of this module, naming where it was looked for.
    """
    scipy = importlib.machinery.PathFinder.find_spec("scipy")
    where = [os.path.join(d, "linalg") for d in (scipy.submodule_search_locations if scipy else [])]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", where)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {where or 'any scipy install'}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dpbtrf, flapack.dpbtrs


dpbtrf, dpbtrs = _lapack_band_routines()

# Points per evaluation block.  Readers of many splines form their values on
# a block one tile of rows at a time (``row_tiles``), not R x EVAL_BLOCK at once.
EVAL_BLOCK = 512
# Floats per tile of spline values, 128 KB: a tile is reduced while it is in
# cache, and temporaries this small are reused by the allocator instead of
# being mapped, and page-faulted, afresh on every allocation.
TILE = 16384


@functools.lru_cache(maxsize=None)
def _gauss_legendre(q):
    """Read-only Gauss-Legendre nodes and weights of q points on [-1, 1]."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    ref_x.setflags(write=False)
    ref_w.setflags(write=False)
    return ref_x, ref_w


def find_spans(partition, xs):
    """0-based span index s with knots[s] <= x < knots[s+1] for each x.

    x = 1 uses the span ending at 1 (left limit).  Raises DomainError for
    points outside [0, 1] and for NaN.
    """
    xs = np.asarray(xs, dtype=float)
    # Written so that NaN, which min and max propagate, fails the test.
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    knots = partition.knots
    spans = np.searchsorted(knots, xs, side="right") - 1
    last = len(knots) - partition.order - 1
    spans[xs == 1.0] = last
    return spans


def _span_basis(knots, k, spans, u):
    """The k order-k B-splines nonzero on span s of ``knots``, at offset u >= 0 from tau_s.

    Returns values of shape (len(u), k): N_{s-k+1}..N_s (0-based) on each span.
    Span s reads only knots s-k+2..s+k-1.  Cox-de Boor reads them only
    through their differences from tau_s, exact for knots within a factor 2
    of each other (Sterbenz), so narrow spans lose no digits and no point is
    rounded onto a neighbouring span.
    """
    npts = len(u)
    tau = knots[spans]
    vals = np.zeros((npts, k))
    vals[:, 0] = 1.0
    left = np.empty((npts, k))
    right = np.empty((npts, k))
    for j in range(1, k):
        left[:, j] = u + (tau - knots[spans + 1 - j])
        right[:, j] = (knots[spans + j] - tau) - u
        saved = np.zeros(npts)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved
    return vals


def eval_basis_many(partition, xs):
    """Evaluate the k potentially nonzero B-splines at each point.

    Returns ``(first, values)`` where ``first`` holds the 1-based index of the
    first evaluated basis function per point and ``values`` has shape
    (len(xs), k) with N_first..N_{first+k-1} at that point.  Each point is
    found on its span s and evaluated at x - tau_s.
    """
    xs = np.asarray(xs, dtype=float)
    spans = find_spans(partition, xs)
    return span_values(partition, spans, xs - partition.knots[spans])


def span_values(partition, spans, u):
    """``eval_basis_many`` output for points given as span index s and offset u from tau_s."""
    k = partition.order
    return spans - k + 2, _span_basis(partition.knots, k, spans, u)


def window_basis(windows, k, rows, spans, u):
    """Basis values, (len(u), k), of points on spans of a stack of knot windows.

    Point i lies on span spans[i] of window rows[i], at offset u[i] from its
    left knot; each window is a run of one level's knots.  The values are
    those ``span_values`` gives on the level's own knot vector, bit for bit,
    when the window holds the knots the span reads.
    """
    return _span_basis(windows.ravel(), k, rows * windows.shape[1] + spans, u)


def eval_blocks(partition, xs):
    """Yield (lo, first, vals), ``eval_basis_many`` on blocks of EVAL_BLOCK points from index lo on."""
    for lo in range(0, len(xs), EVAL_BLOCK):
        yield (lo, *eval_basis_many(partition, xs[lo : lo + EVAL_BLOCK]))


def row_tiles(rows, points):
    """Slices of range(rows), each of at most TILE // points rows and at least one row."""
    step = max(1, TILE // max(1, points))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def rule_blocks(partition, rule):
    """Yield (lo, start, vals) for the nodes of a rule over the partition's own knots, span-major.

    A block holds spans lo..lo + S - 1 of the rule, as many whole spans as
    fit in EVAL_BLOCK nodes but at least two, and a last span left alone
    joins the block before it.  Every node of a span reads the same k
    coefficients, the (S,) ``start`` holding each span's first (0-based),
    and ``vals``, (k, q, S), holds basis function start + j at node i of
    span s at vals[j, i, s], so each (j, i) is a contiguous run over the
    spans.  Each node is evaluated on its span from its offset, with no
    span search.

    With two spans or more, a block's q axis is never the fast one, so a
    sum over it adds node after node: numpy sums along the fast axis
    pairwise, which from q = 8 on is another order.
    """
    q, k = rule.q, partition.order
    step = max(2, EVAL_BLOCK // q)
    ends = list(range(step, len(rule.spans) - 1, step)) + [len(rule.spans)]
    for lo, hi in zip([0] + ends, ends):
        spans = rule.spans[lo:hi]
        vals = _span_basis(partition.knots, k, np.tile(spans, q), rule.offsets[lo:hi].T.ravel())
        yield lo, spans - k + 1, np.ascontiguousarray(vals.T).reshape(k, q, len(spans))


def node_values(coeffs, start, vals):
    """Values, coeffs.shape[:-1] + (q, S), at the nodes of one ``rule_blocks`` block.

    Each span's k coefficients are gathered once for its q nodes, and the k
    terms are summed in the order of ``spline_values``, so every value
    keeps the bits that ``spline_values`` gives it.
    """
    out = np.take(coeffs, start, axis=-1)[..., None, :] * vals[0]
    term = np.empty_like(out)
    for j in range(1, len(vals)):
        np.multiply(np.take(coeffs, start + j, axis=-1)[..., None, :], vals[j], out=term)
        out += term
    return out


def spline_values(coeffs, first, vals):
    """Values, shape coeffs.shape[:-1] + (points,), at the points of ``eval_basis_many`` output.

    Leading axes of ``coeffs`` (rows of the system matrix, trials) are carried.  Each
    point reads the k coefficients its span touches, and the k terms are summed in place.
    """
    start = first - 1
    out = np.take(coeffs, start, axis=-1) * vals[:, 0]
    for j in range(1, vals.shape[1]):
        term = np.take(coeffs, start + j, axis=-1)
        term *= vals[:, j]
        out += term
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Per-knot-interval Gauss-Legendre nodes, exact through degree 2q - 1.

    Each node is kept on its span: ``spans`` indexes spans of the knot array,
    and ``offsets`` holds each node's distance half (1 + x_ref) from its
    span's left end.
    """

    q: int
    spans: np.ndarray  # (S,) indices of nonzero-width spans in the knot array
    offsets: np.ndarray  # (S, q)
    weights: np.ndarray  # (S, q)

    @classmethod
    def over_spans(cls, knots, q, spans=None):
        """The rule on the given nonzero-width spans of a knot array, by default on all of them."""
        if q < 1:
            raise QuadratureTooCoarse(f"need at least one node, got q={q}")
        live = np.flatnonzero(np.diff(knots) > 0) if spans is None else spans
        a, b = knots[live], knots[live + 1]
        ref_x, ref_w = _gauss_legendre(q)
        half = 0.5 * (b - a)
        return cls(
            q=q,
            spans=live,
            offsets=half[:, None] * (1.0 + ref_x),
            weights=half[:, None] * ref_w,
        )


class GramSystem:
    """Banded Gram matrix a_ij = <N_i, N_j> with its Cholesky factorization.

    The band has width k - 1 (supports of N_i and N_j are disjoint once
    |i - j| >= k).  ``factor`` is its upper Cholesky factor in LAPACK band
    storage (``cholesky``).  The inverse B = A^{-1} is dense; it is read
    from the factor one diagonal at a time (``inverse_diagonals``), up to
    where the rest of it is exactly zero, and never held whole.  Its band,
    read from the factor alone (``inverse_band``), is kept.
    """

    def __init__(self, partition, band, factor):
        self.partition = partition
        self.band = band
        self.factor = factor

    @property
    def M(self):
        return self.partition.M

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

    def inverse_diagonals(self):
        """Yield (d, b_d), b_d[j] = b_{j+d, j}, the diagonals of B = A^{-1} from d = 0 on.

        B is symmetric, so these lower diagonals are all of it.  Diagonals
        0..kd, kd = k - 1, are ``inverse_band``.  Past the band, the
        recurrence of Takahashi, Fagan and Chin (1973) on the Cholesky
        factor A = U^T U, b_ij = -(sum_{l=kd..1} u_{j,j+l} b_{i,j+l}) / u_jj
        for i > j, reads at i = j + d only diagonals d - kd..d - 1, so each
        diagonal is one array step from the kd before it:

            b_d[j] = (b_{d-kd}[j+kd] (-u_kd[j]) - ... - b_{d-1}[j+1] u_1[j]) / u_0[j],

        u_l[j] = u_{j,j+l}.  Each entry takes the multiplies and subtracts
        of the column-by-column recurrence in its order, l = kd..1, with no
        dot product, so its bits depend on its own operands alone.

        The walk stops after kd consecutive diagonals that are all +-0, and
        every diagonal it does not yield is exactly zero, for a finite
        factor with a positive diagonal as ``cholesky`` returns it.  Proof:
        let b_{d-kd}..b_{d-1} be all +-0, with d > kd.  Each product of a
        +-0 with a finite u_l is +-0, a difference of +-0 is +-0, and
        +-0 / u_0 is +-0 for u_0 > 0: b_d is all +-0, and so, by induction
        on d, is every later diagonal.  At k = 1 the sum is empty and B is diagonal, so the walk
        stops after b_0.  At k = 4 on 4,096 uniform random knots it stops
        near offset 1,160 of M = 4,099, where the entries have underflowed.

        Each b_d is a new array, but the reader keeps it, to form the kd
        diagonals after it, so it must not be written to.
        """
        kd, M = self.partition.order - 1, self.M
        band = self.inverse_band
        yield from enumerate(band)
        # u[l] = u_l, contiguous: LAPACK leaves the factor in Fortran order.
        u = [np.ascontiguousarray(self.factor[kd - l, l:]) for l in range(kd + 1)]
        neg = -u[kd]
        recent = list(band[1:])
        zeros = 0  # the run of all-zero diagonals that ends at the last one
        for b in recent:
            zeros = 0 if b.any() else zeros + 1
        tmp = np.empty(M)
        for d in range(kd + 1, M):
            if zeros >= kd:
                return
            n = M - d
            b = recent[0][kd : kd + n] * neg[:n]
            part = tmp[:n]
            for l in range(kd - 1, 0, -1):
                np.multiply(recent[kd - l][l : l + n], u[l][:n], out=part)
                np.subtract(b, part, out=b)
            np.divide(b, u[0][:n], out=b)
            yield d, b
            recent = recent[1:] + [b]
            # b[0] settles most diagonals without a pass over them.
            zeros = zeros + 1 if b[0] == 0.0 and not b.any() else 0

    @functools.cached_property
    def inverse_band(self):
        """(b_0, ..., b_kd), the diagonals of B = A^{-1} within the band, read-only and kept.

        Selected inversion: the recurrence of ``inverse_diagonals``, column
        j from the last to the first, on the entries |i - j| <= kd alone,
        which read only entries in the band, as a scalar loop in O(M k^2).
        Column j's entries below its diagonal are

            b_{j+d, j} = -(sum_{l=lmax..1} u_{j,j+l} b_{j+d, j+l}) / u_jj,  d = 1..lmax,
            b_jj = (1/u_jj - sum_{l=lmax..1} u_{j,j+l} b_{j+l, j}) / u_jj,

        lmax = min(kd, M - 1 - j), summed in that order, and each
        b_{j+d, j+l} with l > d read as b_{j+l, j+d}.
        """
        kd, M = self.partition.order - 1, self.M
        u = [self.factor[kd - l, l:].tolist() for l in range(kd + 1)]
        b = [[0.0] * (M - d) for d in range(kd + 1)]
        for j in range(M - 1, -1, -1):
            if j >= M - 1 - kd:
                # lmax = M - 1 - j until it reaches kd.  Per d, each term
                # l = lmax..1 as (diagonal, offset from j, u_l).
                lmax = M - 1 - j
                terms = [
                    [(b[d - l], l, u[l]) if l <= d else (b[l - d], d, u[l]) for l in range(lmax, 0, -1)]
                    for d in range(1, lmax + 1)
                ]
                plans = [(b[d], t[0], t[1:]) for d, t in enumerate(terms, start=1)]
                diagonal_terms = [(b[l], u[l]) for l in range(lmax, 0, -1)]
            u_jj = u[0][j]
            for b_d, (src, at, u_l), rest in plans:
                x = src[j + at] * -u_l[j]
                for src, at, u_l in rest:
                    x -= src[j + at] * u_l[j]
                b_d[j] = x / u_jj
            diag = 1.0 / u_jj
            for b_l, u_l in diagonal_terms:
                diag -= u_l[j] * b_l[j]
            b[0][j] = diag / u_jj
        out = tuple(np.array(diagonal) for diagonal in b)
        for diagonal in out:
            diagonal.setflags(write=False)
        return out

    @property
    def inverse_diagonal(self):
        """b_ii for every i, ``inverse_band[0]``."""
        return self.inverse_band[0]


def _band_columns(knots, k, spans, cols, width):
    """Upper Gram band (k, width) of the order-k B-splines on the given spans of a knot array.

    Each span s carries N_{s-k+1}..N_s; its k x k block of <N_a, N_b> comes
    from k Gauss nodes placed by offset on the span, and entry (a, b) is
    added to row k-1-(b-a) of column cols + b, cols holding one column per
    span.  Blocks are added in (a, b) loop order, then in span order, and
    einsum reduces each block on its own, so every column carries the same
    bits however many spans are assembled at once.
    """
    rule = QuadratureRule.over_spans(knots, k, spans)
    vals = _span_basis(knots, k, np.repeat(spans, k), rule.offsets.ravel()).reshape(-1, k, k)
    blocks = np.einsum("sqa,sqb,sq->sab", vals, vals, rule.weights)
    band = np.zeros((k, width))
    for a in range(k):
        for b in range(a, k):
            np.add.at(band[k - 1 - b + a], cols + b, blocks[:, a, b])
    return band


def cholesky(band, level, lo=0):
    """Upper Cholesky factor, in LAPACK band storage, of a run of a level's Gram band from column lo on.

    The run is sliced from the band as it is: its first k - 1 columns hold,
    above its first row, entries of rows before lo, which LAPACK never
    reads, so the run is the band of its principal submatrix.  Raises
    NotPositiveDefinite naming the level and the first leading minor of
    the run that is not positive, by its index in the level (info + lo).
    """
    factor, info = dpbtrf(band)
    if info:
        raise NotPositiveDefinite(f"level {level}: {info + lo}-th leading minor not positive definite")
    return factor


def window_solve(band, lo, rhs, level):
    """x with A_W x = rhs, A_W the Gram matrix on the run W of columns lo..lo + len(rhs) - 1 of a level's band.

    LAPACK's factor (``cholesky``) and solve of the run alone; a run of all
    columns is the whole band.
    """
    return dpbtrs(cholesky(band[:, lo : lo + len(rhs)], level, lo), rhs)[0]


def gram_matrix(partition):
    """Assemble the banded Gram matrix of the partition's B-spline basis.

    The rule uses q = k nodes per interval, which integrates the
    degree-(2k - 2) products exactly.  A band entry that is inf or NaN,
    as knots a few subnormal ulps apart give, raises NotPositiveDefinite
    naming the level.
    """
    k = partition.order
    spans = np.flatnonzero(np.diff(partition.knots) > 0)
    band = _band_columns(partition.knots, k, spans, spans - k + 1, partition.M)
    if not np.isfinite(band).all():
        raise NotPositiveDefinite(f"level {partition.level}: array must not contain infs or NaNs")
    return GramSystem(partition, band, cholesky(band, partition.level))


def refinement_columns(windows, k, ncols):
    """The Gram band columns a one-knot refinement changes, for a stack of refinements at once.

    Row b of ``windows`` holds knots p-2k+1..p+3k-2 (0-based) of a level
    whose new knot sits at position p.  The fine B-splines whose knots
    include it are N_{p-k}..N_p, so only band columns p-k..p-k+ncols[b]-1,
    ncols[b] = min(M, p+k) - p + k, hold one.  They draw on spans
    p-k..p+ncols[b]-2, whose Cox-de Boor values read only the window.  Every
    span of the stack goes through one ``_band_columns`` call, laid out so
    that each level's columns sit in a row of their own.  Returns
    (columns, finite): columns[b], (ncols[b], k), holds band column
    p-k+c in its row c, bit-equal to the same column of a full
    ``gram_matrix`` of that level, and finite[b] is False when one of its
    entries is inf or NaN.
    """
    B, W = windows.shape
    # A span contributes to k consecutive columns, k - 1 of them possibly
    # left of the level's first: each row has room for them on both sides.
    R = 4 * k - 2
    sigma = np.arange(k - 1, 4 * k - 2)  # window slots of spans p-k..p+2k-2
    use = (sigma <= ncols[:, None] + 2 * k - 3) & (windows[:, sigma + 1] > windows[:, sigma])
    level, slot = np.nonzero(use)
    spans = sigma[slot]
    band = _band_columns(windows.ravel(), k, level * W + spans, level * R + spans - k + 1, B * R)
    rows = np.ascontiguousarray(band.reshape(k, B, R).transpose(1, 2, 0))
    columns = [rows[b, k - 1 : k - 1 + n] for b, n in enumerate(ncols.tolist())]
    slot = np.arange(R) - (k - 1)
    bad = ~np.isfinite(rows).all(axis=2) & (slot >= 0) & (slot < ncols[:, None])
    return columns, (~bad.any(axis=1)).tolist()


def boehm_weights(t):
    """Refinement weights (w1, w2), each (..., k), of stacked knot windows t of width 2k + 1.

    A window holds tau_{i0-k}..tau_{i0+k} (1-based) of the fine partition
    around a new knot tau_{i0} in its middle; leading axes stack
    insertions.  The coarse partition is the fine one without tau_{i0}, so
    the fine knots alone fix the weights: coarse B-splines i0-k..i0-1
    (1-based) become w1 N_i + w2 N_{i+1} over the fine basis, those before
    are unchanged and those after shift by one.
    """
    k = t.shape[-1] // 2
    x = t[..., k : k + 1]
    w1 = (x - t[..., :k]) / (t[..., k : 2 * k] - t[..., :k])
    w2 = (t[..., k + 1 :] - x) / (t[..., k + 1 :] - t[..., 1 : k + 1])
    return w1, w2


def split_columns(block, w1, w2):
    """Map the k coarse columns a knot splits onto the k + 1 fine columns.

    Column j of ``block`` goes to fine columns j and j + 1 with weights
    w1[j] and w2[j]; leading axes are carried along.
    """
    out = np.zeros(block.shape[:-1] + (block.shape[-1] + 1,))
    out[..., :-1] += block * w1
    out[..., 1:] += block * w2
    return out

