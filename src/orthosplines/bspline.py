"""B-spline basis evaluation, Gram assembly and one-knot refinement.

The basis is the L^inf-normalized one: the order-k B-splines N_1..N_M of a
partition form a partition of unity.  Evaluation is right-continuous at
interior knots and takes the left limit at x = 1, so the identity
sum_j N_j(x) = 1 holds on the closed interval.  Splines are evaluated only
from the k basis values at each point (``eval_basis_many``, ``spline_values``).

Every basis value comes from one Cox-de Boor kernel on a span index s and an
offset u = x - tau_s, which reads the knots only through differences from
tau_s.  ``eval_basis_many`` finds the span of an absolute point; quadrature
rules place their Gauss nodes by offset on their own spans and never search
for one, so spans a few ulps wide lose no digits.

The banded Cholesky factor and solve are LAPACK's ``dpbtrf`` and ``dpbtrs``,
taken from scipy's compiled LAPACK extension ``scipy/linalg/_flapack``, the
object ``scipy.linalg.lapack`` re-exports.  It is loaded by file, without
the ``scipy.linalg`` package, whose import costs about 0.3 s per process.
``dpbtrs`` serves ``GramSystem.solve`` only: the Gram inverse is read from
the factor by a recurrence, with no solve.
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

# Columns of the Gram inverse per block of ``GramSystem.inverse_columns``.
_INVERSE_BLOCK = 256
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
    """Yield (lo, first, vals) for the nodes of a rule over the partition's own knots.

    Each node is evaluated on its span from its offset, with no span search;
    a block holds as many whole spans of nodes as fit in EVAL_BLOCK, at
    least one, and lo indexes the flattened nodes.
    """
    q = rule.q
    step = max(1, EVAL_BLOCK // q)
    for s in range(0, len(rule.spans), step):
        spans = np.repeat(rule.spans[s : s + step], q)
        yield (s * q, *span_values(partition, spans, rule.offsets[s : s + step].ravel()))


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
    |i - j| >= k).  The inverse B = A^{-1} is dense; it is read from the
    factor a block of columns at a time and never held whole, and its
    diagonal, read from the band of B alone, is kept.
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

    def solve(self, rhs):
        """A x = rhs through the banded Cholesky factor."""
        return dpbtrs(self.factor, rhs)[0]

    def inverse_columns(self):
        """Yield (start, rows), rows[c, d] = b_{j+d, j} at j = start + c, block by block right to left.

        Row c is column j of B = A^{-1} from its diagonal entry down, as one
        contiguous row of M - start entries, zeros past the column's end; a
        block holds w <= 256 columns, so at most 256 x M entries of B exist
        at a time.  B is symmetric, so these lower parts are all of it.  The
        rows are a view of one buffer that the next block overwrites.

        The entries come from the recurrence on the Cholesky factor A = U^T U
        of Takahashi, Fagan and Chin (1973), column by column from the last:
        U B = U^{-T} is lower triangular with diagonal 1/u_jj, so with
        kd = k - 1

            b_ij = -(sum_{l=kd..1} u_{j,j+l} b_{i,j+l}) / u_jj,  i > j,
            b_jj = (1/u_jj - sum_{l=kd..1} u_{j,j+l} b_{j+l,j}) / u_jj.

        Each block carries the kd columns right of it from the block before.
        """
        kd, M = self.partition.order - 1, self.M
        upper = _upper_diagonals(self.factor)
        buf = np.zeros((_INVERSE_BLOCK + kd, M + kd))
        for start in reversed(range(0, M, _INVERSE_BLOCK)):
            width = min(_INVERSE_BLOCK, M - start)
            _inverse_sweep(upper, buf[: width + kd], start)
            yield start, buf[:width, kd : kd + M - start]
            buf[_INVERSE_BLOCK:] = buf[:kd]

    @functools.cached_property
    def inverse_diagonal(self):
        """b_ii for every i, kept: the recurrence of ``inverse_columns`` on the band |i - j| <= kd alone.

        Each entry in the band reads only entries in the band, so this
        selected inversion costs O(M k^2) and gives the diagonal of
        ``inverse_columns`` bit for bit.
        """
        kd = self.partition.order - 1
        rows = np.zeros((self.M + kd, 2 * kd + 1))
        _inverse_sweep(_upper_diagonals(self.factor), rows, 0)
        return rows[: self.M, kd].copy()


def _upper_diagonals(factor):
    """Lists u[l][j] = u_{j, j+l}, l = 0..kd, of the upper Cholesky factor in LAPACK band storage."""
    kd = factor.shape[0] - 1
    return [factor[kd - l, l:].tolist() for l in range(kd + 1)]


def _inverse_sweep(upper, rows, first):
    """Fill rows[r] with column j = first + r of the Gram inverse, for r from the last down to 0.

    ``upper`` comes from ``_upper_diagonals``.  Row r holds b_{j+d, j} at
    position kd + d, for 0 <= d <= min(n, M - 1 - j), n = rows.shape[1] - kd - 1;
    positions kd - m, m = 1..kd - 1, hold b_{j-m, j} = b_{j, j-m}, copied
    from row r - m once that column is done.  The last kd rows are the
    columns right of the block, done before (or past M, and never read).

    Each entry is formed by elementwise multiplies and subtracts in the
    order l = kd..1, never by a dot product, so its bits depend on its own
    operands alone and not on how many entries a row holds.
    """
    kd = len(upper) - 1
    M = len(upper[0])
    R, S = rows.shape
    n = S - kd - 1
    # Flat index of row r + l, position p - l is that of row r, position p plus l * step.
    flat = rows.reshape(-1)
    step = S - 1
    tmp = np.empty(n)
    for r in range(R - kd - 1, -1, -1):
        j = first + r
        m = min(n, M - 1 - j)
        lmax = min(kd, m)
        u_jj = upper[0][j]
        diag = 1.0 / u_jj
        at = r * S + kd
        if lmax:
            below = flat[at + 1 : at + 1 + m]
            part = tmp[:m]
            src = at + 1 + lmax * step
            np.multiply(flat[src : src + m], -upper[lmax][j], out=below)
            for l in range(lmax - 1, 0, -1):
                src = at + 1 + l * step
                np.multiply(flat[src : src + m], upper[l][j], out=part)
                np.subtract(below, part, out=below)
            np.divide(below, u_jj, out=below)
            head = below[:lmax].tolist()
            for l in range(lmax, 0, -1):
                diag -= upper[l][j] * head[l - 1]
            # b_{j+l, j} to position kd - l of row r + l, l < kd, for the columns left of j.
            flat[at + step : at + min(lmax, kd - 1) * step + 1 : step] = below[: kd - 1]
        flat[at] = diag / u_jj


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


def _factored(partition, band, fresh):
    """The Gram system of ``band``, whose columns outside ``fresh`` were checked before.

    Raises NotPositiveDefinite naming the level when a fresh entry is inf or
    NaN (knots a few subnormal ulps apart) or a leading minor is not positive.
    """
    if not np.isfinite(fresh).all():
        raise NotPositiveDefinite(f"level {partition.level}: array must not contain infs or NaNs")
    factor, info = dpbtrf(band)
    if info:
        raise NotPositiveDefinite(f"level {partition.level}: {info}-th leading minor not positive definite")
    return GramSystem(partition, band, factor)


def gram_matrix(partition):
    """Assemble the banded Gram matrix of the partition's B-spline basis.

    The rule uses q = k nodes per interval, which integrates the
    degree-(2k - 2) products exactly.
    """
    k = partition.order
    spans = np.flatnonzero(np.diff(partition.knots) > 0)
    band = _band_columns(partition.knots, k, spans, spans - k + 1, partition.M)
    return _factored(partition, band, band)


def refinement_columns(windows, k, ncols):
    """The Gram band columns a one-knot refinement changes, for a stack of refinements at once.

    Row b of ``windows`` holds knots p-2k+1..p+3k-2 (0-based) of a level
    whose new knot sits at position p.  The fine B-splines whose knots
    include it are N_{p-k}..N_p, so only band columns p-k..p-k+ncols[b]-1,
    ncols[b] = min(M, p+k) - p + k, hold one.  They draw on spans
    p-k..p+ncols[b]-2, whose Cox-de Boor values read only the window.  Every
    span of the stack goes through one ``_band_columns`` call, laid out so
    that each level's columns sit in a row of their own; returns one
    (k, ncols[b]) array per level, bit-equal to the same columns of a full
    ``gram_matrix`` of that level.
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
    band = band.reshape(k, B, R)
    return [band[:, b, k - 1 : k - 1 + n] for b, n in enumerate(ncols.tolist())]


def refine_gram(G, fine, i0, fresh):
    """The Gram system of a one-knot refinement, from the coarse one and the changed columns.

    ``fine`` is G's partition with tau_{i0} (1-based) inserted at 0-based
    position p = i0 - 1, and ``fresh`` holds its band columns p-k.. from
    ``refinement_columns``.  Every other column is the coarse one, shifted
    by one past the knot, so the band equals the one ``gram_matrix(fine)``
    assembles, bit for bit; it is factored again.  Only the fresh columns
    are checked for inf and NaN: the others were checked at their own level.
    """
    k = fine.order
    p = i0 - 1
    band = np.empty((k, fine.M))
    band[:, :p] = G.band[:, :p]
    band[:, p + 1 :] = G.band[:, p:]
    band[:, p - k : p - k + fresh.shape[1]] = fresh
    return _factored(fine, band, fresh)


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

