"""Construction of the orthonormal spline system.

For each level n >= 2 the function f_n spans the one-dimensional orthogonal
complement of the previous spline space inside the current one.  Its B-spline
coefficients come from the alpha products of the inserted knot and one banded
solve against the Gram matrix.  Levels n <= 1 are the initial block of
orthonormal polynomials.

The walk has two passes, split where the paper splits them.  The knot pass
(``knot_blocks``) gives each level's alpha, its characteristic interval and
its knot window from the knots alone; the Gram pass (``levels``) adds the
Gram system and f_n.  f_n is exponentially localized around its new knot,
as the Gram inverse is (Demko, Moss and Smith, Math. Comp. 1984), so the
Gram pass solves each level on a window of B-splines around the new knot
(``window_function``), accepted by the window's normwise backward error
(``backward_error``), and writes exact zeros outside it; a level costs
O(h k^2 + M k) for a window of half-width h, not O(M k^2).  Both passes
work in place on one knot buffer and one Gram band buffer for the whole
walk: a level moves their tails up by one place, and its O(M k) is that
move alone.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss

from . import charint
from .bspline import (
    GramSystem,
    boehm_weights,
    cholesky,
    eval_basis_many,
    refinement_columns,
    row_tiles,
    window_solve,
)
from .errors import NotPositiveDefinite
from .knots import Partition, boundary_partition, check_level

# Levels whose knot data (knot windows, alpha, J) and fresh Gram columns are
# made in one set of array passes, with temporaries of
# O(LEVEL_BLOCK (k^3 + LEVEL_BLOCK)) floats.
LEVEL_BLOCK = 64
# A level's first window reaches FIRST_WINDOW * k B-splines to either side of
# its new knot; ``window_function`` doubles it until the window is certified.
FIRST_WINDOW = 16
# The unit roundoff 2^-53 of float64: the backward error a window may add.
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class KnotBlock:
    """The knot data of consecutive levels first, first + 1, ..., one row per level.

    ``i0`` holds the 1-based index of each level's new knot, at 0-based
    position p = i0 - 1; ``windows`` the level's knots p-2k+1..p+3k-2,
    the boundary knot 0 or 1 repeated past either end; ``alpha`` the k + 1
    insertion coefficients for j = i0-k..i0; ``J`` the characteristic
    interval, J = (c, d) the longest knot span of the selected support
    (``charint.characteristic_intervals``).  Level n has M = n + k - 1
    B-splines.
    """

    first: int
    i0: np.ndarray
    windows: np.ndarray
    alpha: np.ndarray
    J: np.ndarray


def alpha_coefficients(w1, w2):
    """Insertion coefficients alpha_j, j = i0-k..i0, from the refinement weights of the new knot.

    (w1, w2) are the weights of ``boehm_weights``, (..., k) each; leading axes
    stack insertions.  The entry for j = i0-k+m is (-1)^m times the product
    of w1[1:m] and w2[m:k-1], taken in that order.  The first entry is
    positive, signs alternate strictly on the leading nonzero block, and
    entries vanish once the product hits a knot equal to tau_{i0}.
    """
    k = w1.shape[-1]
    alpha = np.empty(w1.shape[:-1] + (k + 1,))
    for m in range(k + 1):
        prod = np.ones(w1.shape[:-1])
        for w in [w1[..., i] for i in range(1, m)] + [w2[..., i] for i in range(m, k - 1)]:
            prod = prod * w
        alpha[..., m] = (-1.0) ** m * prod
    return alpha


def initial_block(order):
    """Orthonormal polynomials on [0, 1] of degrees 0..k - 1, as a tuple.

    Shifted Legendre polynomials scaled to unit L2 norm; leading coefficients
    are positive.  The degree-d entry carries the system level d - k + 2, so
    the block fills levels -k + 2 through 1.
    """
    return tuple(
        Legendre.basis(d, domain=[0.0, 1.0]) * math.sqrt(2 * d + 1) for d in range(order)
    )


class OrthoSystem:
    """The assembled system: initial polynomials plus f_2..f_N on one sequence.

    ``polynomials`` holds the k polynomials of ``initial_block``,
    ``blocks`` the walk's ``KnotBlock`` records in level order, and
    ``coeffs[n - 2]`` the coefficients of f_n over the level-n basis, exact
    zeros outside its window.
    ``matrix`` holds every system function expressed over the level-N
    B-spline basis (rows ordered by level, the polynomials first, so level n
    is row n + k - 2): Gram identities are single products with it, and
    ``bspline.spline_values`` evaluates its rows; it is formed on first use.
    ``columns`` holds each row's first and last column that is not zero,
    so a reader evaluates a row only where its coefficients are not all
    zero.  ``gram`` is the level-N Gram system; its partition is the finest
    one, and ``positions`` places each t_n in it, which fixes every level's
    knots.
    """

    def __init__(self, seq, N, polynomials, blocks, coeffs, gram):
        self.seq = seq
        self.N = N
        self.polynomials = polynomials
        self.blocks = blocks
        self.coeffs = coeffs
        self.gram = gram

    @functools.cached_property
    def matrix(self):
        """Every system function over the level-N basis, shape (size, size).

        One sweep over the levels prolongs the earlier functions through each
        single-knot refinement, as ``split_columns`` maps coarse columns to
        fine ones (Boehm weights of a block of levels from one
        ``boehm_weights`` call), then adds the level's own function.  Each
        level-N B-spline is labelled from the start by the level-N position
        of its first knot; labels never move, so an insertion rewrites only
        the k + 1 labels around it.  The sweep fills the array label-major,
        one row per B-spline, so an insertion reads and writes k + 1
        contiguous rows; one blocked transpose in place then leaves a
        C-contiguous array of one row per function, with no second M x M
        copy.
        """
        k, M = self.order, self.size
        labels = np.arange(k)
        F = np.zeros((M, M))
        F[:k, :k] = polynomial_coeffs_over(boundary_partition(k), self.polynomials).T
        for block in self.blocks:
            W1, W2 = boehm_weights(block.windows[:, k - 1 : 3 * k])  # tau_{i0-k}..tau_{i0+k}
            weights = zip(block.i0.tolist(), W1[:, :, None], W2[:, :, None])
            for n, (i0, w1, w2) in enumerate(weights, start=block.first):
                row, p = n + k - 2, i0 - 1
                labels = np.concatenate((labels[:p], [self.positions[n - 2]], labels[p:]))
                cols = labels[p - k : p + 1]
                old = F[cols[:-1], :row]
                new = np.zeros((k + 1, row))
                new[:-1] += old * w1
                new[1:] += old * w2
                F[cols, :row] = new
                F[labels, row] = self.coeffs[n - 2]
        _transpose_in_place(F)
        return F

    @functools.cached_property
    def columns(self):
        """(size, 2) array: the first and last column of each ``matrix`` row that is not zero.

        f_n is exactly 0 outside the window its level was solved on
        (``levels``), and the Boehm weights that prolong it to level N are
        finite, so its row is zero outside about that window carried
        through the later insertions.  A NaN counts as not zero, and a row
        of zeros alone gets the empty range (size, -1).  Read from the rows
        a tile at a time (``bspline.row_tiles``), so no size x size boolean
        is made.
        """
        F = self.matrix
        M = len(F)
        out = np.empty((M, 2), dtype=np.intp)
        for tile in row_tiles(M, M):
            live = F[tile] != 0.0
            some = live.any(axis=1)
            out[tile, 0] = np.where(some, live.argmax(axis=1), M)
            out[tile, 1] = np.where(some, M - 1 - live[:, ::-1].argmax(axis=1), -1)
        return out

    @functools.cached_property
    def positions(self):
        """0-based position of each t_n, n = 2..N, in the level-N knot vector, as an array.

        k plus the rank of t_n among t_2..t_N, ties in insertion order, as
        the walk places equal knots (``knot_block``).
        """
        rank = np.empty(self.N - 1, dtype=np.intp)
        rank[np.argsort(self.seq.points[2 : self.N + 1], kind="stable")] = np.arange(self.N - 1)
        return self.order + rank

    @property
    def order(self):
        return self.seq.order

    @property
    def size(self):
        """Number of system functions, equal to the finest-level M."""
        return self.gram.M


def _transpose_in_place(F):
    """Transpose a square array in place, swapping 64 x 64 tiles across the diagonal."""
    tile = 64
    M = len(F)
    for i in range(0, M, tile):
        I = slice(i, i + tile)
        F[I, I] = F[I, I].T.copy()
        for j in range(i + tile, M, tile):
            J = slice(j, j + tile)
            upper = F[I, J].copy()
            F[I, J] = F[J, I].T
            F[J, I] = upper.T


def export_record(knots, band, block, b, coeffs, norm2):
    """The serializable record of one constructed level n >= 2, from one tuple of ``levels``.

    Made while the tuple is current: ``knots`` is a view of the walk's buffer.
    """
    digest = hashlib.sha256(knots)
    return {
        "level": block.first + b,
        "i0": int(block.i0[b]),
        "knots-hash": digest.hexdigest(),
        "coeffs": coeffs,
        "J": block.J[b].tolist(),
        "norm2": norm2,
    }


def polynomial_coeffs_over(partition, polys):
    """Coefficients of polynomials over a partition's B-spline basis.

    Exact for polynomials of order <= k: interpolation at k Gauss points.
    The boundary partition has one span, so every point's first index is 1
    and the k basis values per point are the rows of the square design.
    """
    ref_x, _ = leggauss(partition.order)
    pts = 0.5 + 0.5 * ref_x
    _, design = eval_basis_many(partition, pts)
    vals = np.vstack([[p(x) for x in pts] for p in polys])
    return np.linalg.solve(design, vals.T).T


def knot_blocks(seq, N):
    """Yield (inserts, KnotBlock) for levels 2..N, LEVEL_BLOCK levels at a time.

    The knot pass, on one knot buffer of N + 2k - 1 floats for the whole
    walk.  A block's KnotBlock comes from the knots of the level before it,
    which it reads but does not change (``knot_block``).  ``inserts`` then
    walks the block's levels: each step shifts the buffer's tail past the
    new knot by one place, writes the knot, and yields the level's knot
    vector tau_1..tau_{n+2k-1}, a read-only view of the buffer that the next
    step overwrites.  What a consumer leaves of ``inserts`` runs when the
    pass resumes, so the next block starts from the right knots.  An N the
    sequence cannot reach fails before the first level.
    """
    check_level(seq, N)
    k = seq.order
    points = np.asarray(seq.points)
    buffer = _buffer(N + 2 * k - 1)
    buffer[:k] = 0.0
    buffer[k : 2 * k] = 1.0
    size = 2 * k
    for first in range(2, N + 1, LEVEL_BLOCK):
        t = points[first : min(first + LEVEL_BLOCK, N + 1)]
        block = knot_block(buffer[:size], t, first, k)
        inserts = _insert_knots(buffer, size, t, block.i0 - 1)
        yield inserts, block
        for _ in inserts:
            pass
        size += len(block.i0)


def knot_block(knots, t, first, k):
    """The KnotBlock of levels first, first + 1, ... from the level first - 1 knots and the block's points t.

    Point t[j] is the new knot of level first + j.  It goes in after the
    knots of the level before it that are <= t[j]: those of ``knots``, the
    ``np.searchsorted`` position of every point at once, and the earlier
    points of the block.  Its window holds that level's knots
    p-2k+1..p+3k-2 around its 0-based position p, the boundary knot
    repeated past either end: alpha (``boehm_weights``) and J_n
    (``charint.characteristic_intervals``) read p-k..p+k, and the Gram
    pass's fresh columns read p-k..p+2k-1 for their span ends and
    p-2k+2..p+3k-3 in Cox-de Boor; one more on each side holds p-1..p+1
    at k = 1 too.  Those knots are values of ``knots`` within 3k places of
    t[j]'s position there (the boundary knot past either end) or points
    t[0..j], so a row of both, sorted, holds the window around t[j]; the
    block's later points sort after them as +inf.  So every window holds
    its level's knots, bit for bit, with no level's knot vector formed,
    and ``knots`` is read, not changed.
    """
    B = len(t)
    pos = np.searchsorted(knots, t, side="right")
    before = np.count_nonzero(np.tril(t <= t[:, None], -1), axis=1)
    near = knots.take(pos[:, None] + np.arange(-3 * k, 3 * k), mode="clip")
    merged = np.sort(np.hstack((near, np.where(np.tri(B, dtype=bool), t, np.inf))), axis=1)
    at = 3 * k + before  # t[j]'s place in row j of merged
    windows = np.take_along_axis(merged, at[:, None] + np.arange(1 - 2 * k, 3 * k - 1), axis=1)
    i0 = pos + before + 1
    near = windows[:, k - 1 : 3 * k]  # tau_{i0-k}..tau_{i0+k}
    alpha = alpha_coefficients(*boehm_weights(near))
    _, J = charint.characteristic_intervals(near, alpha, i0)
    return KnotBlock(first=first, i0=i0, windows=windows, alpha=alpha, J=J)


def _insert_knots(buffer, size, t, p):
    """Insert t[b] at 0-based position p[b] of the knots buffer[:size], b in turn; yield each level's knots.

    The tail moves up one place by one overlapping 1-D assignment, which
    numpy runs from the top down, with no temporary.
    """
    for t_b, p_b in zip(t.tolist(), p.tolist()):
        buffer[p_b + 1 : size + 1] = buffer[p_b:size]
        buffer[p_b] = t_b
        size += 1
        yield _read_only(buffer[:size])


def _read_only(view):
    """The view, which its holder can no longer write through to the walk's buffer."""
    view.flags.writeable = False
    return view


def _buffer(shape):
    """Storage for the walk's buffers, not initialized: the walk writes each entry before it reads it."""
    return np.empty(shape)


def levels(seq, N):
    """Yield (knots, band, block, b, coeffs, norm2) for n = 2..N, one level at a time; return G.

    The Gram pass over ``knot_blocks``: level n is row b of its KnotBlock,
    ``knots`` its knot vector, ``band`` its Gram band (k, M) in LAPACK's
    upper band storage, ``coeffs`` the coefficients of f_n over the level-n
    basis and ``norm2`` the L2 norm of the unnormalized complement function
    g = norm2 f_n.  ``knots`` and ``band`` are read-only views of the
    walk's two buffers, one knot vector and one band of N + k - 1 columns
    for the whole walk, so each is valid only until the walk moves on; a
    consumer that keeps them keeps a copy.  Per block one
    ``refinement_columns`` call assembles the 2k fresh Gram band columns
    around each t_n.  Each level then moves the band's columns past them up
    by one place, in place, pastes its fresh columns, and solves A w = alpha
    on a window around t_n alone (``window_function``): O(h k^2) for a
    window of half-width h.  The band buffer holds column j in its row j,
    so the move is one contiguous run, and the solve reads the level's own
    columns alone, never the stale ones past M - 1.  The coefficients
    outside the window are exactly 0.  The only O(M) work of a level is
    the in-place move of the knots' and the band's tails and the zero fill
    of ``coeffs``; h stays near FIRST_WINDOW k on every input tried, where
    the full band cost O(M k^2).  Only the level-N band is factored whole,
    once, at the end: the walk returns the level-N GramSystem, which holds
    the two buffers themselves and that factor, and a level-N band that is
    not positive definite fails the walk at level N.

    Why the window is safe.  Let p = i0 - 1 be t_n's 0-based position, W
    the window lo..hi - 1 around it, D = diag A, and A~ = D^-1/2 A D^-1/2,
    whose unit diagonal gives ||A~||_2 >= 1.  LAPACK's factor and solve of
    the window's principal submatrix A_W return w with
    (A_W + dA_W) w = alpha_W, and |dA_W| <= c_k u |R_W^T| |R_W| for the
    window's factor R_W (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm. 10.4, with the bandwidth in place of the order).
    Column j of R_W has squared norm a_jj, so by Cauchy-Schwarz
    (|R_W^T| |R_W|)_ij <= (a_ii a_jj)^1/2: the window's scaled error
    ||D^-1/2 dA_W D^-1/2||_2 obeys the same bound as the error of LAPACK's
    solve of the whole band.  Extend w by zeros to x.  Alpha vanishes
    outside W, so (A + dA) x - alpha = r with dA = dA_W in W's rows and
    columns and r = A x off W: r is nonzero only on the k - 1 rows past each
    end of W, and it costs O(k^2) to form.  In the scaled variables
    x~ = D^1/2 x, r~ = D^-1/2 r, alpha~ = D^-1/2 alpha, r~ and x~ have
    disjoint supports, so r~ is orthogonal to x~, and the symmetric
    E~ = -(r~ x~^T + x~ r~^T) / ||x~||^2 gives E~ x~ = -r~, that is,
    (A~ + dA~ + E~) x~ = alpha~.  With unit vectors along r~ and x~ that are
    orthogonal, E~ has eigenvalues +-eta and 0, so ||E~||_2 = eta with

        eta = ||D^-1/2 r||_2 / ||D^1/2 x||_2,

    Rigal and Gaches' normwise backward error (Higham, Sec. 7.1).  The
    window is accepted when eta <= u = 2^-53; else h doubles, from
    FIRST_WINDOW k, until eta <= u or W is the whole level, where r = 0.
    Because ||A~||_2 >= 1, an accepted window adds at most one unit roundoff
    of normwise backward error, relative to ||A~||_2, to what LAPACK's solve
    of the whole band carries: no eigenvalue bound is needed.  r is formed
    with at most k - 1 products a row, so its rounding moves eta by about
    k u times the same ratio taken with |A| |x| in place of r: a term of
    order k u^2 where the two ratios are alike.  A window that is the
    whole level is LAPACK's full solve, bit for bit.

    A level that fails raises when the walk reaches it, naming the level; a
    window whose factor fails names the minor by its index in the level.
    Besides its two buffers the walk holds one block's knot data and fresh
    columns, with temporaries of O(LEVEL_BLOCK (k^3 + LEVEL_BLOCK)) floats
    (the fresh columns' assembly and the knot windows' sort), and
    allocates nothing per level that outlives the level but the ``coeffs``
    it yields: a consumer that drops them runs in memory
    O(LEVEL_BLOCK (k^3 + LEVEL_BLOCK) + N k).  An N the sequence cannot
    reach fails before the first level.
    """
    check_level(seq, N)
    k = seq.order
    buffer = _buffer((N + k - 1, k))
    flat = buffer.reshape(-1)
    for inserts, block in knot_blocks(seq, N):
        p = block.i0 - 1
        sizes = block.first + np.arange(len(p)) + k - 1
        ncols = np.minimum(sizes, p + k) - p + k
        fresh, finite = refinement_columns(block.windows, k, ncols)
        for b, (knots, p_b, cols) in enumerate(zip(inserts, p.tolist(), fresh)):
            n = block.first + b
            M = n + k - 1
            if not finite[b]:
                raise NotPositiveDefinite(f"level {n}: array must not contain infs or NaNs")
            # columns p+k.. are the level before's p+k-1.., those before p-k stay
            flat[(p_b + k) * k : M * k] = flat[(p_b + k - 1) * k : (M - 1) * k]
            buffer[p_b - k : p_b - k + len(cols)] = cols
            band = _read_only(buffer[:M].T)
            lo, c, norm2 = window_function(band, p_b, block.alpha[b], n)
            coeffs = np.zeros(M)
            coeffs[lo : lo + len(c)] = c
            if n == N:
                G = GramSystem(Partition(order=k, knots=knots, level=N, M=M), band, cholesky(band, N))
            yield knots, band, block, b, coeffs, norm2
    return G


def window_function(band, p, alpha, level):
    """(lo, c, norm2): f_n's coefficients c on the certified window lo..lo + len(c) - 1 around position p.

    ``band`` is the level's Gram band and ``alpha`` sits at p - k..p.  The
    window reaches h = FIRST_WINDOW k to either side of p, cut at the ends
    of the level.  On it A w = alpha is solved, norm2 = (alpha . w)^1/2
    and c = w / norm2.  h doubles until ``backward_error`` is at most
    UNIT_ROUNDOFF or the window is the whole level (``levels`` proves why
    that suffices).  A window whose norm2 is not finite is widened too, so
    a level fails, naming itself, only on its whole band, as the full
    solve did.  norm2 is finite only where every entry of w is: BLAS's dot
    product multiplies every entry, zeros of alpha too, and 0 times inf or
    NaN is NaN.
    """
    k, M = band.shape
    h = FIRST_WINDOW * k
    while True:
        lo, hi = max(0, p - h), min(M, p + h + 1)
        rhs = np.zeros(hi - lo)
        rhs[p - k - lo : p + 1 - lo] = alpha
        w = window_solve(band, lo, rhs, level)
        norm2 = math.sqrt(np.dot(rhs, w))
        if math.isfinite(norm2):
            c = w / norm2
            if hi - lo == M or backward_error(band, lo, c) <= UNIT_ROUNDOFF:
                return lo, c, norm2
        elif hi - lo == M:
            raise NotPositiveDefinite(f"level {level}: complement function not finite, norm {norm2}")
        h *= 2


def backward_error(band, lo, c):
    """eta = ||D^-1/2 r||_2 / ||D^1/2 x||_2 for window coefficients c on lo..lo + len(c) - 1, x = c extended by 0.

    eta does not depend on the scale of x, so c may be w or w / norm2.
    r = A x - alpha vanishes in the window, up to the solve's own rounding,
    and outside it alpha = 0, so r is A x on the kd = k - 1 rows past each
    end: row lo - kd + a meets column lo + j, j <= a, in band[a - j, lo + j],
    and row hi + a meets column hi - kd + j, j >= a, in band[j - a, hi + a].
    Each row's sum of at most kd products is squared and divided by the
    row's diagonal entry; a diagonal entry that is not positive makes eta
    infinite.  The window must hold at least kd entries.  Each end's band
    columns, their diagonal entries among them, are read in one
    ``tolist`` call, and the denominator is one dot product of contiguous
    vectors.
    """
    k, M = band.shape
    kd = k - 1
    hi = lo + len(c)
    cols = band.T  # cols[j][i] = band[i, j]; the diagonal entry last
    num2 = 0.0
    if lo > 0:
        first = max(0, kd - lo)  # rows before 0 do not exist
        ends, x = cols[lo - kd + first : lo + kd].tolist(), c[:kd].tolist()
        for a in range(first, kd):
            r = 0.0
            for j in range(a + 1):
                r += ends[kd - first + j][a - j] * x[j]
            d = ends[a - first][kd]
            if not d > 0.0:
                return math.inf
            num2 += r * r / d
    if hi < M:
        ends, x = cols[hi : hi + kd].tolist(), c[len(c) - kd :].tolist()
        for a, end in enumerate(ends):
            r = 0.0
            for j in range(a, kd):
                r += end[j - a] * x[j]
            if not end[kd] > 0.0:
                return math.inf
            num2 += r * r / end[kd]
    return math.sqrt(num2 / np.dot(np.ascontiguousarray(band[kd, lo:hi]), c * c))


def build_system(seq, N):
    """Assemble the orthonormal system of a sequence up to level N.

    Collects the knot records and coefficients of ``levels`` and keeps the
    level-N Gram system it returns.  The level-N matrix is formed only
    when asked for.
    """
    blocks, coeffs = [], []
    walk = levels(seq, N)
    while True:
        try:
            _, _, block, b, c, _ = next(walk)
        except StopIteration as end:
            return OrthoSystem(seq, N, initial_block(seq.order), blocks, coeffs, end.value)
        if b == 0:
            blocks.append(block)
        coeffs.append(c)
