"""Construction of the orthonormal spline system.

For each level n >= 2 the function f_n spans the one-dimensional orthogonal
complement of the previous spline space inside the current one.  Its B-spline
coefficients come from the alpha products of the inserted knot and one banded
solve against the Gram matrix.  Levels n <= 1 are the initial block of
orthonormal polynomials.

The walk has two passes, split where the paper splits them.  The knot pass
(``knot_blocks``) gives each level's alpha, its characteristic interval and
its knot window from the knots alone; the Gram pass (``levels``) adds the
Gram system and f_n.
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
    boehm_weights,
    eval_basis_many,
    gram_matrix,
    refine_gram,
    refinement_columns,
)
from .errors import NotPositiveDefinite
from .knots import boundary_partition, check_level, next_partition

# Levels whose knot data (knot windows, alpha, J) and fresh Gram columns are
# made in one set of array passes.  A block holds its levels' knot vectors,
# O(LEVEL_BLOCK M) floats, and temporaries of O(LEVEL_BLOCK k^3) floats:
# about 0.5 MB at k = 3, M = 1024.
LEVEL_BLOCK = 64


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
    ``coeffs[n - 2]`` the coefficients of f_n over the level-n basis.
    ``matrix`` holds every system function expressed over the level-N
    B-spline basis (rows ordered by level, the polynomials first, so level n
    is row n + k - 2): Gram identities are single products with it, and
    ``bspline.spline_values`` evaluates its rows; it is formed on first use.
    ``gram`` is the level-N Gram system; its partition is the finest one,
    and ``positions`` places each t_n in it, which fixes every level's knots.
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
    def positions(self):
        """0-based position of each t_n, n = 2..N, in the level-N knot vector, as an array.

        k plus the rank of t_n among t_2..t_N, ties in insertion order, as
        ``next_partition`` places equal knots.
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


def export_record(G, block, b, coeffs, norm2):
    """The serializable record of one constructed level n >= 2, from one tuple of ``levels``."""
    digest = hashlib.sha256(np.ascontiguousarray(G.partition.knots).tobytes())
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
    """Yield (partitions, KnotBlock) for levels 2..N, LEVEL_BLOCK levels at a time.

    The knot pass: a block inserts each of its points in turn
    (``next_partition``), then cuts each level's knot window around its new
    knot and forms alpha (``boehm_weights``) and J_n
    (``charint.characteristic_intervals``) for the whole block in array
    passes.  They read only knots near the new knot's 0-based position p:
    alpha and J read p-k..p+k, and the Gram pass's fresh columns read
    p-k..p+2k-1 for their span ends and p-2k+2..p+3k-3 in Cox-de Boor.
    The window holds p-2k+1..p+3k-2, one more on each side, so that it
    holds p-1..p+1 at k = 1 too.  ``partitions`` holds the block's knot
    vectors, which only the Gram pass reads.  An N the sequence cannot
    reach fails before the first level.
    """
    check_level(seq, N)
    k = seq.order
    part = boundary_partition(k)
    at = np.arange(1 - 2 * k, 3 * k - 1)
    for first in range(2, N + 1, LEVEL_BLOCK):
        parts, i0 = [], []
        for _ in range(min(LEVEL_BLOCK, N + 1 - first)):
            part, i = next_partition(seq, part)
            parts.append(part)
            i0.append(i)
        i0 = np.array(i0)
        windows = np.stack([part.knots.take(i - 1 + at, mode="clip") for part, i in zip(parts, i0)])
        near = windows[:, k - 1 : 3 * k]  # tau_{i0-k}..tau_{i0+k}
        alpha = alpha_coefficients(*boehm_weights(near))
        _, J = charint.characteristic_intervals(near, alpha, i0)
        yield parts, KnotBlock(first=first, i0=i0, windows=windows, alpha=alpha, J=J)


def levels(seq, N):
    """Yield (G, block, b, coeffs, norm2) for n = 2..N, one level at a time.

    The Gram pass over ``knot_blocks``: level n is row b of its KnotBlock,
    G its Gram system, ``coeffs`` the coefficients of f_n over the level-n
    basis and ``norm2`` the L2 norm of the unnormalized complement function
    g = norm2 f_n.  Per block one ``refinement_columns`` call assembles the
    2k fresh Gram band columns around each t_n.  Each level then only shifts
    the band past t_n and pastes its fresh columns, factors the band and
    solves for the new function once: O(M k^2) per level, O(N^2 k^2) for
    the walk.  A level that fails raises when the walk reaches it, naming
    the level.  The walk keeps the knot vectors of one block; a consumer
    that drops what it was given runs in memory O(LEVEL_BLOCK N).  An N
    the sequence cannot reach fails before the level-1 Gram system is
    assembled.
    """
    check_level(seq, N)
    k = seq.order
    G = gram_matrix(boundary_partition(k))
    for parts, block in knot_blocks(seq, N):
        p = block.i0 - 1
        M = block.first + np.arange(len(p)) + k - 1
        fresh = refinement_columns(block.windows, k, np.minimum(M, p + k) - p + k)
        for b, (fine, cols) in enumerate(zip(parts, fresh)):
            i0 = int(block.i0[b])
            G = refine_gram(G, fine, i0, cols)
            rhs = np.zeros(fine.M)
            rhs[i0 - k - 1 : i0] = block.alpha[b]
            w = G.solve(rhs)
            norm2 = math.sqrt(float(rhs @ w))
            if not (math.isfinite(norm2) and np.isfinite(w).all()):
                raise NotPositiveDefinite(
                    f"level {fine.level}: complement function not finite, norm {norm2}"
                )
            yield G, block, b, w / norm2, norm2


def build_system(seq, N):
    """Assemble the orthonormal system of a sequence up to level N.

    Collects the knot records and coefficients of ``levels`` and keeps the
    level-N Gram system.  The level-N matrix is formed only when asked for.
    """
    blocks, coeffs = [], []
    for G, block, b, c, _ in levels(seq, N):
        if b == 0:
            blocks.append(block)
        coeffs.append(c)
    return OrthoSystem(seq, N, initial_block(seq.order), blocks, coeffs, G)
