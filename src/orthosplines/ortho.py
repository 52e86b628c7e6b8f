"""Construction of the orthonormal spline system.

For each level n >= 2 the function f_n spans the one-dimensional orthogonal
complement of the previous spline space inside the current one.  Its B-spline
coefficients come from the alpha products of the inserted knot and one banded
solve against the Gram matrix.  Levels n <= 1 are the initial block of
orthonormal polynomials.
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
from .errors import IndexOutOfRange, NotPositiveDefinite
from .knots import boundary_partition, check_level, next_partition

# Levels whose local work (knot windows, fresh Gram columns, alpha, J) is
# done in one set of array passes.  A block holds its levels' knot vectors,
# O(LEVEL_BLOCK M) floats, and temporaries of O(LEVEL_BLOCK k^3) floats:
# about 0.5 MB at k = 3, M = 1024.
LEVEL_BLOCK = 64


@dataclass(frozen=True)
class OrthoFunction:
    """One orthonormal spline function f_n with its construction data.

    ``alpha`` holds the k + 1 insertion coefficients for j = i0-k..i0,
    ``norm2`` the L2 norm of the unnormalized complement function g,
    ``coeffs`` the coefficients of f_n = g / norm2 over the level-n
    B-spline basis, and ``char`` the characteristic interval.  ``window``
    holds the knots of ``_local_work``, every level-n knot that the level's
    local work and ``verify``'s per-level checks read.
    """

    level: int
    i0: int
    alpha: np.ndarray
    norm2: float
    window: np.ndarray
    coeffs: np.ndarray
    char: charint.CharInterval


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
    """The assembled system: initial block plus f_2..f_N on one sequence.

    ``block`` holds the k polynomials of ``initial_block``, and each f_n lives
    on its own level in ``functions``, with its knot window and its
    coefficients over the level-n basis.  ``matrix`` holds every system
    function expressed over the level-N B-spline basis (rows ordered by
    level, the block first): Gram identities are single products with it, and
    ``bspline.spline_values`` evaluates its rows; it is formed on first use.
    ``gram`` is the level-N Gram system; its partition is the finest one, and
    ``positions`` places each t_n in it, which fixes every level's knots.
    """

    def __init__(self, seq, N, block, functions, gram):
        self.seq = seq
        self.N = N
        self.block = block
        self.functions = functions
        self.gram = gram

    @functools.cached_property
    def matrix(self):
        """Every system function over the level-N basis, shape (size, size).

        One sweep over the levels prolongs the earlier functions through each
        single-knot refinement, as ``split_columns`` maps coarse columns to
        fine ones (Boehm weights of every level from one ``boehm_weights``
        call), then adds the level's own function.  Each level-N B-spline is
        labelled from the start by the level-N position of its first knot;
        labels never move, so an insertion rewrites only the k + 1 labels
        around it.  The sweep fills the array label-major, one row per
        B-spline, so an insertion reads and writes k + 1 contiguous rows;
        one blocked transpose in place then leaves a C-contiguous array of
        one row per function, with no second M x M copy.
        """
        k, M = self.order, self.size
        near = [of.window[k - 1 : 3 * k] for of in self.functions]  # tau_{i0-k}..tau_{i0+k}
        W1, W2 = boehm_weights(np.array(near))
        labels = np.arange(k)
        F = np.zeros((M, M))
        F[:k, :k] = polynomial_coeffs_over(boundary_partition(k), self.block).T
        for row, of, w1, w2 in zip(range(k, M), self.functions, W1[:, :, None], W2[:, :, None]):
            p = of.i0 - 1
            labels = np.concatenate((labels[:p], [self.positions[of.level - 2]], labels[p:]))
            cols = labels[p - k : p + 1]
            old = F[cols[:-1], :row]
            new = np.zeros((k + 1, row))
            new[:-1] += old * w1
            new[1:] += old * w2
            F[cols, :row] = new
            F[labels, row] = of.coeffs
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

    def row_of_level(self, n):
        """Row index of level n in the system matrix; block levels included."""
        k = self.seq.order
        if not -k + 2 <= n <= self.N:
            raise IndexOutOfRange(f"level {n} outside [{-k + 2}, {self.N}]")
        return n + k - 2


def _transpose_in_place(F, tile=64):
    """Transpose a square array in place, swapping tile x tile blocks across the diagonal."""
    M = len(F)
    for i in range(0, M, tile):
        I = slice(i, i + tile)
        F[I, I] = F[I, I].T.copy()
        for j in range(i + tile, M, tile):
            J = slice(j, j + tile)
            upper = F[I, J].copy()
            F[I, J] = F[J, I].T
            F[J, I] = upper.T


def export_record(G, of):
    """The serializable record of one constructed level n >= 2, from a (G, f_n) pair of ``levels``."""
    digest = hashlib.sha256(np.ascontiguousarray(G.partition.knots).tobytes())
    return {
        "level": of.level,
        "i0": of.i0,
        "knots-hash": digest.hexdigest(),
        "coeffs": of.coeffs,
        "J": [float(of.char.J[0]), float(of.char.J[1])],
        "norm2": float(of.norm2),
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


def _local_work(block):
    """Each level's O(k) local work for a block of levels, in array passes.

    ``block`` holds each level's (partition, i0) from ``next_partition``.
    Returns, per level, its knot window, the Gram band columns the
    insertion changes, alpha and the characteristic interval.  They read
    only knots near the new knot's 0-based position p: the fresh columns'
    spans p-k..p+2k-2 read p-k..p+2k-1 for their ends and p-2k+2..p+3k-3 in
    Cox-de Boor, alpha and J read p-k..p+k.  Each level's window holds its
    knots p-2k+1..p+3k-2, one more on each side than Cox-de Boor reads, so
    that it holds p-1..p+1 at k = 1 too; past either end it repeats the
    boundary knot, 0 or 1.
    """
    k = block[0][0].order
    p = np.array([i0 - 1 for _, i0 in block])
    M = np.array([part.M for part, _ in block])
    at = np.arange(-(2 * k - 1), 3 * k - 1)
    windows = np.stack([part.knots.take(i0 - 1 + at, mode="clip") for part, i0 in block])
    fresh = refinement_columns(windows, k, np.minimum(M, p + k) - p + k)
    near = windows[:, k - 1 : 3 * k]  # tau_{i0-k}..tau_{i0+k}
    alpha = alpha_coefficients(*boehm_weights(near))
    chars = charint.characteristic_intervals(near, alpha, p + 1)
    return windows, fresh, alpha, chars


def levels(seq, N):
    """Yield (G, f_n) for n = 2..N: the level-n Gram system and orthonormal function.

    Walks the levels once, LEVEL_BLOCK at a time.  A block first inserts
    each of its points in turn (``next_partition``), then does every
    level's O(k) local work in array passes (``_local_work``): the 2k Gram
    band columns around t_n, alpha and J_n, all from the knots next to t_n,
    in O(k^2) numpy calls for the whole block.  Each level then only shifts
    the band past t_n and pastes its fresh columns, factors the band and
    solves for the new function once: O(M k^2) per level, O(N^2 k^2) for
    the walk.  A level that fails raises when the walk reaches it, naming
    the level, even if its block computed it earlier.  The walk keeps the
    knot vectors of one block and nothing of a level once its block is
    done; f_n keeps the level's knot window, not its knot vector, which
    only G holds.  A consumer that drops what it was given runs in memory
    O(LEVEL_BLOCK N).  An N the sequence cannot reach fails before the
    first level is built.
    """
    check_level(seq, N)
    k = seq.order
    part = boundary_partition(k)
    G = gram_matrix(part)
    for n0 in range(2, N + 1, LEVEL_BLOCK):
        block = []
        for _ in range(min(LEVEL_BLOCK, N + 1 - n0)):
            part, i0 = next_partition(seq, part)
            block.append((part, i0))
        windows, fresh, alpha, chars = _local_work(block)
        for (fine, i0), window, cols, a, char in zip(block, windows, fresh, alpha, chars):
            G = refine_gram(G, fine, i0, cols)
            rhs = np.zeros(fine.M)
            rhs[i0 - k - 1 : i0] = a
            w = G.solve(rhs)
            norm2 = math.sqrt(float(rhs @ w))
            if not (math.isfinite(norm2) and np.isfinite(w).all()):
                raise NotPositiveDefinite(
                    f"level {fine.level}: complement function not finite, norm {norm2}"
                )
            yield G, OrthoFunction(
                level=fine.level, i0=i0, alpha=a, norm2=norm2, window=window, coeffs=w / norm2, char=char
            )


def build_system(seq, N):
    """Assemble the orthonormal system of a sequence up to level N.

    Collects the functions of ``levels`` and keeps the level-N Gram system.
    The level-N matrix is formed only when asked for.
    """
    functions = []
    for G, of in levels(seq, N):
        functions.append(of)
    return OrthoSystem(seq=seq, N=N, block=initial_block(seq.order), functions=functions, gram=G)
