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
from .bspline import Spline, boehm_refine, eval_basis_many, gram_matrix, gram_refine, split_columns
from .errors import IndexOutOfRange, NotPositiveDefinite
from .knots import boundary_partition, check_level, next_partition


@dataclass(frozen=True)
class OrthoFunction:
    """One orthonormal spline function with its construction data.

    ``alpha`` holds the k + 1 insertion coefficients for j = i0-k..i0,
    ``norm2`` the L2 norm of the unnormalized complement function g, ``phi``
    the normalized spline g / norm2, and ``char`` the characteristic interval.
    """

    level: int
    i0: int
    alpha: np.ndarray
    norm2: float
    phi: Spline
    char: charint.CharInterval


def alpha_coefficients(partition, i0):
    """Insertion coefficients alpha_j, j = i0-k..i0, of the new knot tau_{i0}.

    With (w1, w2) the refinement weights of ``boehm_refine``, the entry for
    j = i0-k+m is (-1)^m times the product of w1[1:m] and w2[m:k-1], taken
    in that order.  The first entry is positive, signs alternate strictly on
    the leading nonzero block, and entries vanish once the product hits a
    knot equal to tau_{i0}.
    """
    k = partition.order
    w1, w2 = boehm_refine(partition, i0)
    return np.array(
        [(-1.0) ** m * math.prod(np.concatenate([w1[1:m], w2[m : k - 1]])) for m in range(k + 1)]
    )


def ortho_function(G, i0):
    """Build the level-n orthonormal function from the level-n Gram system.

    Solves A w = alpha (alpha scattered into R^M), so w carries the B-spline
    coefficients of the unnormalized g; ||g||_2^2 = sum alpha_j w_j over the
    alpha support.  The sign convention is inherited from alpha.  Raises
    NotPositiveDefinite, naming the level, when ||g||_2 or w is not finite.
    """
    part = G.partition
    k = part.order
    alpha = alpha_coefficients(part, i0)
    rhs = np.zeros(part.M)
    rhs[i0 - k - 1 : i0] = alpha
    w = G.solve(rhs)
    norm2 = math.sqrt(float(rhs @ w))
    if not (math.isfinite(norm2) and np.isfinite(w).all()):
        raise NotPositiveDefinite(f"level {part.level}: complement function not finite, norm {norm2}")
    phi = Spline(part, w / norm2)
    char = charint.characteristic_interval(part, i0, alpha)
    return OrthoFunction(level=part.level, i0=i0, alpha=alpha, norm2=norm2, phi=phi, char=char)


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
    on its own level in ``functions``.  ``matrix`` holds every system
    function expressed over the level-N B-spline basis (rows ordered by
    level, the block first): Gram identities are single products with it, and
    ``bspline.spline_values`` evaluates its rows; it is formed on first use.
    ``gram`` is the level-N Gram system; its partition is the finest one.
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
        single-knot refinement with ``split_columns``, then adds the level's
        own function.
        Each column stands for one level-N B-spline from the start, labelled
        by the level-N position of its first knot; labels never move, so an
        insertion rewrites only the k + 1 columns around it, and the array
        is filled in place with no second M x M copy.
        """
        k, M = self.order, self.size
        # Level-N position of t_n: k plus its rank among t_2..t_N, ties in
        # insertion order, as next_partition places equal knots.
        rank = np.empty(self.N - 1, dtype=np.intp)
        rank[np.argsort(self.seq.points[2 : self.N + 1], kind="stable")] = np.arange(self.N - 1)
        labels = np.arange(k)
        F = np.zeros((M, M))
        F[:k, :k] = polynomial_coeffs_over(boundary_partition(k), self.block)
        for row, of in enumerate(self.functions, start=k):
            w1, w2 = boehm_refine(of.phi.partition, of.i0)
            p = of.i0 - 1
            labels = np.insert(labels, p, k + rank[of.level - 2])
            cols = labels[p - k : p + 1]
            F[:row, cols] = split_columns(F[:row, cols[:-1]], w1, w2)
            F[row, labels] = of.phi.coeffs
        return F

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

    def function(self, n):
        """The OrthoFunction of level n >= 2."""
        if not 2 <= n <= self.N:
            raise IndexOutOfRange(f"level {n} outside [2, {self.N}]")
        return self.functions[n - 2]


def export_record(of):
    """The serializable record of one constructed level n >= 2."""
    digest = hashlib.sha256(np.ascontiguousarray(of.phi.partition.knots).tobytes())
    return {
        "level": of.level,
        "i0": of.i0,
        "knots-hash": digest.hexdigest(),
        "coeffs": of.phi.coeffs.tolist(),
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


def levels(seq, N):
    """Yield (G, f_n) for n = 2..N: the level-n Gram system and orthonormal function.

    Walks the levels once: inserts t_n into the previous partition, updates
    the Gram band around it, and builds the new orthonormal function on its
    level.  A level copies the O(M k) band, reassembles O(k) columns of it,
    and factors and solves it once: O(N^2 k^2) for the whole walk.  Nothing
    of a level is kept once the next one is asked for, so a consumer that
    drops what it was given runs in memory flat in N.  An N the sequence
    cannot reach fails before the first level is built.
    """
    check_level(seq, N)
    part = boundary_partition(seq.order)
    G = gram_matrix(part)
    for _ in range(2, N + 1):
        part, i0 = next_partition(seq, part)
        G = gram_refine(G, part, i0)
        yield G, ortho_function(G, i0)


def build_system(seq, N):
    """Assemble the orthonormal system of a sequence up to level N.

    Collects the functions of ``levels`` and keeps the level-N Gram system.
    The level-N matrix is formed only when asked for.
    """
    functions = []
    for G, of in levels(seq, N):
        functions.append(of)
    return OrthoSystem(seq=seq, N=N, block=initial_block(seq.order), functions=functions, gram=G)
