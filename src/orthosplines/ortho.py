"""Construction of the orthonormal spline system.

For each level n >= 2 the function f_n spans the one-dimensional orthogonal
complement of the previous spline space inside the current one.  Its B-spline
coefficients come from the alpha products of the inserted knot and one banded
solve against the Gram matrix.  Levels n <= 1 are the initial block of
orthonormal polynomials.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import Legendre, leggauss
from scipy.linalg import solve as dense_solve

from . import charint
from .bspline import Spline, basis_matrix, boehm_refine, gram_matrix
from .errors import EmptyInterval, IndexOutOfRange
from .knots import boundary_partition, insert_event, partition_at


@dataclass(frozen=True)
class OrthoFunction:
    """One orthonormal spline function with its construction data.

    ``alpha`` holds the k + 1 insertion coefficients for j = i0-k..i0, ``w``
    the B-spline coefficients of the unnormalized complement function g,
    ``norm2`` its L2 norm, ``phi`` the normalized spline, and ``char`` the
    characteristic interval.
    """

    level: int
    i0: int
    alpha: np.ndarray
    w: np.ndarray
    norm2: float
    phi: Spline
    char: charint.CharInterval


@dataclass(frozen=True)
class PolynomialBlock:
    """The k orthonormal polynomials on [0, 1], degrees 0..k-1.

    Entry of degree d carries the system level n = d - k + 2, so the levels
    run from -k + 2 through 1.
    """

    order: int
    polys: tuple

    @property
    def levels(self):
        return range(-self.order + 2, 2)

    def eval_matrix(self, xs):
        """Values of every block polynomial at the points, shape (k, len(xs))."""
        xs = np.asarray(xs, dtype=float)
        return np.vstack([p(xs) for p in self.polys])


def alpha_coefficients(partition, i0):
    """Insertion coefficients alpha_j, j = i0-k..i0, of the new knot tau_{i0}.

    alpha_j is a signed product of ratios of knot differences; the first
    entry is positive, signs alternate strictly on the leading nonzero block,
    and entries vanish once the product hits a knot equal to tau_{i0}.
    """
    k = partition.order
    if not k + 1 <= i0 <= partition.M:
        raise IndexOutOfRange(f"i0={i0} outside [k+1, M]=[{k + 1}, {partition.M}]")
    tau = partition.tau
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


def ortho_function(G, i0):
    """Build the level-n orthonormal function from the level-n Gram system.

    Solves A w = alpha (alpha scattered into R^M), so w carries the B-spline
    coefficients of the unnormalized g; ||g||_2^2 = sum alpha_j w_j over the
    alpha support.  The sign convention is inherited from alpha.
    """
    part = G.partition
    k = part.order
    alpha = alpha_coefficients(part, i0)
    rhs = np.zeros(part.M)
    rhs[i0 - k - 1 : i0] = alpha
    w = G.solve(rhs)
    norm2 = math.sqrt(float(rhs @ w))
    phi = Spline(part, w / norm2)
    char = charint.characteristic_interval(part, i0, alpha)
    return OrthoFunction(
        level=part.level, i0=i0, alpha=alpha, w=w, norm2=norm2, phi=phi, char=char
    )


def initial_block(order):
    """Orthonormal polynomials on [0, 1] up to degree k - 1.

    Shifted Legendre polynomials scaled to unit L2 norm; leading coefficients
    are positive.
    """
    polys = []
    for d in range(order):
        p = Legendre.basis(d, domain=[0.0, 1.0]) * math.sqrt(2 * d + 1)
        polys.append(p)
    return PolynomialBlock(order=order, polys=tuple(polys))


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


def gram_schmidt_oracle(seq, n):
    """Brute-force construction of the level-n function, used as an oracle.

    Projects the newly appearing fine B-spline onto the coarse space embedded
    through the refinement map, subtracts, and normalizes; dense linear
    algebra throughout.  The sign is aligned by the independent rule that the
    N_{i0} coefficient of the result has sign (-1)^k.
    """
    k = seq.order
    fine = partition_at(seq, n)
    coarse = partition_at(seq, n - 1) if n >= 3 else boundary_partition(k)
    i0 = insert_event(seq, n).i0
    rmap = boehm_refine(coarse, fine, i0)
    C = rmap.as_matrix()
    A = gram_matrix(fine).dense()
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
    """|w_{j0}| over the diagonal Gram-inverse entry at the selected index."""
    j0 = of.char.j0
    e = np.zeros(G.M)
    e[j0 - 1] = 1.0
    return abs(float(of.w[j0 - 1])) / float(G.solve(e)[j0 - 1])


class OrthoSystem:
    """The assembled system: initial block plus f_2..f_N on one sequence.

    ``matrix`` holds every system function expressed over the level-N
    B-spline basis (rows ordered by level, the block first), which makes
    whole-system evaluation and Gram identities single matrix products.
    """

    def __init__(self, seq, N, block, functions, finest, gram, matrix):
        self.seq = seq
        self.N = N
        self.block = block
        self.functions = functions
        self.finest = finest
        self.gram = gram
        self.matrix = matrix

    @property
    def order(self):
        return self.seq.order

    @property
    def size(self):
        """Number of system functions, equal to the finest-level M."""
        return self.matrix.shape[0]

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

    def value_matrix(self, xs):
        """Every system function evaluated at the points, (size, len(xs))."""
        return self.matrix @ basis_matrix(self.finest, xs).T

    def export_records(self):
        """One serializable record per constructed level n >= 2."""
        out = []
        for of in self.functions:
            part = of.phi.partition
            digest = hashlib.sha256(np.ascontiguousarray(part.knots).tobytes())
            out.append(
                {
                    "level": of.level,
                    "i0": of.i0,
                    "knots-hash": digest.hexdigest(),
                    "coeffs": [float(c) for c in of.phi.coeffs],
                    "J": [float(of.char.J[0]), float(of.char.J[1])],
                    "norm2": float(of.norm2),
                }
            )
        return out


def polynomial_coeffs_over(partition, polys):
    """Coefficients of polynomials over a partition's B-spline basis.

    Exact for polynomials of order <= k: interpolation at k Gauss points per
    the square design matrix of the boundary partition.
    """
    k = partition.order
    ref_x, _ = leggauss(k)
    pts = 0.5 + 0.5 * ref_x
    design = basis_matrix(partition, pts)
    vals = np.vstack([[p(x) for x in pts] for p in polys])
    return np.linalg.solve(design, vals.T).T


def build_system(seq, N):
    """Assemble the orthonormal system of a sequence up to level N.

    Walks the levels once: prolongs all earlier functions through the
    one-knot refinement, builds the level Gram, appends the new orthonormal
    function.  Returns an OrthoSystem carrying the level-N representation.
    """
    k = seq.order
    if N < 2:
        raise IndexOutOfRange(f"N must be at least 2, got {N}")
    block = initial_block(k)
    part = boundary_partition(k)
    F = polynomial_coeffs_over(part, block.polys)
    functions = []
    G = None
    for n in range(2, N + 1):
        fine = partition_at(seq, n)
        i0 = insert_event(seq, n).i0
        rmap = boehm_refine(part, fine, i0)
        F = rmap.prolong_many(F)
        G = gram_matrix(fine)
        of = ortho_function(G, i0)
        F = np.vstack([F, of.phi.coeffs[None, :]])
        functions.append(of)
        part = fine
    return OrthoSystem(
        seq=seq, N=N, block=block, functions=functions, finest=part, gram=G, matrix=F
    )
