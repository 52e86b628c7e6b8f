"""Expansions in the orthonormal system and the derived experiments.

Everything here sits on top of a built OrthoSystem: expansion coefficients,
the square function and partial-sum maximal function, the Hardy-Littlewood
maximal function on a uniform cell grid, threshold level sets, the sign-flip
unconditionality experiment, and the tail-decay audit.

The grid model: [0, 1] is split into G half-open cells [i/G, (i+1)/G), each
represented by its center sample.  Interval averages and set measures are
exact for the cell model; against the continuum they carry an O(1/G)
discretization gap, which callers quantify by refining G.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bspline, charint
from .errors import DomainError, LevelOutOfRange

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GridFunction:
    """Samples on the uniform cell grid, one value per cell center."""

    G: int
    values: np.ndarray

    def centers(self):
        return (np.arange(self.G) + 0.5) / self.G

    def at(self, x):
        """Value of the cell containing x."""
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        return float(self.values[min(int(x * self.G), self.G - 1)])


@dataclass(frozen=True)
class Expansion:
    """Coefficients against the orthonormal functions through one level."""

    system: object
    level: int
    coeffs: np.ndarray

    @property
    def size(self):
        return len(self.coeffs)

    def term_matrix(self, xs):
        """Values of the participating functions at xs, one row each."""
        return self.system.value_matrix(xs)[: self.size]

    def values(self, xs):
        return self.coeffs @ self.term_matrix(xs)

    def reconstruction(self):
        """The expansion as a spline on the finest partition."""
        coeffs = self.system.matrix[: self.size].T @ self.coeffs
        return bspline.Spline(self.system.gram.partition, coeffs)


@dataclass(frozen=True)
class LevelSets:
    """Cell unions for a square-function threshold and its maximal hull."""

    lam: float
    r: float
    E: np.ndarray
    B: np.ndarray
    e_measure: float
    b_measure: float
    weak_constant: object


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
    if isinstance(f, bspline.Spline) and f.partition.order == part.order and np.array_equal(
        f.partition.knots, part.knots
    ):
        a = system.matrix @ system.gram.apply(f.coeffs)
    else:
        rule = bspline.QuadratureRule.for_partition(part, system.order + 8)
        xs = rule.flat_nodes
        fv = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
        moments = bspline.basis_matrix(part, xs).T @ (rule.flat_weights * fv)
        a = system.matrix @ moments
    return Expansion(system=system, level=N, coeffs=a[:size])


def random_coeffs(seed, trial, size, mode="dense"):
    """Unit-norm coefficient draw for one trial, reproducible by stream.

    Streams are keyed by (seed, trial, 0) so that a shorter draw is a prefix
    of a longer one from the same key, which is what lets experiments at two
    truncation levels share their randomness.
    """
    rng = np.random.default_rng((seed, trial, 0))
    a = rng.standard_normal(size)
    if mode == "sparse":
        keep = math.ceil(math.sqrt(size))
        mask = np.zeros(size, dtype=bool)
        mask[rng.permutation(size)[:keep]] = True
        a = np.where(mask, a, 0.0)
    elif mode != "dense":
        raise DomainError(f"unknown coefficient mode {mode!r}")
    return a / np.linalg.norm(a)


def random_signs(seed, trial, size):
    rng = np.random.default_rng((seed, trial, 1))
    return rng.integers(0, 2, size) * 2.0 - 1.0


def _grid_size(system, grid):
    G = grid.G if isinstance(grid, GridFunction) else int(grid)
    n_knots = len(system.gram.partition.knots)
    if G < 4 * n_knots:
        raise DomainError(f"grid of {G} cells is too coarse for {n_knots} knots")
    return G


def square_function(e, grid):
    """Pointwise l2 aggregate of the expansion terms on the cell grid."""
    G = _grid_size(e.system, grid)
    xs = (np.arange(G) + 0.5) / G
    T = e.coeffs[:, None] * e.term_matrix(xs)
    return GridFunction(G, np.sqrt((T**2).sum(axis=0)))


def maximal_function(e, grid):
    """Largest absolute partial sum of the expansion, level by level."""
    G = _grid_size(e.system, grid)
    xs = (np.arange(G) + 0.5) / G
    T = e.coeffs[:, None] * e.term_matrix(xs)
    partial = np.cumsum(T, axis=0)
    return GridFunction(G, np.abs(partial).max(axis=0))


def hl_maximal(g):
    """Exact sup of interval averages of |g| over grid-aligned intervals.

    For each left endpoint i the averages over [i, j] are a running mean in
    j; a reversed cumulative max gives the best interval starting at i and
    covering each cell, and the outer loop keeps the best over i.  Work is
    O(G^2) but entirely in vector ops; degenerate one-cell intervals are
    included, so the result dominates |g| pointwise.
    """
    a = np.abs(g.values)
    G = g.G
    P = np.concatenate([[0.0], np.cumsum(a)])
    out = np.zeros(G)
    for i in range(G):
        avgs = (P[i + 1 :] - P[i]) / np.arange(1, G - i + 1)
        np.maximum(out[i:], np.maximum.accumulate(avgs[::-1])[::-1], out=out[i:])
    return GridFunction(G, out)


def level_sets(sf, lam, r):
    """Threshold set of a square function and its maximal-average hull.

    ``sf`` is the GridFunction of ``square_function``.  E collects the cells
    where Sf > lam.  B is the cell set where some grid-aligned interval
    through the cell has 1_E-average above r; that is decided exactly in
    O(G) by testing whether the best-sum segment of 1_E - r through each
    cell is positive, which is the same predicate.
    """
    if lam <= 0:
        raise DomainError(f"lambda={lam} must be positive")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r={r} outside (0, 1)")
    G = sf.G
    E = sf.values > lam
    s = E.astype(float) - r
    P = np.concatenate([[0.0], np.cumsum(s)])
    end_best = P[1:] - np.minimum.accumulate(P[:-1])
    start_best = np.maximum.accumulate(P[1:][::-1])[::-1] - P[:-1]
    through = end_best + start_best - s
    B = through > 0.0
    assert np.all(B[E]), "threshold set escaped its maximal hull"
    e_measure = float(E.sum()) / G
    b_measure = float(B.sum()) / G
    c = r * b_measure / e_measure if e_measure > 0 else None
    return LevelSets(
        lam=lam,
        r=r,
        E=E,
        B=B,
        e_measure=e_measure,
        b_measure=b_measure,
        weak_constant=c,
    )


def uncond_experiment(system, p, trials, seed, grid=2048, mode="dense"):
    """Sign-flip norm ratios for random expansions, reported as max/min/q95.

    Expansions run over every function of the built system.  Per trial: a
    unit coefficient vector a and a sign vector eps are drawn from per-trial
    streams, and R = ||sum eps_n a_n f_n||_p / ||f||_p is computed on the
    exact piecewise-polynomial representations (quadrature per knot
    interval, not on the sample grid).  Square-function ratios
    ||Sf||_p / ||f||_p come from the cell grid.
    """
    if not 1.0 < p < math.inf:
        raise DomainError(f"p={p} outside (1, inf)")
    if trials < 1:
        raise DomainError(f"trials={trials} must be at least 1")
    k = system.order
    size = system.size
    F = system.matrix
    part = system.gram.partition

    rule = bspline.QuadratureRule.for_partition(part, k + 6)
    xq = rule.flat_nodes
    wq = rule.flat_weights
    Bq = bspline.basis_matrix(part, xq)
    A = np.empty((trials, size))
    S = np.empty((trials, size))
    for t in range(trials):
        A[t] = random_coeffs(seed, t, size, mode)
        S[t] = random_signs(seed, t, size)
    vals = Bq @ (F.T @ A.T)
    flip_vals = Bq @ (F.T @ (A * S).T)
    norm_f = (wq @ np.abs(vals) ** p) ** (1.0 / p)
    norm_flip = (wq @ np.abs(flip_vals) ** p) ** (1.0 / p)
    R = norm_flip / norm_f

    G = _grid_size(system, grid)
    xs = (np.arange(G) + 0.5) / G
    T = system.value_matrix(xs)
    sq = np.sqrt(A**2 @ T**2)
    norm_sq = (sq**p).mean(axis=1) ** (1.0 / p)
    sq_ratio = norm_sq / norm_f
    return {
        "k": k,
        "p": p,
        "N": system.N,
        "trials": trials,
        "seed": seed,
        "ratio_max": float(R.max()),
        "ratio_min": float(R.min()),
        "ratio_q95": float(np.quantile(R, 0.95)),
        "sq_ratio_max": float(sq_ratio.max()),
        "sq_ratio_min": float(sq_ratio.min()),
        "grid": G,
    }


def tail_decay_audit(system, p, gamma_fit):
    """Largest tail norm of any phi_n against its geometric envelope.

    For every function and every knot value x of its level partition outside
    the characteristic interval J, the envelope is
    gamma^d(x) |J|^(1/2) / (|J| + dist(x, J))^(1 - 1/p) and the audited
    quantity is the L^p norm of phi on the far side of x.  Reports the
    maximum ratio over all (n, x).  Each ratio is formed from logarithms,
    since gamma^d underflows on deep tails; a zero tail has ratio 0, and a
    maximum past the float range is reported as inf.
    """
    if not 0.0 < gamma_fit < 1.0:
        raise DomainError(f"gamma_fit={gamma_fit} outside (0, 1)")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p={p} outside [1, inf)")
    k = system.order
    rule = bspline.QuadratureRule.for_partition(system.gram.partition, k + 6)
    xq = rule.flat_nodes
    q = rule.q
    vals = system.value_matrix(xq)
    n_spans = len(rule.intervals)
    pieces = np.einsum(
        "nsq,sq->ns",
        np.abs(vals.reshape(system.size, n_spans, q)) ** p,
        rule.weights,
    )
    left = np.concatenate([np.zeros((system.size, 1)), np.cumsum(pieces, axis=1)], axis=1)
    total = left[:, -1]
    rights = rule.intervals[:, 1]

    log_gamma = math.log(gamma_fit)
    max_log = -math.inf
    count = 0
    for n in range(2, system.N + 1):
        fn = system.function(n)
        row = system.row_of_level(n)
        c, d = fn.char.J
        level_knots = fn.phi.partition.knots
        values = np.unique(level_knots)
        for x in values:
            if c < x < d:
                continue
            if x <= c:
                cut = int(np.searchsorted(rights, x, side="right"))
                tail_p = left[row, cut]
                dist = c - x
            else:
                cut = int(np.searchsorted(rights, x, side="right"))
                tail_p = total[row] - left[row, cut]
                dist = x - d
            dn = charint.d_point(level_knots, fn.char.J, x)
            if tail_p > 0.0:
                log_envelope = (
                    dn * log_gamma
                    + 0.5 * math.log(d - c)
                    - (1.0 - 1.0 / p) * math.log(d - c + dist)
                )
                max_log = max(max_log, math.log(tail_p) / p - log_envelope)
            count += 1
    max_ratio = math.exp(max_log) if max_log <= _LOG_FLOAT_MAX else math.inf
    return {"k": k, "p": p, "N": system.N, "gamma": gamma_fit, "max_ratio": max_ratio, "tails": count}
