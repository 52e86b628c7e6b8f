"""Experiments on the orthonormal system: square function, level sets, sign flips, tails.

Everything here sits on top of a built OrthoSystem, evaluated a block of
points at a time: the square function on a uniform cell grid
(``bspline.eval_blocks``), threshold level sets of it, the sign-flip
unconditionality experiment, and the tail-decay audit, whose quadrature
nodes are evaluated on their own spans (``bspline.rule_blocks``).

The grid model: [0, 1] is split into G half-open cells [i/G, (i+1)/G), each
represented by its center sample.  Interval averages and set measures are
exact for the cell model; against the continuum they carry an O(1/G)
discretization gap, which callers quantify by refining G.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bspline, charint, knots
from .errors import DomainError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LevelSets:
    """Cell unions for a square-function threshold and its maximal hull."""

    E: np.ndarray
    B: np.ndarray
    e_measure: float
    b_measure: float
    weak_constant: object


def random_coeffs(seed, trial, size):
    """Unit-norm coefficient draw for one trial, reproducible by stream.

    Streams are keyed by (seed, trial, 0) so that a shorter draw is a prefix
    of a longer one from the same key, which is what lets experiments at two
    truncation levels share their randomness.
    """
    rng = np.random.default_rng((seed, trial, 0))
    a = rng.standard_normal(size)
    return a / np.linalg.norm(a)


def random_signs(seed, trial, size):
    rng = np.random.default_rng((seed, trial, 1))
    return rng.integers(0, 2, size) * 2.0 - 1.0


def cell_centers(system, G):
    """Centers of the G grid cells; at least 4 cells per finest knot are required."""
    n_knots = len(system.gram.partition.knots)
    if G < 4 * n_knots:
        raise DomainError(f"grid of {G} cells is too coarse for {n_knots} knots")
    return (np.arange(G) + 0.5) / G


def square_function(system, coeffs, xs):
    """(sum_n c_n^2 f_n(x)^2)^(1/2) at each point, over the first coeffs.shape[-1] functions.

    Leading axes of ``coeffs``, one row per expansion, are carried.
    """
    F = system.matrix[: coeffs.shape[-1]]
    weights = coeffs**2
    out = np.empty(coeffs.shape[:-1] + (len(xs),))
    for lo, first, vals in bspline.eval_blocks(system.gram.partition, xs):
        V = bspline.spline_values(F, first, vals)
        out[..., lo : lo + len(first)] = np.sqrt(weights @ V**2)
    return out


def level_sets(sf, lam, r):
    """Threshold set of a square function and its maximal-average hull.

    ``sf`` holds the square function on the G-cell grid, G = len(sf).  E
    collects the cells where Sf > lam.  B is the cell set where some
    grid-aligned interval through the cell has 1_E-average above r; that is
    decided exactly in O(G) by testing whether the best-sum segment of
    1_E - r through each cell is positive, which is the same predicate.
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


def check_exponents(ps):
    """Raise DomainError unless every p of the sign-flip experiment lies in (1, inf)."""
    for p in ps:
        if not 1.0 < p < math.inf:
            raise DomainError(f"p={p} outside (1, inf)")


def uncond_experiment(system, ps, trials, seed, grid):
    """Sign-flip norm ratios for random expansions, one report per p in ps.

    Expansions run over every function of the built system.  Per trial: a
    unit coefficient vector a and a sign vector eps are drawn from per-trial
    streams, and R = ||sum eps_n a_n f_n||_p / ||f||_p is computed on the
    exact piecewise-polynomial representations (quadrature per knot
    interval, not on the sample grid).  Square-function ratios
    ||Sf||_p / ||f||_p come from the ``grid`` cells.  Nothing but the final
    reductions depends on p, so each block of nodes or cells is evaluated
    once, for the draws and their flips together, and reduced for every p
    before the next one is formed.
    """
    check_exponents(ps)
    if trials < 1:
        raise DomainError(f"trials={trials} must be at least 1")
    k = system.order
    size = system.size
    part = system.gram.partition
    xs = cell_centers(system, grid)

    A = np.array([random_coeffs(seed, t, size) for t in range(trials)])
    S = np.array([random_signs(seed, t, size) for t in range(trials)])
    # Level-N B-spline coefficients of each trial's expansion and of its flip.
    C = np.stack([A, A * S]) @ system.matrix

    rule = bspline.QuadratureRule.over_spans(part.knots, k + 6)
    wq = rule.weights.ravel()
    lp = np.zeros((len(ps), 2, trials))
    for lo, first, vals in bspline.rule_blocks(part, rule):
        mags = np.abs(bspline.spline_values(C, first, vals))
        for i, p in enumerate(ps):
            lp[i] += mags**p @ wq[lo : lo + len(first)]
    sq = np.zeros((len(ps), trials))
    for lo in range(0, grid, bspline.EVAL_BLOCK):
        block = square_function(system, A, xs[lo : lo + bspline.EVAL_BLOCK])
        for i, p in enumerate(ps):
            sq[i] += (block**p).sum(axis=1)

    reports = []
    for p, (f_sums, flip_sums), sq_sums in zip(ps, lp, sq):
        nf = f_sums ** (1.0 / p)
        R = flip_sums ** (1.0 / p) / nf
        sq_ratio = (sq_sums / grid) ** (1.0 / p) / nf
        reports.append(
            {
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
                "grid": len(xs),
            }
        )
    return reports


def span_integrals(system, rule, p):
    """Integral of |f|^p over each span of the rule for every system function, (size, spans).

    The rule is over the finest partition's knots; its nodes are evaluated
    on their own spans, a block of whole spans at a time.
    """
    q, w = rule.q, rule.weights
    pieces = np.empty((system.size, len(rule.intervals)))
    for lo, first, vals in bspline.rule_blocks(system.gram.partition, rule):
        mags = np.abs(bspline.spline_values(system.matrix, first, vals)) ** p
        spans = slice(lo // q, (lo + len(first)) // q)
        pieces[:, spans] = np.einsum("nsq,sq->ns", mags.reshape(len(mags), -1, q), w[spans])
    return pieces


def tail_sums(pieces):
    """(left, right), each (rows, S + 1): the sums of pieces[:, :c] and of pieces[:, c:] at column c.

    Each is summed from its far end inward, so a tail keeps its own digits
    however small it is next to the whole row; a right tail formed as the
    row total less a left sum would carry only the rounding of the total.
    """
    rows, S = pieces.shape
    left = np.zeros((rows, S + 1))
    right = np.zeros((rows, S + 1))
    np.cumsum(pieces, axis=1, out=left[:, 1:])
    np.cumsum(pieces[:, ::-1], axis=1, out=right[:, -2::-1])
    return left, right


def tail_decay_audit(system, p, gamma_fit):
    """Largest tail norm of any phi_n against its geometric envelope.

    For every function and every knot value x of its level partition outside
    the characteristic interval J, the envelope is
    gamma^d(x) |J|^(1/2) / (|J| + dist(x, J))^(1 - 1/p) and the audited
    quantity is the L^p norm of phi on the far side of x.  Reports the
    maximum ratio over all (n, x), scoring each level's knot values in one
    array pass.  Each ratio is formed from logarithms,
    since gamma^d underflows on deep tails; a zero tail has ratio 0, and a
    maximum past the float range is reported as inf.
    """
    if not 0.0 < gamma_fit < 1.0:
        raise DomainError(f"gamma_fit={gamma_fit} outside (0, 1)")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p={p} outside [1, inf)")
    k = system.order
    rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, k + 6)
    left, right = tail_sums(span_integrals(system, rule, p))
    rights = rule.intervals[:, 1]

    log_gamma = math.log(gamma_fit)
    max_log = -math.inf
    count = 0
    for n in range(2, system.N + 1):
        fn = system.function(n)
        row = system.row_of_level(n)
        c, d = fn.char.J
        level_knots = fn.phi.partition.knots
        values = knots.distinct(level_knots)
        xs = values[(values <= c) | (values >= d)]
        count += len(xs)
        below = xs <= c
        cut = np.searchsorted(rights, xs, side="right")
        tail_p = np.where(below, left[row, cut], right[row, cut])
        dist = np.where(below, c - xs, xs - d)
        dn = charint.d_point(level_knots, fn.char.J, xs)
        live = tail_p > 0.0
        log_envelope = (
            dn[live] * log_gamma
            + 0.5 * math.log(d - c)
            - (1.0 - 1.0 / p) * np.log(d - c + dist[live])
        )
        log_ratio = np.log(tail_p[live]) / p - log_envelope
        max_log = float(log_ratio.max(initial=max_log))
    max_ratio = math.exp(max_log) if max_log <= _LOG_FLOAT_MAX else math.inf
    return {"k": k, "p": p, "N": system.N, "gamma": gamma_fit, "max_ratio": max_ratio, "tails": count}
