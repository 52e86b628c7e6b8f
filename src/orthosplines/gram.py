"""Structural and quantitative checks of the Gram inverse.

The inverse of the banded B-spline Gram matrix has two traits that
``verify`` checks: its sign pattern is a checkerboard, and its entries decay
geometrically away from the diagonal once weighted by the local knot gap.
Each check reads the inverse one diagonal at a time from the Gram system's
Cholesky factor (``GramSystem.inverse_diagonals``), which stops where the
rest of the inverse is exactly zero, so no dense M x M array is formed and
no entry past the stop is read; the checkerboard tolerance reads the
diagonal from the band of the inverse alone.
The sign check can feed each diagonal to an ``OffsetMaxima`` as well, so
that ``verify`` reads the inverse once for both the signs and the decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit

# Offsets whose weighted envelope sits below this times the diagonal value
# are machine noise and excluded from the decay fit.
NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a sign-pattern check with the first offending entry."""

    passed: bool
    first_violation: tuple | None


@dataclass(frozen=True)
class DecayProfile:
    """Fitted geometric envelope |b_ij| gap_ij <= C gamma^|i-j|.

    ``residual`` is the max log-excess of the weighted entries over the
    envelope across the fitted offsets; the constant is inflated until it is
    nonpositive.  gamma_hat = 0 encodes an exactly diagonal inverse.
    """

    gamma_hat: float
    C_hat: float
    residual: float
    M: int
    k: int

    def to_dict(self):
        return {
            "gamma": self.gamma_hat,
            "C": self.C_hat,
            "residual": self.residual,
            "M": self.M,
            "k": self.k,
        }


def checkerboard_check(G, maxima=None):
    """Verify (-1)^(i+j) b_ij >= -tol over the whole inverse.

    tol is 1e-12 times the largest finite b_ii, which is the largest inverse
    magnitude since |b_ij| <= sqrt(b_ii b_jj) for an SPD inverse; it is a margin
    for entries that are exact zeros in exact arithmetic.  An entry fails
    unless the inequality holds, so a NaN fails.  B is symmetric, so only
    the entries on and below the diagonal are scanned.  Returns the
    lexicographically smallest failing (min(i, j), max(i, j)), 1-based,
    which is the row-major first violation of B, when the pattern fails.
    An ``OffsetMaxima`` given as ``maxima`` is fed each diagonal of the
    same walk, so that both checks read the inverse once.
    """
    diagonal = G.inverse_diagonal
    tol = 1e-12 * float(np.max(diagonal[np.isfinite(diagonal)], initial=0.0))
    first = None
    for d, b in G.inverse_diagonals():
        # Entry j of diagonal d is b_ij at i = j + d, so (-1)^(i+j) = (-1)^d,
        # and the diagonal passes when its extreme does; a NaN fails both.
        even = d % 2 == 0
        if not (np.minimum.reduce(b) >= -tol if even else np.maximum.reduce(b) <= tol):
            j = int(np.argmin(b >= -tol if even else b <= tol))
            # Diagonals come in increasing d, so only a smaller column
            # replaces the first failure.
            if first is None or j + 1 < first[0]:
                first = (j + 1, j + d + 1)
        if maxima is not None:
            maxima.add(d, b)
    return CheckResult(passed=first is None, first_violation=first)


class OffsetMaxima:
    """raw[d] and m[d], the max of |b_ij| and of |b_ij| (tau_{i+k} - tau_j) over i - j = d, a diagonal at a time.

    Diagonal d holds b_{j+d, j} at j, whose gap weight is
    tau_{j+d+k} - tau_j, so each maximum is one pass over one diagonal.
    A max is exact and each product is the one the entry's own formula
    forms, so the maxima do not depend on how the entries are grouped.
    Offsets the walk stops before are exact zeros and keep raw = m = 0.
    """

    def __init__(self, G):
        part = G.partition
        self.k, self.M = part.order, part.M
        self.knots = part.knots
        self.raw = np.zeros(self.M)
        self.m = np.zeros(self.M)

    def add(self, d, b):
        """Fold in one diagonal (d, b_d) of ``GramSystem.inverse_diagonals``."""
        n, at = len(b), d + self.k
        mags = np.abs(b)
        self.raw[d] = np.maximum.reduce(mags)
        weighted = self.knots[at : at + n] - self.knots[:n]
        weighted *= mags
        self.m[d] = np.maximum.reduce(weighted)


def offset_maxima(G):
    """(raw, m) of ``OffsetMaxima`` over every diagonal of the inverse."""
    maxima = OffsetMaxima(G)
    for d, b in G.inverse_diagonals():
        maxima.add(d, b)
    return maxima.raw, maxima.m


def decay_profile(G, maxima=None):
    """Fit the geometric decay of the gap-weighted Gram inverse.

    m_d is the max of |b_ij| (tau_{i+k} - tau_j) over i - j = d, read from
    the lower triangle since B is symmetric.  Offsets below the noise floor
    are dropped.  The rate gamma_hat is the least-squares slope of the raw
    |b_ij| maxima per offset: the gap weight grows with d (by roughly d knot
    spacings), so fitting the weighted envelope directly would overshoot the
    geometric rate.  C_hat is then inflated until C_hat gamma_hat^d dominates
    every fitted m_d.  Two offsets fix the line exactly (a 2 x 2 block
    diagonal inverse, as at k = 2 with every interior knot twice); a
    non-finite inverse leaves none and raises DegenerateFit.  ``maxima``, an
    ``OffsetMaxima`` already fed every diagonal, spares a walk of the inverse.
    """
    raw, m = offset_maxima(G) if maxima is None else (maxima.raw, maxima.m)
    M, k = G.partition.M, G.partition.order
    keep = np.flatnonzero(m > NOISE_FLOOR * m[0])
    if len(keep) == 1 and keep[0] == 0:
        # Diagonal to machine precision; decay faster than any geometric rate.
        return DecayProfile(gamma_hat=0.0, C_hat=float(m[0]), residual=0.0, M=M, k=k)
    if len(keep) < 2:
        raise DegenerateFit(f"only {len(keep)} usable offsets, need at least 2")
    ds = keep.astype(float)
    ys = np.log(m[keep])
    slope, intercept = np.polyfit(ds, np.log(raw[keep]), 1)
    log_c = float(np.max(ys - slope * ds))
    residual = float(np.max(ys - (log_c + slope * ds)))
    return DecayProfile(
        gamma_hat=float(math.exp(slope)),
        C_hat=float(math.exp(log_c)),
        residual=residual,
        M=M,
        k=k,
    )
