"""Structural and quantitative checks of the Gram inverse.

The inverse of the banded B-spline Gram matrix has three verifiable traits:
its sign pattern is a checkerboard, each diagonal entry dominates the
reciprocal of the matching Gram diagonal, and its entries decay
geometrically away from the diagonal once weighted by the local knot gap.
Each check reads the inverse a block of columns at a time through the Gram
system's banded solves, so no dense M x M array is formed.
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
    tol: float


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


def _inverse_diagonal(G):
    """b_ii for every i, read block by block."""
    # Copy each diagonal: a view would keep its whole block alive.
    return np.concatenate(
        [np.diagonal(cols, -start).copy() for start, cols in G.inverse_columns()]
    )


def checkerboard_check(G):
    """Verify (-1)^(i+j) b_ij >= -tol over the whole inverse.

    tol is 1e-12 times the largest b_ii, which is the largest inverse
    magnitude since |b_ij| <= sqrt(b_ii b_jj) for an SPD inverse; it is slack
    for entries that are exact zeros in exact arithmetic.  Returns the first
    violating (i, j) in row-major order, 1-based, when the pattern fails.
    """
    tol = 1e-12 * float(_inverse_diagonal(G).max())
    first = None
    for start, cols in G.inverse_columns():
        alt = (-1.0) ** np.arange(cols.shape[0])
        signed = cols * alt[:, None]
        signed *= alt[start : start + cols.shape[1]]
        bad = np.argwhere(signed < -tol)
        if len(bad):
            # argwhere is row-major, so bad[0] is this block's first violation.
            hit = (int(bad[0][0]) + 1, start + int(bad[0][1]) + 1)
            first = hit if first is None else min(first, hit)
    return CheckResult(passed=first is None, first_violation=first, tol=tol)


def diag_inverse_bound(G):
    """Max over i of 1 / (a_ii b_ii); at most 1 when b_ii >= 1 / a_ii holds."""
    a_diag = G.band[G.partition.order - 1]
    return float(np.max(1.0 / (a_diag * _inverse_diagonal(G))))


def decay_profile(G):
    """Fit the geometric decay of the gap-weighted Gram inverse.

    m_d is the max of |b_ij| (tau_{i+k} - tau_j) over i - j = d, read from
    the lower triangle since B is symmetric.  Offsets below the noise floor
    are dropped.  The rate gamma_hat is the least-squares slope of the raw
    |b_ij| maxima per offset: the gap weight grows with d (by roughly d knot
    spacings), so fitting the weighted envelope directly would overshoot the
    geometric rate.  C_hat is then inflated until C_hat gamma_hat^d dominates
    every fitted m_d.
    """
    part = G.partition
    k, M = part.order, part.M
    knots = part.knots
    raw = np.zeros(M)
    m = np.zeros(M)
    for start, cols in G.inverse_columns():
        for c in range(cols.shape[1]):
            j = start + c
            b = np.abs(cols[j:, c])
            np.maximum(raw[: M - j], b, out=raw[: M - j])
            np.maximum(m[: M - j], b * (knots[j + k : M + k] - knots[j]), out=m[: M - j])
    keep = np.flatnonzero(m > NOISE_FLOOR * m[0])
    if len(keep) == 1 and keep[0] == 0:
        # Diagonal to machine precision; decay faster than any geometric rate.
        return DecayProfile(gamma_hat=0.0, C_hat=float(m[0]), residual=0.0, M=M, k=k)
    if len(keep) < 3:
        raise DegenerateFit(f"only {len(keep)} usable offsets, need at least 3")
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
