"""Characteristic intervals, knot-count distances, and the census of intervals.

Each inserted knot gets a characteristic interval: among the k + 1 B-spline
supports touching the insertion index, keep those of near-minimal length,
pick the one with the largest associated coefficient magnitude, and inside it
keep the longest single knot span.  The orthogonal function of that level
carries a fixed fraction of its norm there.  Distances to it are counts of
level-N knots, by the level at which each arrives.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .knots import distinct

# Relative tolerance when grouping near-equal coefficient magnitudes.
TIE_REL_TOL = 1e-12


def characteristic_intervals(t, alpha, i0):
    """Select the characteristic interval of each of a stack of insertions, in array passes.

    Row b of ``t`` holds the knots tau_{i0-k}..tau_{i0+k} (1-based) around
    the insertion at index i0[b] of its level, and ``alpha`` its k + 1
    insertion coefficients.  Steps: candidates j = i0-k..i0; keep those
    whose support length is at most twice the minimum (near-minimal); among
    them take the largest |alpha_j| (relative ties within TIE_REL_TOL
    grouped, smallest index wins); inside the winner's support return the
    longest knot span, leftmost on ties.  Returns (j0, J): the selected
    index of each row, and J, (rows, 2), the ends of the longest knot span
    of the support [tau_j0, tau_{j0+k}].
    """
    k = alpha.shape[-1] - 1
    rows = np.arange(len(t))[:, None]
    # Candidate m (j = i0-k+m) has support [t[m], t[m+k]].
    lengths = t[:, k:] - t[:, : k + 1]
    lam0 = lengths <= 2.0 * lengths.min(axis=1, keepdims=True)
    mags = np.abs(alpha)
    amax = np.where(lam0, mags, -np.inf).max(axis=1, keepdims=True)
    m = np.argmax(lam0 & (mags >= amax * (1.0 - TIE_REL_TOL)), axis=1)[:, None]
    spans = m + np.arange(k)
    a = np.argmax(t[rows, spans + 1] - t[rows, spans], axis=1)[:, None]
    return np.asarray(i0) - k + m[:, 0], np.hstack([t[rows, m + a], t[rows, m + a + 1]])


def knot_distances(system, block):
    """(keep, d): each level's knot values at or outside its J, and their knot-count distances d to J.

    ``block`` is one of the system's ``ortho.KnotBlock`` records.  Both
    arrays are (levels, R), a column per distinct level-N knot value x.  A
    level's knots are the level-N ones arrived by then: the boundary knots
    at level 1, t_n at level n at its ``positions``.  ``keep`` marks each
    level's knot values with x <= c or x >= d, J = (c, d); d counts the
    level's knots with multiplicity strictly between x and the nearer end
    of J, plus that end once, and is 0 at c and d.  One cumulative count of
    the arrived knots gives the level's knots below and up to each x: x is
    a knot of the level when the two differ, and d is (below c) - (up to
    x) + 1 for x < c and (below x) - (up to d) + 1 for x > d.
    """
    finest = system.gram.partition.knots
    arrives = np.ones(len(finest), dtype=np.intp)  # 1 for the boundary knots
    arrives[system.positions] = np.arange(2, system.N + 1)
    levels = np.arange(block.first, block.first + len(block.J))[:, None]
    count = np.zeros((len(levels), len(finest) + 1), dtype=np.intp)  # column i: the level's knots below i
    np.cumsum(arrives <= levels, axis=1, out=count[:, 1:])
    x = distinct(finest)
    below = count[:, np.searchsorted(finest, x, "left")]
    upto = count[:, np.searchsorted(finest, x, "right")]
    c, d = block.J[:, :1], block.J[:, 1:]
    below_c = np.take_along_axis(count, np.searchsorted(finest, c, "left"), axis=1)
    upto_d = np.take_along_axis(count, np.searchsorted(finest, d, "right"), axis=1)
    dist = np.where(x < c, below_c - upto + 1, np.where(x > d, below - upto_d + 1, 0))
    return (upto > below) & ((x <= c) | (x >= d)), dist


def census_max(points, J, beta):
    """Max census count over every knot-value window, with its argmax window.

    ``points`` are the sequence's points t_0..t_N, and row n - 2 of J,
    (N - 1, 2), holds the characteristic interval J_n: the census needs
    the knots alone.  A window [x, y] with both ends values of the points
    counts level n when J_n lies inside it and |J_n| >= (1 - beta) (y - x).
    Enumerates, per level, only the windows that can count it: containment
    plus the length floor cap the window width at |J_n| / (1 - beta).  The
    counts are kept in one dict keyed by window, which sets the census's
    time and memory.

    The maximum never decreases as N grows: every J_n persists and the set
    of windows only gains knots.  It is bounded by a constant depending only
    on k and beta; the proof sketch is in tests/test_acceptance.py,
    criterion 7.
    """
    if not 0.0 <= beta <= 0.5:
        raise DomainError(f"beta={beta} outside [0, 1/2]")
    values = distinct(np.sort(points))
    counts = {}
    for c, d in J.tolist():
        width = d - c
        cap = width / (1.0 - beta)
        xlo = int(np.searchsorted(values, d - cap, "left"))
        while xlo > 0 and width >= (1.0 - beta) * (d - values[xlo - 1]):
            xlo -= 1
        xhi = int(np.searchsorted(values, c, "right"))  # one past the last x <= c
        ystart = int(np.searchsorted(values, d, "left"))
        for xi in range(xlo, xhi):
            xv = values[xi]
            for yi in range(ystart, len(values)):
                if width < (1.0 - beta) * (values[yi] - xv):
                    break
                counts[(xi, yi)] = counts.get((xi, yi), 0) + 1
    if not counts:
        return 0, None
    # values is sorted, so index pairs order windows as their end points do.
    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[1], [float(values[i]) for i in best[0]]
