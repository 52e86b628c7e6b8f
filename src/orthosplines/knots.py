"""Admissible knot sequences on [0, 1] and the nested partitions they generate.

A sequence t_0 = 0, t_1 = 1, t_2, t_3, ... with every interior value repeated at
most ``order`` times is admissible.  Consuming the first n + 1 points yields the
level-n partition: the boundary points with multiplicity ``order`` plus the
interior points t_2..t_n, sorted.  Knot indices are 1-based throughout the
public API, matching the usual tau_1 <= ... <= tau_{n+2k-1} numbering.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBoundary,
    LevelOutOfRange,
    MalformedSequence,
    MultiplicityExceeded,
    OutOfRange,
)

LAWS = ("uniform-iid", "dyadic-shuffled")


@dataclass(frozen=True)
class KnotSequence:
    """A validated admissible point sequence with its spline order."""

    order: int
    points: tuple

    def __len__(self):
        return len(self.points)

    def to_dict(self):
        return {"k": self.order, "points": list(self.points)}


@dataclass(frozen=True, eq=False)
class Partition:
    """Extended knot vector of one level: boundary multiplicity k, sorted interior.

    ``knots`` holds tau_1..tau_{n+2k-1} in a read-only array, so tau_i is
    ``knots[i - 1]``.  M = n + k - 1 is the number of order-k B-splines.
    """

    order: int
    knots: np.ndarray
    level: int
    M: int

    def __post_init__(self):
        self.knots.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.order == other.order
            and self.level == other.level
            and np.array_equal(self.knots, other.knots)
        )


def validate_admissible(order, raw_points):
    """Check multiplicity and range constraints and wrap the sequence.

    Parameters
    ----------
    order : int
        Spline order k >= 1.
    raw_points : sequence of float
        t_0, t_1, t_2, ... with t_0 = 0 and t_1 = 1 exactly.

    Returns
    -------
    KnotSequence

    Raises
    ------
    MalformedSequence
        If a point is not a real number (a bool is not one).
    BadBoundary
        If the sequence does not begin with 0, 1.
    OutOfRange
        If an interior point is outside the open interval (0, 1).
    MultiplicityExceeded
        If some interior value occurs more than ``order`` times.
    """
    _check_order(order)
    # A float passes on its type alone, before the far slower numbers.Real check.
    if not all(
        type(p) is float or (isinstance(p, numbers.Real) and not isinstance(p, bool)) for p in raw_points
    ):
        raise MalformedSequence("sequence points must be numbers")
    pts = [float(p) for p in raw_points]
    if len(pts) < 2:
        raise BadBoundary("sequence needs at least the boundary pair 0, 1")
    if pts[0] != 0.0 or pts[1] != 1.0:
        raise BadBoundary(f"sequence must start with 0, 1; got {pts[0]}, {pts[1]}")
    counts = Counter()
    for idx, p in enumerate(pts[2:], start=2):
        if not 0.0 < p < 1.0:
            raise OutOfRange(idx, f"point {p} at index {idx} not in the open interval (0, 1)")
        counts[p] += 1
        if counts[p] > order:
            raise MultiplicityExceeded(p)
    return KnotSequence(order=int(order), points=tuple(pts))


def sequence_from_dict(obj):
    """Rebuild a validated sequence from its {"k", "points"} form, or raise MalformedSequence."""
    if not (isinstance(obj, dict) and "k" in obj and isinstance(obj.get("points"), list)):
        raise MalformedSequence('a sequence is {"k": order, "points": [numbers]}')
    return validate_admissible(obj["k"], obj["points"])


def distinct(values):
    """The values of a sorted array with repeats dropped, as ``np.unique`` gives them, without its sort."""
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def boundary_partition(order):
    """The level-1 partition: boundary knots only, spanning the order-k polynomials."""
    knots = np.concatenate([np.zeros(order), np.ones(order)])
    return Partition(order=order, knots=knots, level=1, M=order)


def partition_at(seq, n):
    """Sorted level-n knot vector with boundary multiplicity k.

    Requires n >= 2 and at least n + 1 sequence points.
    """
    check_level(seq, n)
    k = seq.order
    interior = np.sort(np.asarray(seq.points[2 : n + 1], dtype=float))
    knots = np.concatenate([np.zeros(k), interior, np.ones(k)])
    return Partition(order=k, knots=knots, level=n, M=n + k - 1)


def random_admissible(seed, order, n_points, law="uniform-iid"):
    """Deterministic random admissible sequence of ``n_points`` total points.

    ``uniform-iid`` draws interior points independently uniformly, rejecting
    any draw that would push a value past multiplicity ``order``.
    ``dyadic-shuffled`` emits the dyadic rationals level by level, each level
    in seeded random order.
    """
    # Before the draw: no value can be accepted at order 0, so it would never end.
    _check_order(order)
    if law not in LAWS:
        raise ValueError(f"law must be one of {LAWS}, got {law!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    rng = np.random.default_rng(seed)
    n_interior = n_points - 2
    if law == "uniform-iid":
        counts = Counter()
        interior = []
        while len(interior) < n_interior:
            x = float(rng.random())
            if x == 0.0 or counts[x] >= order:
                continue
            counts[x] += 1
            interior.append(x)
    else:
        interior = []
        level = 1
        while len(interior) < n_interior:
            vals = [(2 * i - 1) / 2.0**level for i in range(1, 2 ** (level - 1) + 1)]
            order_ix = rng.permutation(len(vals))
            interior.extend(vals[i] for i in order_ix)
            level += 1
        interior = interior[:n_interior]
    return validate_admissible(order, [0.0, 1.0] + interior)


def _check_order(order):
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")


def check_depth(N):
    """A system has levels 2..N, so N must be at least 2; a command's --n is this N."""
    if N < 2:
        raise LevelOutOfRange(f"N must be at least 2, got {N}")


def check_level(seq, n):
    """Level n needs n >= 2 (``check_depth``) and the n + 1 points t_0..t_n."""
    check_depth(n)
    if n > len(seq.points) - 1:
        raise LevelOutOfRange(
            f"level {n} needs {n + 1} points, sequence has {len(seq.points)}"
        )
