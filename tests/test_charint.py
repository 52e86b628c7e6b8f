from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import (
    NotAKnot,
    boehm_refine,
    char_multiplicity_census,
    d_interval,
    d_point,
    insert_event,
    level_records,
    monotone_subsequence,
)

from orthosplines import bspline, charint, knots, ortho
from orthosplines.errors import DomainError


def char_for(seq, n):
    """Level n's partition and its characteristic interval, as (j0, J) with J a pair of floats."""
    part = knots.partition_at(seq, n)
    i0 = insert_event(seq, n)
    alpha = ortho.alpha_coefficients(*boehm_refine(part, i0))
    k = seq.order
    window = part.knots[None, i0 - k - 1 : i0 + k]
    j0, J = charint.characteristic_intervals(window, alpha[None], [i0])
    return part, SimpleNamespace(j0=int(j0[0]), J=tuple(J[0].tolist()))


def census(system, beta):
    """census_max of a built system, from its points t_0..t_N and its J_n."""
    J = np.concatenate([block.J for block in system.blocks])
    return charint.census_max(system.seq.points[: system.N + 1], J, beta)


def support(part, char):
    """The support [tau_j0, tau_{j0+k}] of the selected B-spline, from the level's knots."""
    return float(part.knots[char.j0 - 1]), float(part.knots[char.j0 + part.order - 1])


class TestCharacteristicInterval:
    def test_order_two_single_interior(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        part, char = char_for(seq, 2)
        assert char.j0 == 2
        assert support(part, char) == (0.0, 1.0)
        assert char.J == (0.0, 0.5)
        assert part.knots.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_order_one_takes_left_neighbor(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.25, 0.75])
        for n in (2, 3, 4):
            _, char = char_for(seq, n)
            assert char.j0 == insert_event(seq, n) - 1

    def test_span_is_at_least_support_over_order(self):
        for sd, k in [(0, 2), (1, 3), (2, 4), (3, 5)]:
            seq = knots.random_admissible(sd, k, 12)
            for n in range(2, 12):
                part, char = char_for(seq, n)
                lo, hi = support(part, char)
                assert char.J[1] - char.J[0] >= (hi - lo) / k - 1e-15

    def test_span_stays_near_insert(self):
        for sd, k in [(4, 2), (5, 3)]:
            seq = knots.random_admissible(sd, k, 12)
            for n in range(2, 12):
                part, char = char_for(seq, n)
                i0 = insert_event(seq, n)
                lo = part.knots[max(i0 - k, 1) - 1]
                hi = part.knots[min(i0 + k, len(part.knots)) - 1]
                assert lo - 1e-15 <= char.J[0] <= char.J[1] <= hi + 1e-15

    def test_deterministic(self):
        seq = knots.random_admissible(6, 3, 9)
        assert char_for(seq, 8)[1] == char_for(seq, 8)[1]


def quarter():
    """Level-3 knots of (0, 1, 1/4, 1/2) at k = 1 and the interval J = [1/2, 1]."""
    seq = knots.validate_admissible(1, [0, 1, 0.25, 0.5])
    return knots.partition_at(seq, 3).knots, (0.5, 1.0)


class TestDPoint:
    def test_counts_between_and_endpoint(self):
        kn, J = quarter()
        # knots 0.25 and the endpoint 0.5 separate x from J
        assert d_point(kn, J, 0.1) == 2

    def test_zero_inside(self):
        kn, J = quarter()
        assert d_point(kn, J, 0.75) == 0
        assert d_point(kn, J, 0.5) == 0
        assert d_point(kn, J, 1.0) == 0
        # an endpoint of J that is a double knot, as 1 is at k = 2
        assert d_point(np.array([0, 0, 0.5, 1, 1]), J, 1.0) == 0

    def test_monotone_moving_away(self):
        kn, J = quarter()
        xs = [0.4, 0.3, 0.2, 0.1, 0.0]
        ds = [d_point(kn, J, x) for x in xs]
        assert ds == sorted(ds)
        assert ds[0] == 1  # only the endpoint 0.5

    def test_outside_unit_interval(self):
        kn, J = quarter()
        with pytest.raises(DomainError):
            d_point(kn, J, -0.5)
        # one bad point of an array is enough, NaN included
        for bad in (np.nan, 1.5, -1e-300):
            with pytest.raises(DomainError):
                d_point(kn, J, np.array([0.1, 0.75, bad]))

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        for sd, k in [(1, 1), (2, 2), (3, 3), (4, 5)]:
            seq = knots.random_admissible(sd, k, 30, "dyadic-shuffled" if sd % 2 else "uniform-iid")
            for n in (2, 15, 29):
                part, char = char_for(seq, n)
                kn = part.knots
                xs = np.concatenate([np.unique(kn), rng.random(40), list(char.J)])
                expected = [d_point(kn, char.J, float(x)) for x in xs]
                assert np.array_equal(d_point(kn, char.J, xs), expected)
                grid = d_point(kn, char.J, xs[-6:].reshape(2, 3))
                assert grid.shape == (2, 3)
                assert np.array_equal(grid.ravel(), expected[-6:])


class TestDInterval:
    def test_zero_on_overlap(self):
        kn, J = quarter()
        assert d_interval(kn, J, (0.4, 0.6)) == 0
        assert d_interval(kn, J, (0.5, 1.0)) == 0
        assert d_interval(kn, J, (0.0, 0.5)) == 0  # closures touch

    def test_counts_both_facing_endpoints(self):
        kn, J = quarter()
        # between 0.2 and 0.5: knot 0.25, plus the facing endpoint of J;
        # 0.2 itself is not a knot
        assert d_interval(kn, J, (0.0, 0.2)) == 2

    def test_facing_endpoint_that_is_a_knot(self):
        kn, J = quarter()
        # 0.25 is a knot, so both facing endpoints count; nothing in between
        assert d_interval(kn, J, (0.0, 0.25)) == 2

    def test_at_most_point_distance_of_far_end(self):
        kn, J = quarter()
        for a, b in [(0.0, 0.2), (0.0, 0.25), (0.05, 0.3), (0.1, 0.45)]:
            assert d_interval(kn, J, (a, b)) <= d_point(kn, J, a) + 1

    def test_bad_interval(self):
        kn, J = quarter()
        with pytest.raises(DomainError):
            d_interval(kn, J, (0.6, 0.2))


class TestMonotoneSubsequence:
    def test_textbook_example(self):
        assert monotone_subsequence([1, 3, 2, 4]) == 3

    def test_strictly_decreasing(self):
        assert monotone_subsequence(list(range(10, 0, -1))) == 10

    def test_constant_runs_count(self):
        assert monotone_subsequence([2, 2, 2]) == 3

    def test_single_and_empty(self):
        assert monotone_subsequence([7]) == 1
        assert monotone_subsequence([]) == 0

    @seed(3)
    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=26,
        )
    )
    def test_guarantee_at_small_sizes(self, xs):
        # any (m-1)^2 + 1 points contain a monotone run of length m
        L = monotone_subsequence(xs)
        m = int(np.ceil(np.sqrt(len(xs))))
        assert L >= m

    @seed(4)
    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(st.integers(min_value=0, max_value=9), max_size=20))
    def test_oracle_bruteforce(self, xs):
        def brute(seq):
            best = 0
            n = len(seq)
            for mask in range(1, 1 << n):
                sub = [seq[i] for i in range(n) if mask >> i & 1]
                up = all(a <= b for a, b in zip(sub, sub[1:]))
                dn = all(a >= b for a, b in zip(sub, sub[1:]))
                if up or dn:
                    best = max(best, len(sub))
            return best

        if len(xs) <= 12:
            assert monotone_subsequence(xs) == brute(xs)


class TestCensus:
    def test_window_without_spans(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.25, 0.75])
        system = ortho.build_system(seq, 4)
        spans = {rec.J for rec in level_records(system)}
        assert (0.75, 1.0) not in spans
        assert char_multiplicity_census(system, 0.75, 1.0, 0.0) == 0

    def test_beta_zero_needs_exact_match(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        system = ortho.build_system(seq, 2)
        assert level_records(system)[0].J == (0.0, 0.5)
        assert char_multiplicity_census(system, 0.0, 0.5, 0.0) == 1
        assert char_multiplicity_census(system, 0.0, 1.0, 0.0) == 0
        assert char_multiplicity_census(system, 0.0, 1.0, 0.5) == 1

    def test_window_endpoints_must_be_knots(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        system = ortho.build_system(seq, 2)
        with pytest.raises(NotAKnot):
            char_multiplicity_census(system, 0.1, 0.5, 0.0)
        with pytest.raises(DomainError):
            char_multiplicity_census(system, 0.5, 0.5, 0.0)
        with pytest.raises(DomainError):
            char_multiplicity_census(system, 0.0, 0.5, 0.9)

    def test_max_agrees_with_direct_evaluation(self):
        seq = knots.random_admissible(9, 2, 24)
        system = ortho.build_system(seq, 23)
        for beta in (0.0, 0.25):
            count, window = census(system, beta)
            assert window is not None
            x, y = window
            assert char_multiplicity_census(system, x, y, beta) == count
            # exhaustive check over every knot-value window
            values = sorted(set(seq.points))
            best = 0
            for i, xv in enumerate(values):
                for yv in values[i + 1 :]:
                    c = char_multiplicity_census(system, xv, yv, beta)
                    best = max(best, c)
            assert best == count

    def test_census_monotone_in_beta(self):
        seq = knots.random_admissible(15, 3, 20)
        system = ortho.build_system(seq, 19)
        c0, _ = census(system, 0.0)
        c1, _ = census(system, 0.25)
        assert c1 >= c0
