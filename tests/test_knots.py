from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import insert_event, next_partition

from orthosplines import knots
from orthosplines.errors import (
    BadBoundary,
    LevelOutOfRange,
    MalformedSequence,
    MultiplicityExceeded,
    OutOfRange,
)


class TestValidateAdmissible:
    def test_multiplicity_at_order_is_allowed(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.25, 0.5])
        assert seq.order == 2
        assert seq.points == (0.0, 1.0, 0.5, 0.25, 0.5)

    def test_multiplicity_above_order_rejected(self):
        with pytest.raises(MultiplicityExceeded, match="0.5"):
            knots.validate_admissible(1, [0, 1, 0.5, 0.5])

    def test_multiplicity_exactly_order(self):
        seq = knots.validate_admissible(3, [0, 1, 0.3, 0.7, 0.3, 0.9, 0.3])
        assert len(seq.points) == 7

    def test_boundary_pair_required(self):
        with pytest.raises(BadBoundary):
            knots.validate_admissible(2, [0, 0.5, 1])
        with pytest.raises(BadBoundary):
            knots.validate_admissible(2, [])

    def test_interior_range_is_open(self):
        with pytest.raises(OutOfRange):
            knots.validate_admissible(2, [0, 1, 1.5])
        # 0 and 1 may not repeat as interior points either
        with pytest.raises(OutOfRange):
            knots.validate_admissible(2, [0, 1, 0.0])

    def test_no_reordering(self):
        seq = knots.validate_admissible(2, [0, 1, 0.9, 0.1])
        assert seq.points == (0.0, 1.0, 0.9, 0.1)

    def test_roundtrip_through_dict(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.25])
        again = knots.sequence_from_dict(seq.to_dict())
        assert again == seq

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5], 1j])
    def test_points_that_are_not_real_numbers_rejected(self, bad):
        # after floats too, which pass on their type alone
        for points in ([0, 1, bad], [0.0, 1.0, 0.25, bad]):
            with pytest.raises(MalformedSequence, match="^sequence points must be numbers$"):
                knots.validate_admissible(2, points)

    def test_real_numbers_of_any_type_give_the_same_floats(self):
        points = [0.0, 1.0, 0.5, 0.25, 2.0**-1074, 0.75]
        mixed = [0, 1, np.float64(0.5), np.float32(0.25), 2.0**-1074, Fraction(3, 4)]
        for raw in (points, mixed):
            seq = knots.validate_admissible(2, raw)
            assert all(type(p) is float for p in seq.points)
            assert np.array(seq.points).tobytes() == np.array(points).tobytes()


class TestPartitionAt:
    def test_single_interior_order_one(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        assert part.knots.tolist() == [0.0, 0.5, 1.0]
        assert part.M == 2

    def test_boundary_doubled_order_two(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        assert part.knots.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
        assert part.M == 3

    def test_interior_sorted(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.25])
        part = knots.partition_at(seq, 3)
        assert part.knots.tolist() == [0.0, 0.0, 0.25, 0.5, 1.0, 1.0]
        assert part.M == 4

    def test_level_below_two_rejected(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        with pytest.raises(LevelOutOfRange):
            knots.partition_at(seq, 1)

    def test_level_beyond_points_rejected(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        with pytest.raises(LevelOutOfRange):
            knots.partition_at(seq, 3)


class TestInsertEvent:
    def test_single_interior(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        assert insert_event(seq, 2) == 3

    def test_insert_before_existing(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.25])
        assert insert_event(seq, 3) == 3

    def test_insert_after_existing(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.75])
        assert insert_event(seq, 3) == 3

    def test_duplicate_takes_last_copy(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5, 0.5])
        i0 = insert_event(seq, 3)
        part = knots.partition_at(seq, 3)
        # knots (0,0,0.5,0.5,1,1): the new copy is the later index 4
        assert i0 == 4
        assert part.knots[i0 - 1] == 0.5

    def test_index_within_bounds(self):
        seq = knots.random_admissible(5, 3, 12)
        for n in range(2, 12):
            part = knots.partition_at(seq, n)
            i0 = insert_event(seq, n)
            assert seq.order + 1 <= i0 <= part.M
            assert part.knots[i0 - 1] == seq.points[n]

    def test_next_partition_grows_the_level(self):
        # full multiplicity: every equal block is filled to k copies
        seq = knots.validate_admissible(3, [0, 1] + [0.5, 0.25, 0.5, 0.75, 0.25, 0.5, 0.25])
        part = knots.boundary_partition(3)
        for n in range(2, len(seq.points)):
            part, i0 = next_partition(seq, part)
            assert part == knots.partition_at(seq, n)
            assert i0 == insert_event(seq, n)
        with pytest.raises(LevelOutOfRange):
            next_partition(seq, part)

    def test_removal_recovers_previous_level(self):
        seq = knots.random_admissible(9, 2, 10)
        for n in range(3, 10):
            fine = knots.partition_at(seq, n)
            coarse = knots.partition_at(seq, n - 1)
            i0 = insert_event(seq, n)
            trimmed = np.delete(fine.knots, i0 - 1)
            assert np.array_equal(trimmed, coarse.knots)


class TestRandomAdmissible:
    def test_deterministic(self):
        a = knots.random_admissible(7, 2, 10)
        b = knots.random_admissible(7, 2, 10)
        assert a == b

    def test_two_points_is_boundary_only(self):
        for law in knots.LAWS:
            seq = knots.random_admissible(123, 2, 2, law)
            assert seq.points == (0.0, 1.0)

    def test_dyadic_prefix(self):
        # level by level: {1/2}, then {1/4, 3/4}, then the eighths
        seq = knots.random_admissible(3, 2, 6, "dyadic-shuffled")
        interior = set(seq.points[2:])
        assert {0.5, 0.25, 0.75} <= interior
        assert interior <= {0.5, 0.25, 0.75, 0.125, 0.375}

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            knots.random_admissible(0, 2, 5, "bogus")

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(
        sd=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=40),
        law=st.sampled_from(knots.LAWS),
    )
    def test_draws_validate(self, sd, k, n, law):
        seq = knots.random_admissible(sd, k, n, law)
        assert knots.validate_admissible(k, list(seq.points)) == seq
        assert len(seq.points) == n


def test_boundary_partition_is_polynomial_space():
    part = knots.boundary_partition(3)
    assert part.knots.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert part.M == 3
    assert part.level == 1


def test_partition_nesting_is_monotone():
    seq = knots.random_admissible(21, 3, 15)
    for n in range(3, 15):
        fine = sorted(knots.partition_at(seq, n).knots.tolist())
        coarse = sorted(knots.partition_at(seq, n - 1).knots.tolist())
        for value in set(coarse):
            assert fine.count(value) >= coarse.count(value)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_distinct_is_unique_on_sorted_knots(k):
    # boundary blocks of k copies, interior knots of full multiplicity k,
    # one-ulp neighbours and signed zeros: np.unique's values, bit for bit
    near = float(np.nextafter(1.0, 0.0))
    points = [0.0, 1.0] + [x for x in (0.5, 0.25, near, 0.75) for _ in range(k)] + [0.125]
    part = knots.partition_at(knots.validate_admissible(k, points), len(points) - 1)
    for values in (part.knots, np.array([-0.0, 0.0, 0.0, 1.0]), np.array([0.5]), np.array([])):
        got = knots.distinct(values)
        assert got.tobytes() == np.unique(values).tobytes()
