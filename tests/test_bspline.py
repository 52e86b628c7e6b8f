import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import (
    IndexOutOfRange,
    Spline,
    boehm_refine,
    deboor_stability_ratio,
    dense,
    design_matrix,
    eval_basis,
    insert_event,
    lp_norm,
    prolong,
    recurrence_inverse,
    refinement_matrix,
    rule_nodes,
    streamed_inverse,
    sup_norm,
    value_matrix,
    wide_sequence,
)

from orthosplines import bspline, knots, ortho
from orthosplines.errors import (
    DomainError,
    NotPositiveDefinite,
    QuadratureTooCoarse,
)


def part(k, points, n=None):
    seq = knots.validate_admissible(k, points)
    return knots.partition_at(seq, n if n is not None else len(points) - 1)


class TestEvalBasis:
    def test_order_one_indicator(self):
        p = part(1, [0, 1, 0.5])
        first, vals = eval_basis(p, 0.25)
        assert first == 1
        assert vals.tolist() == [1.0]

    def test_hat_peak_at_knot(self):
        p = part(2, [0, 1, 0.5])
        first, vals = eval_basis(p, 0.5)
        full = np.zeros(p.M)
        full[first - 1 : first - 1 + len(vals)] = vals
        assert full[1] == pytest.approx(1.0, abs=1e-15)
        assert abs(full).sum() == pytest.approx(1.0, abs=1e-15)

    def test_hat_midpoint_split(self):
        p = part(2, [0, 1, 0.5])
        first, vals = eval_basis(p, 0.75)
        full = np.zeros(p.M)
        full[first - 1 : first - 1 + len(vals)] = vals
        assert full[1] == pytest.approx(0.5, abs=1e-15)
        assert full[2] == pytest.approx(0.5, abs=1e-15)

    def test_right_endpoint_last_spline(self):
        p = part(3, [0, 1, 0.5])
        first, vals = eval_basis(p, 1.0)
        assert first + len(vals) - 1 == p.M
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)

    def test_outside_domain_rejected(self):
        p = part(1, [0, 1, 0.5])
        for x in (-0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                bspline.eval_basis_many(p, [0.5, x])

    @seed(2)
    @settings(max_examples=60, deadline=None)
    @given(
        sd=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=1, max_value=5),
        x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_partition_of_unity(self, sd, k, x):
        seq = knots.random_admissible(sd, k, 9)
        p = knots.partition_at(seq, 8)
        _, vals = eval_basis(p, x)
        assert np.all(vals >= -1e-14)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_many_matches_scalar(self):
        p = part(3, [0, 1, 0.5, 0.25, 0.7])
        xs = np.linspace(0, 1, 101)
        B = design_matrix(p, xs)
        for i, x in enumerate(xs):
            first, vals = eval_basis(p, x)
            row = np.zeros(p.M)
            row[first - 1 : first - 1 + len(vals)] = vals
            assert np.allclose(B[i], row, atol=1e-15)


class TestSplineValues:
    @pytest.mark.parametrize("law", knots.LAWS + ("near-one", "full-multiplicity"))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_the_dense_product(self, k, law):
        # every system function at once, within 8 ulps of each row's largest value
        rng = np.random.default_rng(k)
        if law == "near-one":
            head = [1.0 - 2.0**-j for j in range(1, 31)]
            seq = knots.validate_admissible(k, [0.0, 1.0] + head + rng.random(10).tolist())
        elif law == "full-multiplicity":
            points = [0.0, 1.0] + [0.375] * k + rng.random(40 - k).tolist()
            seq = knots.validate_admissible(k, points)
        else:
            seq = knots.random_admissible(k, k, 41, law)
        system = ortho.build_system(seq, 40)
        part = system.gram.partition
        xs = np.concatenate([[0.0, 1.0], np.unique(part.knots), rng.random(200)])
        first, vals = bspline.eval_basis_many(part, xs)
        got = bspline.spline_values(system.matrix, first, vals)
        want = value_matrix(system, xs)
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)
        # at a rule's nodes, gathered span by span, the values are those of
        # spline_values with each span's start repeated for its nodes, bit for bit
        rule = bspline.QuadratureRule.over_spans(part.knots, k + 6)
        for _, start, at_nodes in bspline.rule_blocks(part, rule):
            _, q, S = at_nodes.shape
            flat = bspline.spline_values(system.matrix, np.tile(start + 1, q), at_nodes.reshape(k, -1).T)
            assert np.array_equal(bspline.node_values(system.matrix, start, at_nodes), flat.reshape(-1, q, S))
        # leading axes are carried, and each slice is the same contraction
        both = bspline.spline_values(np.stack([system.matrix, -system.matrix]), first, vals)
        assert np.array_equal(both, np.stack([got, -got]))

    def test_blocks_cover_the_points_once_in_whole_runs(self, monkeypatch):
        p = part(2, [0, 1, 0.5, 0.25])
        xs = np.linspace(0.0, 1.0, 23)
        monkeypatch.setattr(bspline, "EVAL_BLOCK", 7)
        blocks = list(bspline.eval_blocks(p, xs))
        assert [lo for lo, _, _ in blocks] == [0, 7, 14, 21]
        first, vals = bspline.eval_basis_many(p, xs)
        assert np.array_equal(np.concatenate([f for _, f, _ in blocks]), first)
        assert np.array_equal(np.concatenate([v for _, _, v in blocks]), vals)
        # a rule's nodes come in whole spans, span-major: one coefficient
        # start per span, and the values as (k, q, spans), each node on its
        # own span with the bits of its span and offset; a block holds two
        # spans at least, and a last span left alone joins the block before
        p = part(2, [0, 1, 0.5, 0.25, 0.75, 0.125])
        rule = bspline.QuadratureRule.over_spans(p.knots, 3)
        blocks = list(bspline.rule_blocks(p, rule))
        assert [(lo, len(start)) for lo, start, _ in blocks] == [(0, 2), (2, 3)]
        assert all(v.shape == (2, 3, len(s)) and v.flags.c_contiguous for _, s, v in blocks)
        start = np.concatenate([s for _, s, _ in blocks])
        vals = np.concatenate([v for _, _, v in blocks], axis=2).transpose(2, 1, 0).reshape(-1, 2)
        first, want = bspline.span_values(p, np.repeat(rule.spans, 3), rule.offsets.ravel())
        assert np.array_equal(np.repeat(start + 1, 3), first)
        assert np.array_equal(vals, want)
        first, want = bspline.eval_basis_many(p, rule_nodes(p.knots, rule).ravel())
        assert np.array_equal(np.repeat(start + 1, 3), first)
        assert np.allclose(vals, want, rtol=0, atol=1e-15)
        # so do spans longer than the block
        rule = bspline.QuadratureRule.over_spans(p.knots, 10)
        assert [(lo, len(start)) for lo, start, _ in bspline.rule_blocks(p, rule)] == [(0, 2), (2, 3)]


class TestGramMatrix:
    def test_order_one_interval_lengths(self):
        G = bspline.gram_matrix(part(1, [0, 1, 0.5]))
        assert np.allclose(dense(G), np.diag([0.5, 0.5]), atol=1e-15)

    def test_order_two_uniform_entries(self):
        G = bspline.gram_matrix(part(2, [0, 1, 0.5]))
        A = dense(G)
        assert A[0, 0] == pytest.approx(1 / 6, abs=1e-15)
        assert A[0, 1] == pytest.approx(1 / 12, abs=1e-15)
        assert A[1, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert A[1, 2] == pytest.approx(1 / 12, abs=1e-15)
        assert A[2, 2] == pytest.approx(1 / 6, abs=1e-15)
        # supports [0,0.5] and [0.5,1] overlap in a null set
        assert A[0, 2] == 0.0

    def test_entry_is_one_based_and_banded(self):
        G = bspline.gram_matrix(part(3, [0, 1, 0.5, 0.25]))
        A = dense(G)
        for i in range(G.M):
            for j in range(G.M):
                if abs(i - j) >= 3:
                    assert A[i, j] == 0.0

    def test_norm_identity(self):
        seq = knots.random_admissible(11, 3, 12)
        p = knots.partition_at(seq, 11)
        G = bspline.gram_matrix(p)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(p.M)
        f = Spline(p, c)
        n2 = lp_norm(f, 2.0) ** 2
        assert n2 == pytest.approx(float(c @ G.apply(c)), abs=1e-10)

    def test_quadrature_needs_a_node(self):
        p = part(3, [0, 1, 0.5])
        with pytest.raises(QuadratureTooCoarse):
            bspline.QuadratureRule.over_spans(p.knots, 0)

    def test_solve_and_inverse_agree(self):
        p = part(2, [0, 1, 0.5, 0.25, 0.7])
        G = bspline.gram_matrix(p)
        B = np.linalg.inv(dense(G))
        rhs = np.arange(1.0, p.M + 1)
        assert np.allclose(B @ rhs, bspline.dpbtrs(G.factor, rhs)[0], atol=1e-12)
        assert np.allclose(streamed_inverse(G), B, atol=1e-12)

    @pytest.mark.parametrize("lo", [0, 1, 20])
    def test_window_factor_names_the_minor_in_the_level(self, lo):
        # a diagonal entry made negative at column 30 fails the factor of any
        # window that holds it at that column's 1-based index in the level
        G = bspline.gram_matrix(part(3, knots.random_admissible(5, 3, 60).points))
        band = G.band.copy()
        band[2, 30] = -1.0
        rhs = np.ones(40)
        with pytest.raises(NotPositiveDefinite, match="^level 59: 31-th leading minor not positive definite$"):
            bspline.window_solve(band, lo, rhs, 59)
        # the run of columns is the band of the principal submatrix
        A = dense(G)[lo : lo + 40, lo : lo + 40]
        assert np.allclose(A @ bspline.window_solve(G.band, lo, rhs, 59), rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [255, 256, 257, 513])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_inverse_blocks_are_the_dense_recurrence_bit_for_bit(self, k, M):
        # The reader's blocks are its diagonals, each the dense recurrence's.
        G = bspline.gram_matrix(part(k, knots.random_admissible(M, k, M - k + 2).points))
        assert G.M == M
        assert_diagonals_are_the_recurrence(G)
        assert np.array_equal(G.inverse_diagonal, np.diagonal(recurrence_inverse(G)))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_the_walks_band_is_the_assembled_band_at_every_level(self, monkeypatch, k):
        # The band the walk moves and pastes in place, its fresh columns
        # p-k..p+k-1 around the new knot among them, is the level's whole
        # assembled band, bit for bit, in blocks of 7 levels.
        seq = knots.random_admissible(k, k, 30)
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", 7)
        walked = 0
        for n, (_, band, *_) in enumerate(ortho.levels(seq, 29), start=2):
            full = bspline.gram_matrix(knots.partition_at(seq, n))
            assert band.shape == full.band.shape
            assert np.ascontiguousarray(band).tobytes() == full.band.tobytes()
            walked += 1
        assert walked == 28


def assert_diagonals_are_the_recurrence(G, floor=0.0):
    """Every diagonal the reader yields at ``floor`` is ``recurrence_inverse``'s, bit for bit, and every later one below it.

    Below means |b| <= floor, so at floor 0 every later entry is zero.
    Returns the number of diagonals yielded, d = 0, 1, ... in order.
    """
    B = recurrence_inverse(G)
    count = 0
    for d, b in G.inverse_diagonals(floor):
        assert d == count
        assert b.tobytes() == np.diagonal(B, -d).tobytes(), f"diagonal {d}"
        count += 1
    past = np.abs(np.tril(B, -count)).max(initial=0.0)
    assert past <= floor, f"stopped after {count} diagonals, an entry past them is {past}"
    return count


def planted_factor(G, rows):
    """G's band beside a copy of its factor with the given rows of the band storage replaced: {row: values}."""
    factor = G.factor.copy()
    for row, values in rows.items():
        factor[row] = values
    return bspline.GramSystem(G.partition, G.band, factor)


class TestInverseDiagonals:
    @pytest.mark.parametrize("family", knots.LAWS + ("near-one", "full-multiplicity"))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_diagonal_is_the_recurrence_bit_for_bit(self, k, family):
        G = bspline.gram_matrix(knots.partition_at(wide_sequence(family, k, 300), 300))
        count = assert_diagonals_are_the_recurrence(G)
        # at k = 1 B is diagonal; at full multiplicity it is block diagonal
        if k == 1 or family == "full-multiplicity":
            assert count < G.M
        assert np.array_equal(G.inverse_diagonal, np.diagonal(recurrence_inverse(G)))

    @pytest.mark.parametrize("family", knots.LAWS + ("near-one", "full-multiplicity"))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_entry_past_the_certified_stop_is_below_the_floor(self, k, family):
        # M >= 500; from k = 4 on one step of the recurrence can grow a row
        # (max_j sum_l |u_{j,j+l}| / u_jj > 1), and only products of several
        # steps contract
        G = bspline.gram_matrix(knots.partition_at(wide_sequence(family, k, 500), 500))
        full = assert_diagonals_are_the_recurrence(G)
        kd = k - 1
        if k >= 4 and family == "uniform-iid":
            n = G.M - kd
            ratio = sum(np.abs(G.factor[kd - l, l : l + n]) for l in range(1, k)) / G.factor[kd, :n]
            assert ratio.max() > 1.0
        for scale in (1e-3, 1e-12):
            count = assert_diagonals_are_the_recurrence(G, scale * G.inverse_diagonal.max())
            assert count < full or k == 1 or family == "full-multiplicity"

    def test_the_walk_stops_where_the_inverse_underflows(self):
        # k = 2, N = 1024: entries far from the diagonal underflow to zero
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", 2, 1024), 1024))
        assert assert_diagonals_are_the_recurrence(G) < G.M // 2

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_the_walk_runs_through_kd_minus_one_zero_diagonals(self, k):
        # u_{j,j+l} = 0 for 0 < l < kd leaves A, and so B, nonzero only on
        # diagonals that are multiples of kd (at k = 3, every odd diagonal is
        # zero): runs of kd - 1 zero diagonals that a walk must not stop at
        kd = k - 1
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", k, 60), 60))
        planted = planted_factor(G, {row: 0.0 for row in range(1, kd)})
        assert assert_diagonals_are_the_recurrence(planted) == planted.M
        for d, b in planted.inverse_diagonals():
            assert b.any() == (d % kd == 0), f"diagonal {d}"

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_the_certified_stop_waits_for_kd_settled_diagonals(self, k):
        # the factor above at M >= 500: a zero diagonal past the band is
        # below every floor, but the next multiple of kd is far above it
        kd = k - 1
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", k, 500), 500))
        planted = planted_factor(G, {row: 0.0 for row in range(1, kd)})
        assert planted.tail_bound is not None
        floor = 1e-12 * planted.inverse_diagonal.max()
        assert 2 * kd < assert_diagonals_are_the_recurrence(planted, floor) < planted.M

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_the_certified_stop_holds_where_the_bound_is_nearly_sharp(self, scale):
        # b_{i,j} = 1.7 b_{i,j+1} - 0.9 b_{i,j+2}: the roots 0.85 +- 0.42i
        # give each row a decay of 0.949 per step, but a row can first grow
        # to about 3.5 times the largest of the two entries before it, close
        # to K = 3.64; a stop that took K as 1 reads too little
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", 3, 500), 500))
        u_1, u_2 = np.full(G.M - 1, -1.7), np.full(G.M - 2, 0.9)
        planted = planted_factor(G, {2: 1.0, 1: np.r_[0.0, u_1], 0: np.r_[0.0, 0.0, u_2]})
        assert planted.tail_bound[0] > 3.5
        floor = scale * planted.inverse_diagonal.max()
        assert assert_diagonals_are_the_recurrence(planted, floor) < planted.M

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_factor_that_never_contracts_reads_on(self, k):
        # b_{i,j} = 1.25 b_{i,j+1} + 0: no product of steps contracts, so no
        # floor stops the walk, which reads all M diagonals
        kd = k - 1
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", k, 60), 60))
        rows = {row: 0.0 for row in range(kd - 1)}
        rows[kd - 1] = np.concatenate([[0.0], -1.25 * G.factor[kd, :-1]])
        planted = planted_factor(G, rows)
        assert planted.tail_bound is None
        assert assert_diagonals_are_the_recurrence(planted, 1e300) == planted.M

    def test_no_bound_for_a_factor_that_is_not_finite_and_no_stop_below_a_positive_floor(self):
        G = bspline.gram_matrix(knots.partition_at(wide_sequence("uniform-iid", 3, 500), 500))
        for row in range(3):  # u_2, u_1 and u_0
            for bad in (np.nan, np.inf):
                factor = G.factor.copy()
                factor[row, 7] = bad
                assert bspline.GramSystem(G.partition, G.band, factor).tail_bound is None, (row, bad)
        full = sum(1 for _ in G.inverse_diagonals())
        for floor in (-1.0, np.nan, np.inf):
            assert sum(1 for _ in G.inverse_diagonals(floor)) == full


def refinement(coarse, fine, i0):
    """The refinement matrix through the library kernel: prolong of the identity."""
    w1, w2 = boehm_refine(fine, i0)
    return prolong(np.eye(coarse.M), i0, w1, w2)


class TestBoehmRefine:
    def test_order_one_split(self):
        # the coarse indicator is the sum of the two fine ones
        coarse = knots.boundary_partition(1)
        fine = part(1, [0, 1, 0.5])
        R = refinement(coarse, fine, 2)
        assert np.allclose(R, np.array([[1.0, 1.0]]))

    def test_order_two_midpoint_weights(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        R = refinement(coarse, fine, 3)
        expected = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        assert np.allclose(R, expected, atol=1e-15)

    def test_rows_are_one_based_pairs(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        w1, w2 = boehm_refine(fine, 3)
        assert len(w1) == len(w2) == coarse.order
        assert np.all((0.0 <= w1) & (w1 <= 1.0))
        assert np.all((0.0 <= w2) & (w2 <= 1.0))
        R = refinement(coarse, fine, 3)
        assert R.shape == (coarse.M, fine.M)
        for row in R:
            (cols,) = np.nonzero(row)
            assert 1 <= len(cols) <= 2
            assert cols[-1] - cols[0] == len(cols) - 1

    def test_prolong_preserves_function(self):
        seq = knots.random_admissible(4, 3, 10)
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 1, 1000)
        for n in range(3, 10):
            coarse = knots.partition_at(seq, n - 1)
            fine = knots.partition_at(seq, n)
            i0 = insert_event(seq, n)
            w1, w2 = boehm_refine(fine, i0)
            c = rng.standard_normal(coarse.M)
            f = Spline(coarse, c)
            g = Spline(fine, prolong(c, i0, w1, w2))
            assert np.max(np.abs(f(xs) - g(xs))) <= 1e-12

    def test_prolong_many_stacks(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        assert np.allclose(refinement(coarse, fine, 3), refinement_matrix(coarse, fine, 3))

    def test_wrong_insert_index_rejected(self):
        fine = part(2, [0, 1, 0.5, 0.25], n=3)
        # k + 1 <= i0 <= M = 4: tau_2 = 0 and tau_5 = 1 are boundary knots
        for i0 in (2, 5, -1):
            with pytest.raises(IndexOutOfRange):
                boehm_refine(fine, i0)


class TestLpNorm:
    def test_constant_one(self):
        p = part(1, [0, 1, 0.5])
        f = Spline(p, np.array([1.0, 1.0]))
        assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_hat_area(self):
        p = part(2, [0, 1, 0.5])
        f = Spline(p, np.array([0.0, 1.0, 0.0]))
        assert lp_norm(f, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_sup_norm_of_hat(self):
        # the sampled sup norm is a test oracle; lp_norm takes finite p only
        p = part(2, [0, 1, 0.5])
        f = Spline(p, np.array([0.0, 1.0, 0.0]))
        assert sup_norm(f, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_infinite_p_rejected(self):
        p = part(2, [0, 1, 0.5])
        f = Spline(p, np.array([0.0, 1.0, 0.0]))
        for q in (np.inf, np.nan, 0.5):
            with pytest.raises(DomainError):
                lp_norm(f, q)

    def test_subinterval_restriction(self):
        p = part(1, [0, 1, 0.5])
        f = Spline(p, np.array([1.0, 3.0]))
        assert lp_norm(f, 1.0, (0.5, 1.0)) == pytest.approx(1.5, abs=1e-14)
        assert lp_norm(f, 1.0, (0.25, 0.75)) == pytest.approx(1.0, abs=1e-14)

    def test_empty_interval_rejected(self):
        p = part(1, [0, 1, 0.5])
        f = Spline(p, np.array([1.0, 1.0]))
        with pytest.raises(Exception):
            lp_norm(f, 1.0, (0.7, 0.2))

    def test_fractional_p_monotone_in_p(self):
        # on a probability space the L^p norms are nondecreasing in p
        seq = knots.random_admissible(8, 2, 8)
        pn = knots.partition_at(seq, 7)
        f = Spline(pn, np.random.default_rng(5).standard_normal(pn.M))
        norms = [lp_norm(f, q) for q in (1.0, 4 / 3, 2.0, 3.0)]
        assert all(a <= b + 1e-9 for a, b in zip(norms, norms[1:]))


class TestDeboorStability:
    def test_order_one_is_exact(self):
        p = part(1, [0, 1, 0.5, 0.25])
        f = Spline(p, np.array([2.0, -1.0, 0.5]))
        ratio, worst = deboor_stability_ratio(f, 1.0)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        seq = knots.random_admissible(13, 3, 9)
        pn = knots.partition_at(seq, 8)
        c = np.random.default_rng(2).standard_normal(pn.M)
        r1, _ = deboor_stability_ratio(Spline(pn, c), 2.0)
        r2, _ = deboor_stability_ratio(Spline(pn, 100.0 * c), 2.0)
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_ratio_bounded_below(self):
        for sd in range(5):
            seq = knots.random_admissible(sd, 2, 10)
            pn = knots.partition_at(seq, 9)
            c = np.random.default_rng(sd).standard_normal(pn.M)
            ratio, _ = deboor_stability_ratio(Spline(pn, c), 1.5)
            assert 0.0 < ratio <= 1.0 + 1e-12


def test_spline_rejects_wrong_length():
    p = part(2, [0, 1, 0.5])
    with pytest.raises(ValueError, match="3 coefficients"):
        Spline(p, np.array([1.0, 2.0]))


def test_quadrature_weights_integrate_one():
    p = part(3, [0, 1, 0.5, 0.25])
    rule = bspline.QuadratureRule.over_spans(p.knots, 5)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule_nodes(p.knots, rule).min() >= 0.0
    assert rule_nodes(p.knots, rule).max() <= 1.0


def test_a_missing_lapack_extension_fails_the_import_naming_it(tmp_path):
    # A scipy without linalg/_flapack first on the path: importing bspline
    # fails at once and names the file and the directory it looked in.
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = Path(bspline.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
    done = subprocess.run(
        [sys.executable, "-c", "import orthosplines.bspline"], env=env, capture_output=True, text=True
    )
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:") and "_flapack" in last
    assert str(tmp_path / "scipy" / "linalg") in last
