import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orthosplines import bspline, knots
from orthosplines.errors import (
    DomainError,
    PartitionMismatch,
    QuadratureTooCoarse,
)


def part(k, points, n=None):
    seq = knots.validate_admissible(k, points)
    return knots.partition_at(seq, n if n is not None else len(points) - 1)


class TestEvalBasis:
    def test_order_one_indicator(self):
        p = part(1, [0, 1, 0.5])
        first, vals = bspline.eval_basis(p, 0.25)
        assert first == 1
        assert vals.tolist() == [1.0]

    def test_hat_peak_at_knot(self):
        p = part(2, [0, 1, 0.5])
        first, vals = bspline.eval_basis(p, 0.5)
        full = np.zeros(p.M)
        full[first - 1 : first - 1 + len(vals)] = vals
        assert full[1] == pytest.approx(1.0, abs=1e-15)
        assert abs(full).sum() == pytest.approx(1.0, abs=1e-15)

    def test_hat_midpoint_split(self):
        p = part(2, [0, 1, 0.5])
        first, vals = bspline.eval_basis(p, 0.75)
        full = np.zeros(p.M)
        full[first - 1 : first - 1 + len(vals)] = vals
        assert full[1] == pytest.approx(0.5, abs=1e-15)
        assert full[2] == pytest.approx(0.5, abs=1e-15)

    def test_right_endpoint_last_spline(self):
        p = part(3, [0, 1, 0.5])
        first, vals = bspline.eval_basis(p, 1.0)
        assert first + len(vals) - 1 == p.M
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)

    def test_outside_domain_rejected(self):
        p = part(1, [0, 1, 0.5])
        with pytest.raises(DomainError):
            bspline.eval_basis(p, -0.1)
        with pytest.raises(DomainError):
            bspline.eval_basis(p, 1.1)

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
        _, vals = bspline.eval_basis(p, x)
        assert np.all(vals >= -1e-14)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_many_matches_scalar(self):
        p = part(3, [0, 1, 0.5, 0.25, 0.7])
        xs = np.linspace(0, 1, 101)
        B = bspline.basis_matrix(p, xs)
        for i, x in enumerate(xs):
            first, vals = bspline.eval_basis(p, x)
            row = np.zeros(p.M)
            row[first - 1 : first - 1 + len(vals)] = vals
            assert np.allclose(B[i], row, atol=1e-15)


class TestGramMatrix:
    def test_order_one_interval_lengths(self):
        G = bspline.gram_matrix(part(1, [0, 1, 0.5]))
        assert np.allclose(G.dense(), np.diag([0.5, 0.5]), atol=1e-15)

    def test_order_two_uniform_entries(self):
        G = bspline.gram_matrix(part(2, [0, 1, 0.5]))
        A = G.dense()
        assert A[0, 0] == pytest.approx(1 / 6, abs=1e-15)
        assert A[0, 1] == pytest.approx(1 / 12, abs=1e-15)
        assert A[1, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert A[1, 2] == pytest.approx(1 / 12, abs=1e-15)
        assert A[2, 2] == pytest.approx(1 / 6, abs=1e-15)
        # supports [0,0.5] and [0.5,1] overlap in a null set
        assert A[0, 2] == 0.0

    def test_entry_is_one_based_and_banded(self):
        G = bspline.gram_matrix(part(3, [0, 1, 0.5, 0.25]))
        A = G.dense()
        assert G.entry(1, 1) == A[0, 0]
        assert G.entry(1, 2) == G.entry(2, 1)
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
        f = bspline.Spline(p, c)
        n2 = bspline.lp_norm(f, 2.0) ** 2
        assert n2 == pytest.approx(float(c @ G.apply(c)), abs=1e-10)

    def test_quadrature_too_coarse(self):
        p = part(3, [0, 1, 0.5])
        rule = bspline.QuadratureRule.for_partition(p, 2)
        with pytest.raises(QuadratureTooCoarse):
            bspline.gram_matrix(p, rule)

    def test_solve_and_inverse_agree(self):
        p = part(2, [0, 1, 0.5, 0.25, 0.7])
        G = bspline.gram_matrix(p)
        B = np.linalg.inv(G.dense())
        rhs = np.arange(1.0, p.M + 1)
        assert np.allclose(B @ rhs, G.solve(rhs), atol=1e-12)
        streamed = np.hstack([cols for _, cols in G.inverse_columns()])
        assert np.allclose(streamed, B, atol=1e-12)


class TestBoehmRefine:
    def test_order_one_split(self):
        # the coarse indicator is the sum of the two fine ones
        coarse = knots.boundary_partition(1)
        fine = part(1, [0, 1, 0.5])
        R = bspline.boehm_refine(coarse, fine, 2)
        assert np.allclose(R.as_matrix(), np.array([[1.0, 1.0]]))

    def test_order_two_midpoint_weights(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        R = bspline.boehm_refine(coarse, fine, 3)
        expected = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
        assert np.allclose(R.as_matrix(), expected, atol=1e-15)

    def test_rows_are_one_based_pairs(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        R = bspline.boehm_refine(coarse, fine, 3)
        assert len(R.rows) == coarse.M
        for pairs in R.rows:
            assert 1 <= len(pairs) <= 2
            for j, w in pairs:
                assert 1 <= j <= fine.M
                assert 0.0 <= w <= 1.0

    def test_prolong_preserves_function(self):
        seq = knots.random_admissible(4, 3, 10)
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 1, 1000)
        for n in range(3, 10):
            coarse = knots.partition_at(seq, n - 1)
            fine = knots.partition_at(seq, n)
            ev = knots.insert_event(seq, n)
            R = bspline.boehm_refine(coarse, fine, ev.i0)
            c = rng.standard_normal(coarse.M)
            f = bspline.Spline(coarse, c)
            g = bspline.Spline(fine, R.prolong(c))
            assert np.max(np.abs(f(xs) - g(xs))) <= 1e-12

    def test_prolong_many_stacks(self):
        coarse = knots.boundary_partition(2)
        fine = part(2, [0, 1, 0.5])
        R = bspline.boehm_refine(coarse, fine, 3)
        assert np.allclose(R.prolong_many(np.eye(2)), R.as_matrix())

    def test_wrong_insert_index_rejected(self):
        coarse = part(2, [0, 1, 0.5], n=2)
        fine = part(2, [0, 1, 0.5, 0.25], n=3)
        # deleting tau_5 = 1 does not recover the coarse knots
        with pytest.raises(PartitionMismatch):
            bspline.boehm_refine(coarse, fine, 5)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(PartitionMismatch):
            bspline.boehm_refine(
                knots.boundary_partition(1), part(2, [0, 1, 0.5]), 3
            )


class TestLpNorm:
    def test_constant_one(self):
        p = part(1, [0, 1, 0.5])
        f = bspline.Spline(p, np.array([1.0, 1.0]))
        assert bspline.lp_norm(f, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_hat_area(self):
        p = part(2, [0, 1, 0.5])
        f = bspline.Spline(p, np.array([0.0, 1.0, 0.0]))
        assert bspline.lp_norm(f, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_sup_norm_of_hat(self):
        p = part(2, [0, 1, 0.5])
        f = bspline.Spline(p, np.array([0.0, 1.0, 0.0]))
        assert bspline.lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_subinterval_restriction(self):
        p = part(1, [0, 1, 0.5])
        f = bspline.Spline(p, np.array([1.0, 3.0]))
        assert bspline.lp_norm(f, 1.0, (0.5, 1.0)) == pytest.approx(1.5, abs=1e-14)
        assert bspline.lp_norm(f, 1.0, (0.25, 0.75)) == pytest.approx(1.0, abs=1e-14)

    def test_empty_interval_rejected(self):
        p = part(1, [0, 1, 0.5])
        f = bspline.Spline(p, np.array([1.0, 1.0]))
        with pytest.raises(Exception):
            bspline.lp_norm(f, 1.0, (0.7, 0.2))

    def test_fractional_p_monotone_in_p(self):
        # on a probability space the L^p norms are nondecreasing in p
        seq = knots.random_admissible(8, 2, 8)
        pn = knots.partition_at(seq, 7)
        f = bspline.Spline(pn, np.random.default_rng(5).standard_normal(pn.M))
        norms = [bspline.lp_norm(f, q) for q in (1.0, 4 / 3, 2.0, 3.0)]
        assert all(a <= b + 1e-9 for a, b in zip(norms, norms[1:]))


class TestDeboorStability:
    def test_order_one_is_exact(self):
        p = part(1, [0, 1, 0.5, 0.25])
        f = bspline.Spline(p, np.array([2.0, -1.0, 0.5]))
        ratio, worst = bspline.deboor_stability_ratio(f, 1.0)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        seq = knots.random_admissible(13, 3, 9)
        pn = knots.partition_at(seq, 8)
        c = np.random.default_rng(2).standard_normal(pn.M)
        r1, _ = bspline.deboor_stability_ratio(bspline.Spline(pn, c), 2.0)
        r2, _ = bspline.deboor_stability_ratio(bspline.Spline(pn, 100.0 * c), 2.0)
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_ratio_bounded_below(self):
        for sd in range(5):
            seq = knots.random_admissible(sd, 2, 10)
            pn = knots.partition_at(seq, 9)
            c = np.random.default_rng(sd).standard_normal(pn.M)
            ratio, _ = bspline.deboor_stability_ratio(bspline.Spline(pn, c), 1.5)
            assert 0.0 < ratio <= 1.0 + 1e-12


def test_spline_rejects_wrong_length():
    p = part(2, [0, 1, 0.5])
    with pytest.raises(ValueError, match="3 coefficients"):
        bspline.Spline(p, np.array([1.0, 2.0]))


def test_quadrature_weights_integrate_one():
    p = part(3, [0, 1, 0.5, 0.25])
    rule = bspline.QuadratureRule.for_partition(p, 5)
    assert rule.flat_weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert rule.flat_nodes.min() >= 0.0
    assert rule.flat_nodes.max() <= 1.0
