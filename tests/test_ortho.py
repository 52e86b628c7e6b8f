import numpy as np
import pytest

from orthosplines import bspline, knots, ortho
from orthosplines.errors import EmptyInterval, IndexOutOfRange


def level_gram(seq, n):
    return bspline.gram_matrix(knots.partition_at(seq, n))


class TestAlphaCoefficients:
    def test_order_one(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        alpha = ortho.alpha_coefficients(part, 2)
        assert np.allclose(alpha, [1.0, -1.0], atol=1e-15)

    def test_order_two_uniform(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        alpha = ortho.alpha_coefficients(part, 3)
        assert np.allclose(alpha, [0.5, -1.0, 0.5], atol=1e-15)

    def test_annihilates_coarse_rows(self):
        # alpha extended by zeros lies in the kernel of the refinement map
        for sd, k in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            seq = knots.random_admissible(sd, k, 9)
            for n in range(3, 9):
                coarse = knots.partition_at(seq, n - 1)
                fine = knots.partition_at(seq, n)
                ev = knots.insert_event(seq, n)
                R = bspline.boehm_refine(coarse, fine, ev.i0)
                alpha = ortho.alpha_coefficients(fine, ev.i0)
                ext = np.zeros(fine.M)
                ext[ev.i0 - k - 1 : ev.i0] = alpha
                assert np.max(np.abs(R.as_matrix() @ ext)) <= 1e-12

    def test_alternation_and_bound(self):
        for sd in range(8):
            k = 1 + sd % 5
            seq = knots.random_admissible(sd, k, 10)
            for n in range(2, 10):
                part = knots.partition_at(seq, n)
                ev = knots.insert_event(seq, n)
                alpha = ortho.alpha_coefficients(part, ev.i0)
                assert np.max(np.abs(alpha)) <= 1.0 + 1e-14
                signs = np.sign(alpha)
                assert np.all(signs != 0.0)
                assert np.all(signs[:-1] == -signs[1:])
                # the entry at i0 carries the parity of the order
                assert signs[-1] == (-1.0) ** k


class TestOrthoFunction:
    def test_order_one_closed_form(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5])
        G = level_gram(seq, 2)
        of = ortho.ortho_function(G, 2)
        assert np.allclose(of.w, [2.0, -2.0], atol=1e-14)
        assert of.norm2 == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(of.phi.coeffs, [1.0, -1.0], atol=1e-14)

    def test_unnormalized_sign_at_insert(self):
        for sd, k in [(5, 1), (6, 2), (7, 3), (8, 4)]:
            seq = knots.random_admissible(sd, k, 8)
            for n in range(2, 8):
                G = level_gram(seq, n)
                ev = knots.insert_event(seq, n)
                of = ortho.ortho_function(G, ev.i0)
                assert np.sign(of.w[ev.i0 - 1]) == (-1.0) ** k

    def test_products_share_sign_per_column(self):
        # each w_l is a sum of alpha_j b_jl terms that all carry one sign
        seq = knots.random_admissible(10, 3, 12)
        n = 11
        G = level_gram(seq, n)
        ev = knots.insert_event(seq, n)
        of = ortho.ortho_function(G, ev.i0)
        B = np.linalg.inv(G.dense())
        k = seq.order
        js = np.arange(ev.i0 - k - 1, ev.i0)
        for ell in range(G.M):
            terms = of.alpha * B[js, ell]
            total = float(np.sum(terms))
            assert abs(total) == pytest.approx(np.sum(np.abs(terms)), abs=1e-14)
            assert total == pytest.approx(float(of.w[ell]), abs=1e-12)

    def test_orthogonal_to_coarse_levels(self):
        seq = knots.random_admissible(12, 2, 9)
        xs = None
        for n in range(3, 9):
            G = level_gram(seq, n)
            ev = knots.insert_event(seq, n)
            of = ortho.ortho_function(G, ev.i0)
            coarse = knots.partition_at(seq, n - 1)
            fine = knots.partition_at(seq, n)
            R = bspline.boehm_refine(coarse, fine, ev.i0)
            # inner products with every coarse B-spline via the fine gram
            inner = R.as_matrix() @ G.apply(of.phi.coeffs)
            assert np.max(np.abs(inner)) <= 1e-10


class TestInitialBlock:
    def test_order_one_constant(self):
        block = ortho.initial_block(1)
        assert list(block.levels) == [1]
        xs = np.linspace(0, 1, 7)
        assert np.allclose(block.eval_matrix(xs)[0], 1.0, atol=1e-14)

    def test_order_two_linear(self):
        block = ortho.initial_block(2)
        assert list(block.levels) == [0, 1]
        xs = np.linspace(0, 1, 7)
        vals = block.eval_matrix(xs)
        assert np.allclose(vals[0], 1.0, atol=1e-14)
        assert np.allclose(vals[1], np.sqrt(3) * (2 * xs - 1), atol=1e-13)

    def test_orthonormal_on_unit_interval(self):
        from numpy.polynomial.legendre import leggauss

        block = ortho.initial_block(5)
        ref_x, ref_w = leggauss(12)
        xs, ws = 0.5 * (ref_x + 1), 0.5 * ref_w
        V = block.eval_matrix(xs)
        G = (V * ws) @ V.T
        assert np.max(np.abs(G - np.eye(5))) <= 1e-13

    def test_leading_coefficients_positive(self):
        block = ortho.initial_block(4)
        for p in block.polys:
            assert p.convert(kind=np.polynomial.Polynomial).coef[-1] > 0


class TestLegendreProjection:
    def test_linear_to_constant(self):
        proj = ortho.legendre_projection(lambda x: x, (0.0, 1.0), 1)
        xs = np.linspace(0, 1, 5)
        assert np.allclose(proj(xs), 0.5, atol=1e-14)

    def test_symmetric_square(self):
        proj = ortho.legendre_projection(lambda x: x * x, (-1.0, 1.0), 2)
        xs = np.linspace(-1, 1, 5)
        assert np.allclose(proj(xs), 1 / 3, atol=1e-13)

    def test_idempotent_on_low_order(self):
        poly = np.polynomial.Polynomial([1.0, -2.0, 3.0])
        proj = ortho.legendre_projection(poly, (0.2, 0.9), 3)
        xs = np.linspace(0.2, 0.9, 9)
        assert np.max(np.abs(proj(xs) - poly(xs))) <= 1e-12

    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyInterval):
            ortho.legendre_projection(lambda x: x, (0.5, 0.5), 2)

    def test_operator_norm_recorded(self):
        # averaging operator bound on a handful of random polynomials
        rng = np.random.default_rng(3)
        worst = 0.0
        for p in (1.0, 1.5, 2.0, np.inf):
            for _ in range(5):
                poly = np.polynomial.Polynomial(rng.standard_normal(6))
                proj = ortho.legendre_projection(poly, (0.1, 0.8), 3)
                xs = np.linspace(0.1, 0.8, 400)
                num = np.abs(proj(xs))
                den = np.abs(poly(xs))
                if p == np.inf:
                    ratio = num.max() / den.max()
                else:
                    ratio = (num**p).mean() ** (1 / p) / (den**p).mean() ** (1 / p)
                worst = max(worst, ratio)
        assert np.isfinite(worst)
        assert worst < 50.0


class TestOracleAgreement:
    def test_matches_fast_path(self):
        for sd, k in [(1, 1), (2, 2), (3, 3), (4, 4)]:
            seq = knots.random_admissible(sd, k, 8)
            for n in range(2, 8):
                G = level_gram(seq, n)
                ev = knots.insert_event(seq, n)
                fast = ortho.ortho_function(G, ev.i0).phi
                oracle = ortho.gram_schmidt_oracle(seq, n)
                s = np.sign(fast.coeffs @ oracle.coeffs)
                assert np.linalg.norm(fast.coeffs - s * oracle.coeffs) <= 1e-8

    def test_unit_inner_product(self):
        seq = knots.random_admissible(31, 3, 7)
        for n in range(2, 7):
            G = level_gram(seq, n)
            ev = knots.insert_event(seq, n)
            fast = ortho.ortho_function(G, ev.i0).phi
            oracle = ortho.gram_schmidt_oracle(seq, n)
            inner = float(fast.coeffs @ G.apply(oracle.coeffs))
            assert abs(inner) == pytest.approx(1.0, abs=1e-9)


class TestEstwjRatio:
    def test_order_one_is_exact(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.25])
        G = level_gram(seq, 3)
        ev = knots.insert_event(seq, 3)
        of = ortho.ortho_function(G, ev.i0)
        assert ortho.estwj_ratio(of, G) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_away_from_zero(self):
        lows = []
        for sd in range(6):
            seq = knots.random_admissible(sd, 3, 12)
            low = np.inf
            for n in range(2, 12):
                G = level_gram(seq, n)
                ev = knots.insert_event(seq, n)
                of = ortho.ortho_function(G, ev.i0)
                low = min(low, ortho.estwj_ratio(of, G))
            lows.append(low)
        assert min(lows) > 0.0


class TestBuildSystem:
    def test_size_and_levels(self):
        seq = knots.random_admissible(2, 3, 10)
        system = ortho.build_system(seq, 9)
        assert system.size == system.finest.M
        assert system.order == 3
        assert system.row_of_level(-1) == 0
        assert system.row_of_level(9) == system.size - 1
        assert system.function(2).level == 2
        with pytest.raises(IndexOutOfRange):
            system.row_of_level(10)
        with pytest.raises(IndexOutOfRange):
            system.function(1)

    def test_gram_identity_large(self):
        seq = knots.random_admissible(14, 2, 301)
        system = ortho.build_system(seq, 300)
        F = system.matrix
        err = np.max(np.abs(F @ system.gram.apply(F.T) - np.eye(system.size)))
        assert err <= 1e-10 * 300

    def test_block_rows_match_polynomials(self):
        seq = knots.random_admissible(3, 3, 6)
        system = ortho.build_system(seq, 5)
        xs = np.linspace(0, 1, 50)
        vals = system.value_matrix(xs)
        block_vals = system.block.eval_matrix(xs)
        assert np.max(np.abs(vals[: seq.order] - block_vals)) <= 1e-11

    def test_export_records_shape(self):
        seq = knots.random_admissible(4, 2, 6)
        system = ortho.build_system(seq, 5)
        recs = system.export_records()
        assert [r["level"] for r in recs] == [2, 3, 4, 5]
        for r in recs:
            assert set(r) == {"level", "i0", "knots-hash", "coeffs", "J", "norm2"}
            assert r["norm2"] > 0.0
            assert len(r["knots-hash"]) == 64

    def test_deterministic_rebuild(self):
        seq = knots.random_admissible(5, 2, 8)
        a = ortho.build_system(seq, 7)
        b = ortho.build_system(seq, 7)
        assert np.array_equal(a.matrix, b.matrix)
