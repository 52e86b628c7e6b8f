import math
import warnings

import numpy as np
import pytest

from orthosplines import analysis, bspline, gram, knots, ortho
from orthosplines.errors import DomainError, LevelOutOfRange


@pytest.fixture(scope="module")
def system_k2():
    seq = knots.random_admissible(7, 2, 13)
    return ortho.build_system(seq, 12)


class TestExpand:
    def test_recovers_single_function(self, system_k2):
        f = system_k2.function(12).phi  # lives on the finest partition
        e = analysis.expand(f, system_k2)
        row = system_k2.row_of_level(12)
        assert e.coeffs[row] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(e.coeffs, row)
        assert np.max(np.abs(others)) <= 1e-10

    def test_constant_hits_block_head(self, system_k2):
        e = analysis.expand(lambda x: np.ones_like(x), system_k2)
        assert e.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(e.coeffs[1:])) <= 1e-10

    def test_callable_path_matches_spline_path(self, system_k2):
        c = np.random.default_rng(0).standard_normal(system_k2.size)
        f = bspline.Spline(system_k2.finest, c)
        exact = analysis.expand(f, system_k2).coeffs
        quad = analysis.expand(lambda xs: f(xs), system_k2).coeffs
        assert np.max(np.abs(exact - quad)) <= 1e-10

    def test_parseval(self, system_k2):
        c = np.random.default_rng(1).standard_normal(system_k2.size)
        f = bspline.Spline(system_k2.finest, c)
        e = analysis.expand(f, system_k2)
        assert float(e.coeffs @ e.coeffs) == pytest.approx(
            bspline.lp_norm(f, 2.0) ** 2, abs=1e-8
        )

    def test_reconstruction_roundtrip(self, system_k2):
        c = np.random.default_rng(2).standard_normal(system_k2.size)
        f = bspline.Spline(system_k2.finest, c)
        g = analysis.expand(f, system_k2).reconstruction()
        xs = np.linspace(0, 1, 500)
        assert np.max(np.abs(f(xs) - g(xs))) <= 1e-9

    def test_truncation_level(self, system_k2):
        e = analysis.expand(lambda x: np.ones_like(x), system_k2, N=3)
        assert e.size == 3 + system_k2.order - 1
        with pytest.raises(LevelOutOfRange):
            analysis.expand(lambda x: x, system_k2, N=13)


class TestRandomDraws:
    def test_unit_norm_and_determinism(self):
        a = analysis.random_coeffs(5, 3, 40)
        b = analysis.random_coeffs(5, 3, 40)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_prefix_property(self):
        # the unnormalized draws agree on the shared prefix, so runs at two
        # truncation levels from the same key are paired
        rng_a = np.random.default_rng((5, 3, 0)).standard_normal(40)
        rng_b = np.random.default_rng((5, 3, 0)).standard_normal(80)
        assert np.array_equal(rng_a, rng_b[:40])
        short = analysis.random_coeffs(5, 3, 40)
        long = analysis.random_coeffs(5, 3, 80)
        assert np.allclose(
            long[:40] * np.linalg.norm(rng_b), short * np.linalg.norm(rng_a)
        )

    def test_sparse_mode_support_size(self):
        a = analysis.random_coeffs(1, 0, 100, mode="sparse")
        assert np.count_nonzero(a) == 10
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            analysis.random_coeffs(1, 0, 10, mode="spiky")

    def test_signs_are_pm_one(self):
        s = analysis.random_signs(2, 7, 50)
        assert set(np.unique(s)) <= {-1.0, 1.0}
        assert np.array_equal(s, analysis.random_signs(2, 7, 50))


class TestSquareFunction:
    def test_single_term_is_absolute_value(self, system_k2):
        a = np.zeros(system_k2.size)
        a[5] = -2.5
        e = analysis.Expansion(system=system_k2, level=12, coeffs=a)
        sf = analysis.square_function(e, 256)
        xs = sf.centers()
        fn_vals = system_k2.value_matrix(xs)[5]
        assert np.allclose(sf.values, 2.5 * np.abs(fn_vals), atol=1e-12)

    def test_sign_invariance_is_exact(self, system_k2):
        c = analysis.random_coeffs(3, 0, system_k2.size)
        s = analysis.random_signs(3, 0, system_k2.size)
        e_plus = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        e_flip = analysis.Expansion(system=system_k2, level=12, coeffs=s * c)
        a = analysis.square_function(e_plus, 256)
        b = analysis.square_function(e_flip, 256)
        assert np.array_equal(a.values, b.values)

    def test_grid_l2_matches_coefficient_norm(self, system_k2):
        c = analysis.random_coeffs(4, 1, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        sf = analysis.square_function(e, 8192)
        grid_l2 = np.sqrt(np.mean(sf.values**2))
        assert grid_l2 == pytest.approx(1.0, rel=0.05)

    def test_grid_too_coarse(self, system_k2):
        e = analysis.Expansion(
            system=system_k2, level=12, coeffs=np.ones(system_k2.size)
        )
        with pytest.raises(DomainError):
            analysis.square_function(e, 32)


class TestMaximalFunction:
    def test_single_term(self, system_k2):
        a = np.zeros(system_k2.size)
        a[4] = 1.5
        e = analysis.Expansion(system=system_k2, level=12, coeffs=a)
        mf = analysis.maximal_function(e, 256)
        fn_vals = system_k2.value_matrix(mf.centers())[4]
        assert np.allclose(mf.values, 1.5 * np.abs(fn_vals), atol=1e-12)

    def test_dominates_final_sum(self, system_k2):
        c = analysis.random_coeffs(6, 2, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        mf = analysis.maximal_function(e, 512)
        f_vals = e.values(mf.centers())
        assert np.all(mf.values >= np.abs(f_vals) - 1e-12)


class TestHardyLittlewood:
    def test_constant(self):
        g = analysis.GridFunction(G=64, values=np.full(64, -3.0))
        m = analysis.hl_maximal(g)
        assert np.allclose(m.values, 3.0, atol=1e-12)

    def test_half_indicator_at_three_quarters(self):
        G = 4096
        vals = (np.arange(G) + 0.5) / G < 0.5
        m = analysis.hl_maximal(analysis.GridFunction(G=G, values=vals.astype(float)))
        # best interval through 3/4 is [0, 3/4]: average 2/3, up to O(1/G)
        assert m.at(0.75) == pytest.approx(2 / 3, abs=2e-3)

    def test_dominates_absolute_value(self):
        rng = np.random.default_rng(8)
        g = analysis.GridFunction(G=128, values=rng.standard_normal(128))
        m = analysis.hl_maximal(g)
        assert np.all(m.values >= np.abs(g.values) - 1e-12)


class TestLevelSets:
    def test_threshold_above_max_is_empty(self, system_k2):
        c = analysis.random_coeffs(9, 0, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        sf = analysis.square_function(e, 512)
        ls = analysis.level_sets(e, float(sf.values.max()) * 1.01, 0.5, 512)
        assert ls.e_measure == 0.0
        assert ls.b_measure == 0.0
        assert ls.weak_constant is None

    def test_tiny_threshold_fills_interval(self, system_k2):
        c = analysis.random_coeffs(9, 1, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        ls = analysis.level_sets(e, 1e-12, 0.5, 512)
        assert ls.e_measure == pytest.approx(1.0, abs=1e-9)
        assert ls.b_measure == 1.0

    def test_hull_matches_maximal_threshold(self, system_k2):
        # r = 1/2 keeps every partial sum of 1_E - r exact in binary, so the
        # two routes to the hull must agree bit for bit
        c = analysis.random_coeffs(9, 2, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        sf = analysis.square_function(e, 512)
        lam = float(np.quantile(sf.values, 0.7))
        ls = analysis.level_sets(e, lam, 0.5, 512)
        ind = analysis.GridFunction(G=512, values=ls.E.astype(float))
        hull = analysis.hl_maximal(ind).values > 0.5
        assert np.array_equal(ls.B, hull)
        assert np.all(ls.B[ls.E])

    def test_hull_brackets_threshold_at_uneven_r(self, system_k2):
        # a non-representable r may flip exact ties, but only those
        c = analysis.random_coeffs(9, 2, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        sf = analysis.square_function(e, 512)
        lam = float(np.quantile(sf.values, 0.7))
        r = 0.4
        ls = analysis.level_sets(e, lam, r, 512)
        m = analysis.hl_maximal(
            analysis.GridFunction(G=512, values=ls.E.astype(float))
        ).values
        assert np.all(ls.B[m > r + 1e-9])
        assert not np.any(ls.B[m < r - 1e-9])

    def test_weak_bound_recorded(self, system_k2):
        c = analysis.random_coeffs(9, 3, system_k2.size)
        e = analysis.Expansion(system=system_k2, level=12, coeffs=c)
        sf = analysis.square_function(e, 512)
        lam = float(np.quantile(sf.values, 0.5))
        ls = analysis.level_sets(e, lam, 0.3, 512)
        assert ls.weak_constant is not None
        # measure of the hull is controlled by measure of the set over r
        assert ls.b_measure <= ls.e_measure / 0.3 + 1e-12

    def test_parameter_validation(self, system_k2):
        e = analysis.Expansion(
            system=system_k2, level=12, coeffs=np.ones(system_k2.size)
        )
        with pytest.raises(DomainError):
            analysis.level_sets(e, 0.0, 0.5, 512)
        with pytest.raises(DomainError):
            analysis.level_sets(e, 1.0, 1.5, 512)


class TestUncondExperiment:
    def test_p_two_is_isometric(self):
        seq = knots.random_admissible(11, 2, 9)
        out = analysis.uncond_experiment(seq, 8, 2.0, trials=20, seed=5)
        assert out["ratio_max"] == pytest.approx(1.0, abs=1e-8)
        assert out["ratio_min"] == pytest.approx(1.0, abs=1e-8)

    def test_deterministic(self):
        seq = knots.random_admissible(11, 2, 9)
        a = analysis.uncond_experiment(seq, 8, 1.5, trials=10, seed=3)
        b = analysis.uncond_experiment(seq, 8, 1.5, trials=10, seed=3)
        assert a == b

    def test_result_keys_and_sanity(self):
        seq = knots.random_admissible(12, 3, 9)
        out = analysis.uncond_experiment(seq, 8, 3.0, trials=15, seed=1)
        assert {
            "k",
            "p",
            "N",
            "trials",
            "seed",
            "ratio_max",
            "ratio_min",
            "ratio_q95",
            "sq_ratio_max",
            "sq_ratio_min",
            "grid",
        } <= set(out)
        assert 0.0 < out["ratio_min"] <= out["ratio_max"] < 10.0
        assert out["ratio_min"] <= out["ratio_q95"] <= out["ratio_max"] + 1e-12

    def test_prebuilt_system_reused(self):
        seq = knots.random_admissible(13, 2, 9)
        system = ortho.build_system(seq, 8)
        a = analysis.uncond_experiment(seq, 8, 1.2, trials=5, seed=2, system=system)
        b = analysis.uncond_experiment(seq, 8, 1.2, trials=5, seed=2)
        assert a == b

    def test_parameter_validation(self):
        seq = knots.random_admissible(11, 2, 9)
        with pytest.raises(DomainError):
            analysis.uncond_experiment(seq, 8, 1.0, trials=5, seed=0)
        with pytest.raises(DomainError):
            analysis.uncond_experiment(seq, 8, 2.0, trials=0, seed=0)


class TestTailDecay:
    def test_order_one_tails_vanish(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.25])
        system = ortho.build_system(seq, 3)
        out = analysis.tail_decay_audit(system, 2.0, 0.5)
        # order-one functions live on two cells; every remote tail is zero
        f3 = system.function(3)
        xs = np.linspace(0.51, 1.0, 50)
        assert np.max(np.abs(f3.phi(xs))) == 0.0
        assert out["max_ratio"] >= 0.0

    def test_keys_and_gamma_validation(self, system_k2):
        out = analysis.tail_decay_audit(system_k2, 1.5, 0.4)
        assert {"k", "p", "N", "gamma", "max_ratio", "tails"} <= set(out)
        assert np.isfinite(out["max_ratio"])
        with pytest.raises(DomainError):
            analysis.tail_decay_audit(system_k2, 1.5, 1.2)

    def test_underflowing_envelope_gives_no_nan(self):
        seq = knots.random_admissible(3, 3, 201)
        system = ortho.build_system(seq, 200)
        # gamma^d underflows to 0 on the deep tails; a direct quotient gives 0/0
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="invalid value", category=RuntimeWarning)
            deep = analysis.tail_decay_audit(system, 2.0, 0.01)
        assert not math.isnan(deep["max_ratio"])
        # at gamma = 0.5 nothing underflows; the direct quotient gives 4.989656987772841
        shallow = analysis.tail_decay_audit(system, 2.0, 0.5)
        assert shallow["max_ratio"] == pytest.approx(4.989656987772841, rel=1e-12)

    def test_ratio_stable_under_doubling(self):
        seq = knots.random_admissible(19, 2, 33)
        ratios = []
        for N in (16, 32):
            system = ortho.build_system(seq, N)
            prof = gram.decay_profile(system.gram)
            out = analysis.tail_decay_audit(system, 2.0, prof.gamma_hat)
            ratios.append(out["max_ratio"])
        assert ratios[1] <= 4.0 * ratios[0] + 1e-9


def test_grid_function_lookup():
    g = analysis.GridFunction(G=8, values=np.arange(8.0))
    assert g.at(0.0) == 0.0
    assert g.at(1.0) == 7.0
    assert g.at(0.5) == 4.0
    with pytest.raises(DomainError):
        g.at(1.5)
    assert np.allclose(g.centers(), (np.arange(8) + 0.5) / 8)
