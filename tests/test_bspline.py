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
)

from orthosplines import bspline, knots, ortho
from orthosplines.errors import (
    DomainError,
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
        # a rule's nodes come in whole spans, each node on its own span
        rule = bspline.QuadratureRule.over_spans(p.knots, 3)
        blocks = list(bspline.rule_blocks(p, rule))
        assert [lo for lo, _, _ in blocks] == [0, 6]
        first, vals = bspline.eval_basis_many(p, rule_nodes(p.knots, rule).ravel())
        assert np.array_equal(np.concatenate([f for _, f, _ in blocks]), first)
        assert np.allclose(np.concatenate([v for _, _, v in blocks]), vals, rtol=0, atol=1e-15)
        # a span longer than the block still makes progress
        rule = bspline.QuadratureRule.over_spans(p.knots, 10)
        assert [lo for lo, _, _ in bspline.rule_blocks(p, rule)] == [0, 10, 20]


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
        assert np.allclose(B @ rhs, G.solve(rhs), atol=1e-12)
        assert np.allclose(streamed_inverse(G), B, atol=1e-12)

    @pytest.mark.parametrize("M", [255, 256, 257, 513])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_inverse_blocks_are_the_dense_recurrence_bit_for_bit(self, k, M):
        # Blocks of 256 columns from the right: one block of 255 or 256, a
        # one-column block carrying kd columns into the next, or three blocks.
        G = bspline.gram_matrix(part(k, knots.random_admissible(M, k, M - k + 2).points))
        assert G.M == M
        B = recurrence_inverse(G)
        starts = []
        for start, rows in G.inverse_columns():
            starts.append(start)
            assert rows.shape == (min(256, M - start), M - start)
            for c, row in enumerate(rows):
                j = start + c
                assert np.array_equal(row, np.concatenate([B[j:, j], np.zeros(c)])), f"column {j}"
        assert starts == list(range(0, M, 256))[::-1]
        assert np.array_equal(G.inverse_diagonal, np.diagonal(B))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_refine_reassembles_the_columns_touching_the_new_knot(self, monkeypatch, k):
        # 0-based columns p-k..p+k-1 hold a B-spline whose knots include tau_{p+1}
        seq = knots.random_admissible(k, k, 30)
        calls = []
        refine_gram = bspline.refine_gram

        def recorded(G, fine, i0, fresh):
            calls.append((i0, fine.M, fresh))
            return refine_gram(G, fine, i0, fresh)

        monkeypatch.setattr(ortho, "refine_gram", recorded)
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", 7)
        for _ in ortho.levels(seq, 29):
            pass
        assert len(calls) == 28
        for n, (i0, M, fresh) in enumerate(calls, start=2):
            p = i0 - 1
            full = bspline.gram_matrix(knots.partition_at(seq, n))
            assert np.array_equal(fresh, full.band[:, p - k : min(M, p + k)])


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
