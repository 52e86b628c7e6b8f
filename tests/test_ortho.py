import hashlib

import numpy as np
import pytest
from oracles import (
    EmptyInterval,
    alpha_loop,
    block_levels,
    block_values,
    boehm_refine,
    dense,
    estwj_ratio,
    gram_schmidt_oracle,
    insert_event,
    legendre_projection,
    level_records,
    ortho_function,
    prolong_many,
    refinement_matrix,
    value_matrix,
)

from orthosplines import bspline, knots, ortho
from orthosplines.errors import (
    LevelOutOfRange,
    NotPositiveDefinite,
)


def level_gram(seq, n):
    return bspline.gram_matrix(knots.partition_at(seq, n))


def alpha_of(part, i0):
    return ortho.alpha_coefficients(*boehm_refine(part, i0))


def cubic_build(seq, N):
    """The level loop as first written, kept as the oracle of build_system.

    Re-sorts every level's partition, prolongs all earlier functions through
    each single-knot refinement, stacks a new copy of the system matrix and
    assembles the whole Gram matrix per level: O(N^3) in all.
    """
    k = seq.order
    block = ortho.initial_block(k)
    part = knots.boundary_partition(k)
    F = ortho.polynomial_coeffs_over(part, block)
    functions = []
    for n in range(2, N + 1):
        fine = knots.partition_at(seq, n)
        i0 = insert_event(seq, n)
        F = prolong_many(F, part, fine, i0)
        of = ortho_function(bspline.gram_matrix(fine), i0)
        F = np.vstack([F, of.coeffs[None, :]])
        functions.append(of)
        part = fine
    return functions, F


LEVELS = 40
FAMILIES = ("uniform-iid", "dyadic-shuffled", "near-one", "full-multiplicity", "next-to-ends")


def family_sequence(family, k):
    """A sequence of at most LEVELS + 1 points of one family, for order k."""
    if family in knots.LAWS:
        return knots.random_admissible(20 + k, k, LEVELS + 1, family)
    if family == "near-one":
        interior = [1.0 - 2.0**-j for j in range(1, LEVELS)]
    elif family == "full-multiplicity":
        interior = [(2 * i + 1) / 32.0 for i in range(16) for _ in range(k)][: LEVELS - 1]
    else:
        tiny = 2.0**-1000
        interior = [tiny, np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 2 * tiny, 0.5]
        interior += list(np.random.default_rng(k).random(LEVELS - 1 - len(interior)))
    return knots.validate_admissible(k, [0.0, 1.0] + interior)


class TestAlphaCoefficients:
    def test_order_one(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        alpha = alpha_of(part, 2)
        assert np.allclose(alpha, [1.0, -1.0], atol=1e-15)

    def test_order_two_uniform(self):
        seq = knots.validate_admissible(2, [0, 1, 0.5])
        part = knots.partition_at(seq, 2)
        alpha = alpha_of(part, 3)
        assert np.allclose(alpha, [0.5, -1.0, 0.5], atol=1e-15)

    def test_annihilates_coarse_rows(self):
        # alpha extended by zeros lies in the kernel of the refinement map
        for sd, k in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]:
            seq = knots.random_admissible(sd, k, 9)
            for n in range(3, 9):
                coarse = knots.partition_at(seq, n - 1)
                fine = knots.partition_at(seq, n)
                i0 = insert_event(seq, n)
                R = refinement_matrix(coarse, fine, i0)
                alpha = alpha_of(fine, i0)
                ext = np.zeros(fine.M)
                ext[i0 - k - 1 : i0] = alpha
                assert np.max(np.abs(R @ ext)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_bytes_match_the_knot_ratio_loop(self, k):
        rng = np.random.default_rng(k)
        # full multiplicity: each value k times, the copies interleaved
        values = [0.5, 0.25, 0.75, 0.125, 0.625, 0.3, 0.9]
        full = [values[i] for i in rng.permutation(np.repeat(np.arange(len(values)), k))]
        seqs = [knots.random_admissible(sd, k, 60, law) for sd in (1, 2) for law in knots.LAWS]
        seqs.append(knots.validate_admissible(k, [0.0, 1.0] + full))
        for seq in seqs:
            part = knots.boundary_partition(k)
            for _ in range(2, len(seq.points)):
                part, i0 = knots.next_partition(seq, part)
                got = alpha_of(part, i0)
                assert got.tobytes() == alpha_loop(part, i0).tobytes()

    def test_alternation_and_bound(self):
        for sd in range(8):
            k = 1 + sd % 5
            seq = knots.random_admissible(sd, k, 10)
            for n in range(2, 10):
                part = knots.partition_at(seq, n)
                i0 = insert_event(seq, n)
                alpha = alpha_of(part, i0)
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
        of = ortho_function(G, 2)
        assert np.allclose(of.norm2 * of.coeffs, [2.0, -2.0], atol=1e-14)
        assert of.norm2 == pytest.approx(2.0, abs=1e-14)
        assert np.allclose(of.coeffs, [1.0, -1.0], atol=1e-14)

    def test_unnormalized_sign_at_insert(self):
        for sd, k in [(5, 1), (6, 2), (7, 3), (8, 4)]:
            seq = knots.random_admissible(sd, k, 8)
            for n in range(2, 8):
                G = level_gram(seq, n)
                i0 = insert_event(seq, n)
                of = ortho_function(G, i0)
                assert np.sign(of.norm2 * of.coeffs[i0 - 1]) == (-1.0) ** k

    def test_products_share_sign_per_column(self):
        # each w_l is a sum of alpha_j b_jl terms that all carry one sign
        seq = knots.random_admissible(10, 3, 12)
        n = 11
        G = level_gram(seq, n)
        i0 = insert_event(seq, n)
        of = ortho_function(G, i0)
        w = of.norm2 * of.coeffs
        B = np.linalg.inv(dense(G))
        k = seq.order
        js = np.arange(i0 - k - 1, i0)
        for ell in range(G.M):
            terms = of.alpha * B[js, ell]
            total = float(np.sum(terms))
            assert abs(total) == pytest.approx(np.sum(np.abs(terms)), abs=1e-14)
            assert total == pytest.approx(float(w[ell]), abs=1e-12)

    def test_orthogonal_to_coarse_levels(self):
        seq = knots.random_admissible(12, 2, 9)
        xs = None
        for n in range(3, 9):
            G = level_gram(seq, n)
            i0 = insert_event(seq, n)
            of = ortho_function(G, i0)
            coarse = knots.partition_at(seq, n - 1)
            fine = knots.partition_at(seq, n)
            R = refinement_matrix(coarse, fine, i0)
            # inner products with every coarse B-spline via the fine gram
            inner = R @ G.apply(of.coeffs)
            assert np.max(np.abs(inner)) <= 1e-10


class TestInitialBlock:
    def test_order_one_constant(self):
        block = ortho.initial_block(1)
        assert list(block_levels(block)) == [1]
        xs = np.linspace(0, 1, 7)
        assert np.allclose(block_values(block, xs)[0], 1.0, atol=1e-14)

    def test_order_two_linear(self):
        block = ortho.initial_block(2)
        assert list(block_levels(block)) == [0, 1]
        xs = np.linspace(0, 1, 7)
        vals = block_values(block, xs)
        assert np.allclose(vals[0], 1.0, atol=1e-14)
        assert np.allclose(vals[1], np.sqrt(3) * (2 * xs - 1), atol=1e-13)

    def test_orthonormal_on_unit_interval(self):
        from numpy.polynomial.legendre import leggauss

        block = ortho.initial_block(5)
        ref_x, ref_w = leggauss(12)
        xs, ws = 0.5 * (ref_x + 1), 0.5 * ref_w
        V = block_values(block, xs)
        G = (V * ws) @ V.T
        assert np.max(np.abs(G - np.eye(5))) <= 1e-13

    def test_leading_coefficients_positive(self):
        block = ortho.initial_block(4)
        for p in block:
            assert p.convert(kind=np.polynomial.Polynomial).coef[-1] > 0


class TestLegendreProjection:
    def test_linear_to_constant(self):
        proj = legendre_projection(lambda x: x, (0.0, 1.0), 1)
        xs = np.linspace(0, 1, 5)
        assert np.allclose(proj(xs), 0.5, atol=1e-14)

    def test_symmetric_square(self):
        proj = legendre_projection(lambda x: x * x, (-1.0, 1.0), 2)
        xs = np.linspace(-1, 1, 5)
        assert np.allclose(proj(xs), 1 / 3, atol=1e-13)

    def test_idempotent_on_low_order(self):
        poly = np.polynomial.Polynomial([1.0, -2.0, 3.0])
        proj = legendre_projection(poly, (0.2, 0.9), 3)
        xs = np.linspace(0.2, 0.9, 9)
        assert np.max(np.abs(proj(xs) - poly(xs))) <= 1e-12

    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyInterval):
            legendre_projection(lambda x: x, (0.5, 0.5), 2)

    def test_operator_norm_recorded(self):
        # averaging operator bound on a handful of random polynomials
        rng = np.random.default_rng(3)
        worst = 0.0
        for p in (1.0, 1.5, 2.0, np.inf):
            for _ in range(5):
                poly = np.polynomial.Polynomial(rng.standard_normal(6))
                proj = legendre_projection(poly, (0.1, 0.8), 3)
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
                i0 = insert_event(seq, n)
                fast = ortho_function(G, i0)
                oracle = gram_schmidt_oracle(seq, n)
                s = np.sign(fast.coeffs @ oracle.coeffs)
                assert np.linalg.norm(fast.coeffs - s * oracle.coeffs) <= 1e-8

    def test_unit_inner_product(self):
        seq = knots.random_admissible(31, 3, 7)
        for n in range(2, 7):
            G = level_gram(seq, n)
            i0 = insert_event(seq, n)
            fast = ortho_function(G, i0)
            oracle = gram_schmidt_oracle(seq, n)
            inner = float(fast.coeffs @ G.apply(oracle.coeffs))
            assert abs(inner) == pytest.approx(1.0, abs=1e-9)


class TestEstwjRatio:
    def test_order_one_is_exact(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.25])
        G = level_gram(seq, 3)
        i0 = insert_event(seq, 3)
        of = ortho_function(G, i0)
        assert estwj_ratio(of, G) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_away_from_zero(self):
        lows = []
        for sd in range(6):
            seq = knots.random_admissible(sd, 3, 12)
            low = np.inf
            for n in range(2, 12):
                G = level_gram(seq, n)
                i0 = insert_event(seq, n)
                of = ortho_function(G, i0)
                low = min(low, estwj_ratio(of, G))
            lows.append(low)
        assert min(lows) > 0.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
class TestIncrementalBuild:
    def test_matches_cubic_oracle(self, k, family):
        # the walk's own block size puts all 39 levels in one block
        seq = family_sequence(family, k)
        N = len(seq.points) - 1
        functions, F = cubic_build(seq, N)
        system = ortho.build_system(seq, N)
        assert_same_functions(level_records(system), functions)
        assert np.array_equal(system.matrix, F)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_small_blocks_match_the_cubic_oracle(self, monkeypatch, k, family, block):
        # blocks of one level and of a few, so that levels cross block edges
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
        seq = family_sequence(family, k)
        N = len(seq.points) - 1
        functions, _ = cubic_build(seq, N)
        assert_same_functions(level_records(ortho.build_system(seq, N)), functions)

    def test_positions_give_every_level_its_knots(self, k, family):
        # level n's knots are the level-N ones at the boundary and at the
        # positions of t_2..t_n, byte for byte
        seq = family_sequence(family, k)
        N = len(seq.points) - 1
        system = ortho.build_system(seq, N)
        finest = system.gram.partition.knots
        assert np.array_equal(finest[system.positions], seq.points[2:])
        inserted = np.ones(len(finest), dtype=np.intp)
        inserted[system.positions] = np.arange(2, N + 1)
        for n in range(2, N + 1):
            assert finest[inserted <= n].tobytes() == knots.partition_at(seq, n).knots.tobytes()

    def test_local_band_equals_full_assembly(self, monkeypatch, k, family):
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", 7)
        seq = family_sequence(family, k)
        for n, (G, block, b, coeffs, norm2) in enumerate(ortho.levels(seq, len(seq.points) - 1), start=2):
            full = bspline.gram_matrix(knots.partition_at(seq, n))
            assert G.partition == full.partition
            assert block.first + b == n
            assert block.i0[b] == insert_event(seq, n)
            assert np.array_equal(G.band, full.band)
            assert np.array_equal(G.factor, full.factor)
            # the walk's norm of g, which the system does not keep, is the per-level one
            want = ortho_function(full, insert_event(seq, n))
            assert norm2 == want.norm2
            assert coeffs.tobytes() == want.coeffs.tobytes()


def assert_same_functions(mine, ref):
    assert len(mine) == len(ref)
    for got, want in zip(mine, ref):
        assert got.level == want.level
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.window.tobytes() == want.window.tobytes()
        assert got.i0 == want.i0
        assert (got.j0, got.J) == (want.j0, want.J)
        assert got.alpha.tobytes() == want.alpha.tobytes()


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_block_edges_match_the_cubic_oracle(offset):
    # N = B - 1 .. B + 2: the N - 1 levels 2..N fill one block short by two
    # and by one, one whole block, and one whole block plus one level.
    N = ortho.LEVEL_BLOCK + offset
    seq = knots.random_admissible(N, 3, N + 1, "dyadic-shuffled")
    functions, F = cubic_build(seq, N)
    system = ortho.build_system(seq, N)
    assert_same_functions(level_records(system), functions)
    assert np.array_equal(system.matrix, F)


def test_blocks_do_the_local_work_in_one_assembly_call(monkeypatch):
    # One Cox-de Boor call for the level-1 Gram matrix, then one per block of
    # levels: fresh columns are never assembled level by level.
    calls = []
    span_basis = bspline._span_basis

    def counted(*args):
        calls.append(args)
        return span_basis(*args)

    monkeypatch.setattr(bspline, "_span_basis", counted)
    seq = knots.random_admissible(3, 3, 300)
    N = 299
    for _ in ortho.levels(seq, N):
        pass
    blocks = -(-(N - 1) // ortho.LEVEL_BLOCK)
    assert len(calls) == 1 + blocks < N - 1


# Knots a few subnormal or smallest-normal ulps from 0: the first gives an
# infinite norm2 at level 2, the second an infinite Gram band entry.
NON_FINITE = {
    "smallest-normals": [0.0, 1.0, 2.0**-1022, 0.5, 0.25, 0.75, 2.0**-1021, 0.125],
    "next-to-zero": [0.0, 1.0, float(np.nextafter(0.0, 1.0)), 0.5],
}


class TestNonFiniteLevels:
    @pytest.mark.parametrize("family", sorted(NON_FINITE))
    @pytest.mark.parametrize("k", [3, 4])
    def test_build_fails_naming_the_level(self, k, family):
        seq = knots.validate_admissible(k, NON_FINITE[family])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotPositiveDefinite, match="level 2"):
                ortho.build_system(seq, len(seq.points) - 1)

    @pytest.mark.parametrize("block", [1, ortho.LEVEL_BLOCK])
    @pytest.mark.parametrize("family", sorted(NON_FINITE))
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_walk_fails_as_the_cubic_oracle(self, monkeypatch, k, family, block):
        # The same exception and message, whether the failing level was
        # computed in a block ahead of the walk or on its own.
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
        seq = knots.validate_admissible(k, NON_FINITE[family])
        N = len(seq.points) - 1
        want = NON_FINITE_ERRORS[family](k)
        with np.errstate(all="ignore"):
            for build in (cubic_build, ortho.build_system):
                if want is None:
                    build(seq, N)
                    continue
                with pytest.raises(NotPositiveDefinite) as got:
                    build(seq, N)
                assert str(got.value) == want


# The message each family fails with at order k, as the per-level walk gave it.
NON_FINITE_ERRORS = {
    "smallest-normals": lambda k: (
        None if k < 3 else "level 2: complement function not finite, norm inf"
    ),
    "next-to-zero": lambda k: (
        "level 2: 1-th leading minor not positive definite"
        if k == 1
        else "level 2: array must not contain infs or NaNs"
    ),
}


class TestBuildSystem:
    def test_size_and_levels(self):
        seq = knots.random_admissible(2, 3, 10)
        system = ortho.build_system(seq, 9)
        assert system.size == system.gram.partition.M
        assert system.order == 3
        records = level_records(system)
        assert [rec.level for rec in records] == list(range(2, 10))
        # the polynomials take rows 0..k-1, level n row n + k - 2: level N the last
        assert len(system.polynomials) == 3
        assert np.array_equal(system.matrix[-1], records[-1].coeffs)

    def test_collects_the_levels_walk(self):
        seq = knots.random_admissible(6, 3, 12)
        system = ortho.build_system(seq, 11)
        walked = list(ortho.levels(seq, 11))
        assert [block.first + b for _, block, b, _, _ in walked] == list(range(2, 12))
        for (G, block, b, coeffs, _), kept in zip(walked, level_records(system)):
            assert G.partition == knots.partition_at(seq, block.first + b)
            assert np.array_equal(coeffs, kept.coeffs)
        assert np.array_equal(walked[-1][0].band, system.gram.band)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_a_function_holds_order_k_numbers_besides_its_coeffs(self, k):
        seq = knots.random_admissible(8, k, 301)
        system = ortho.build_system(seq, 300)
        assert [len(c) for c in system.coeffs] == [n + k - 1 for n in range(2, 301)]
        assert [block.first for block in system.blocks] == list(range(2, 301, ortho.LEVEL_BLOCK))
        for block in system.blocks:
            B = len(block.i0)
            for name, value in vars(block).items():
                assert not isinstance(value, knots.Partition), name
                if isinstance(value, np.ndarray):
                    assert len(value) == B and value.size <= 5 * k * B, name
            assert block.windows.shape == (B, 5 * k - 2)
            assert block.alpha.shape == (B, k + 1)
            assert block.J.shape == (B, 2)

    def test_level_below_two_is_a_level_error(self):
        seq = knots.random_admissible(6, 3, 12)
        with pytest.raises(LevelOutOfRange, match="at least 2"):
            ortho.build_system(seq, 1)

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
        vals = value_matrix(system, xs)
        block_vals = block_values(system.polynomials, xs)
        assert np.max(np.abs(vals[: seq.order] - block_vals)) <= 1e-11

    def test_export_records_shape(self):
        seq = knots.random_admissible(4, 2, 6)
        recs = [ortho.export_record(*level) for level in ortho.levels(seq, 5)]
        assert [r["level"] for r in recs] == [2, 3, 4, 5]
        for n, r in enumerate(recs, start=2):
            assert set(r) == {"level", "i0", "knots-hash", "coeffs", "J", "norm2"}
            assert r["norm2"] > 0.0
            # exact Python types: the report writer dispatches on them
            assert [type(r[key]) for key in ("level", "i0", "norm2")] == [int, int, float]
            assert [type(x) for x in r["J"]] == [float, float]
            assert r["knots-hash"] == hashlib.sha256(knots.partition_at(seq, n).knots.tobytes()).hexdigest()

    def test_export_does_not_form_the_matrix(self):
        seq = knots.random_admissible(4, 3, 30)
        system = ortho.build_system(seq, 29)
        for level in ortho.levels(seq, 29):
            ortho.export_record(*level)
        assert system.size == system.gram.partition.M
        assert "matrix" not in system.__dict__
        F = system.matrix
        assert system.matrix is F
        assert F.shape == (system.size, system.size) and F.flags.c_contiguous

    def test_level_beyond_the_points(self):
        seq = knots.random_admissible(4, 2, 6)
        with pytest.raises(LevelOutOfRange):
            ortho.build_system(seq, 6)

    def test_deterministic_rebuild(self):
        seq = knots.random_admissible(5, 2, 8)
        a = ortho.build_system(seq, 7)
        b = ortho.build_system(seq, 7)
        assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("k", range(1, 6))
def test_mirrored_dyadic_sequence_mirrors_every_function(k):
    # 1 - t is exact for a dyadic t, so the mirrored sequence's system is the
    # mirror image: |phi'_n(x)| = |phi_n(1 - x)| for every function, the
    # first k polynomials included.  The 39 interior knots have denominators
    # up to 2^6; the centers of 2^8 cells are none of them, and 1 - x is
    # exact for each center.
    seq = knots.random_admissible(1, k, 41, "dyadic-shuffled")
    mirror = knots.validate_admissible(k, [0.0, 1.0] + [1.0 - t for t in seq.points[2:]])
    xs = (np.arange(2**8) + 0.5) / 2**8
    assert np.array_equal(1.0 - (1.0 - xs), xs)
    phi = value_matrix(ortho.build_system(seq, 40), 1.0 - xs)
    phi_mirror = value_matrix(ortho.build_system(mirror, 40), xs)
    assert np.abs(np.abs(phi_mirror) - np.abs(phi)).max() <= 1e-13 * np.abs(phi).max()
