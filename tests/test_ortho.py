import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import (
    FAILS_AT_LEVEL_5,
    EmptyInterval,
    alpha_loop,
    block_levels,
    block_values,
    boehm_refine,
    dense,
    estwj_ratio,
    full_band_levels,
    gram_schmidt_oracle,
    insert_event,
    legendre_projection,
    level_records,
    next_partition,
    ortho_function,
    prolong_many,
    refinement_matrix,
    value_matrix,
    wide_sequence,
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


def cubic_build(seq, N, coeffs=None):
    """The level loop as first written, kept as the oracle of build_system.

    Re-sorts every level's partition, prolongs all earlier functions through
    each single-knot refinement, stacks a new copy of the system matrix and
    assembles the whole Gram matrix per level: O(N^3) in all.  ``coeffs``,
    when given, holds each level's coefficients to stack in place of the
    oracle's own, so that the matrix sweep can be checked bit for bit on
    the walk's window solves; the returned functions are the oracle's.
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
        F = np.vstack([F, (of.coeffs if coeffs is None else coeffs[n - 2])[None, :]])
        functions.append(of)
        part = fine
    return functions, F


LEVELS = 40
FAMILIES = ("uniform-iid", "dyadic-shuffled", "near-one", "full-multiplicity", "next-to-ends")
UNIT = 2.0**-53


def recorded_windows(monkeypatch):
    """{level: (lo, hi)}, filled with the window each level's solve is accepted on, as the walk runs."""
    windows = {}
    window_function = ortho.window_function

    def recorded(band, p, alpha, level):
        lo, c, norm2 = window_function(band, p, alpha, level)
        windows[level] = (lo, lo + len(c))
        return lo, c, norm2

    monkeypatch.setattr(ortho, "window_function", recorded)
    return windows


def window_tolerance(k):
    """Largest weighted relative difference of a window solve from the full solve of the same level.

    Each solve of the scaled Gram system A~ has normwise backward error
    below 8u, the window's certificate adding at most u to LAPACK's, so
    the two differ by at most 2 * 8u * kappa(A~).  kappa(A~) stays below
    4^k (``TestWindowSolves`` checks it at level N).
    """
    return 16 * 4**k * UNIT


def assert_same_solution(G, got, want, window):
    """got is 0 outside the window; bit-equal to want on a whole-level window, else within ``window_tolerance``.

    G is the level's Gram system; the difference is weighted by the
    B-splines' L2 norms, the square roots of its diagonal.
    """
    lo, hi = window
    assert not got[:lo].any() and not got[hi:].any()
    if hi - lo == len(got):
        assert got.tobytes() == want.tobytes()
    else:
        k = G.partition.order
        d = np.sqrt(G.band[k - 1])
        assert np.linalg.norm(d * (got - want)) <= window_tolerance(k) * np.linalg.norm(d * want)


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
                part, i0 = next_partition(seq, part)
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
    def test_matches_cubic_oracle(self, monkeypatch, k, family):
        # the walk's own block size puts all 39 levels in one block
        seq = family_sequence(family, k)
        N = len(seq.points) - 1
        windows = recorded_windows(monkeypatch)
        system = ortho.build_system(seq, N)
        functions, F = cubic_build(seq, N, system.coeffs)
        assert_same_functions(level_records(system), functions, seq, windows)
        assert np.array_equal(system.matrix, F)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_small_blocks_match_the_cubic_oracle(self, monkeypatch, k, family, block):
        # blocks of one level and of a few, so that levels cross block edges
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
        seq = family_sequence(family, k)
        N = len(seq.points) - 1
        functions, _ = cubic_build(seq, N)
        windows = recorded_windows(monkeypatch)
        assert_same_functions(level_records(ortho.build_system(seq, N)), functions, seq, windows)

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
        windows = recorded_windows(monkeypatch)
        seq = family_sequence(family, k)
        walk = ortho.levels(seq, len(seq.points) - 1)
        for n, (level_knots, band, block, b, coeffs, norm2) in enumerate(walk, start=2):
            full = bspline.gram_matrix(knots.partition_at(seq, n))
            assert level_knots.tobytes() == full.partition.knots.tobytes()
            assert block.first + b == n
            assert block.i0[b] == insert_event(seq, n)
            assert bytes_of(band) == bytes_of(full.band)
            # the walk factors windows alone; the oracle factors and solves the whole band
            want = ortho_function(full, insert_event(seq, n))
            assert_same_solution(full, coeffs, want.coeffs, windows[n])
            if windows[n] == (0, full.M):
                # the walk's norm of g, which the system does not keep, is the per-level one
                assert norm2 == want.norm2
            else:
                assert abs(norm2 - want.norm2) <= window_tolerance(k) * want.norm2


def bytes_of(array):
    """The bytes of an array's items in C order, whatever its layout."""
    return np.ascontiguousarray(array).tobytes()


def walked_gram(level_knots, band):
    """A GramSystem of copies of one level's knots and band as the walk yields them."""
    k, M = band.shape
    part = knots.Partition(order=k, knots=level_knots.copy(), level=M - k + 1, M=M)
    return bspline.GramSystem(part, np.array(band), bspline.cholesky(band, part.level))


def assert_same_functions(mine, ref, seq, windows):
    """The walk's level records against the cubic oracle's: coefficients by ``assert_same_solution``."""
    assert len(mine) == len(ref)
    for got, want in zip(mine, ref):
        assert got.level == want.level
        assert_same_solution(level_gram(seq, got.level), got.coeffs, want.coeffs, windows[got.level])
        assert got.window.tobytes() == want.window.tobytes()
        assert got.i0 == want.i0
        assert (got.j0, got.J) == (want.j0, want.J)
        assert got.alpha.tobytes() == want.alpha.tobytes()


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_block_edges_match_the_cubic_oracle(monkeypatch, offset):
    # N = B - 1 .. B + 2: the N - 1 levels 2..N fill one block short by two
    # and by one, one whole block, and one whole block plus one level.
    N = ortho.LEVEL_BLOCK + offset
    seq = knots.random_admissible(N, 3, N + 1, "dyadic-shuffled")
    windows = recorded_windows(monkeypatch)
    system = ortho.build_system(seq, N)
    functions, F = cubic_build(seq, N, system.coeffs)
    assert_same_functions(level_records(system), functions, seq, windows)
    assert np.array_equal(system.matrix, F)


@pytest.mark.parametrize("family", knots.LAWS + ("near-one", "full-multiplicity"))
@pytest.mark.parametrize("k", range(1, 7))
class TestWindowSolves:
    # N = 48k: a level has M = 49k - 1 B-splines, more than the first
    # window's 32k + 1, so levels away from the middle solve on windows.

    def test_every_window_is_certified(self, monkeypatch, k, family):
        # eta = |D^-1/2 A x| / |D^1/2 x| on the rows outside the window, from
        # the level's whole band, x the walk's coefficients, 0 off the window
        windows = recorded_windows(monkeypatch)
        partial = 0
        for level_knots, band, block, b, coeffs, _ in ortho.levels(wide_sequence(family, k, 48 * k), 48 * k):
            G = walked_gram(level_knots, band)
            lo, hi = windows[block.first + b]
            assert not coeffs[:lo].any() and not coeffs[hi:].any()
            diag = G.band[k - 1]
            outside = np.r_[0:lo, hi : G.M]
            eta = np.linalg.norm(G.apply(coeffs)[outside] / np.sqrt(diag[outside]))
            assert eta <= UNIT * np.linalg.norm(np.sqrt(diag) * coeffs)
            partial += hi - lo < G.M
        assert partial > 0

    @pytest.mark.parametrize("first", [1, ortho.FIRST_WINDOW])
    def test_poisoned_buffers_change_no_bit(self, monkeypatch, k, family, first):
        # Both buffers start as NaN, the columns past each level's last one
        # too, so a level that read an entry the walk had not written for it
        # would differ from the level made from scratch, or fail.  Windows
        # that start at h = k are rejected and widened, on the level's own
        # band in the walk and on the assembled one in the oracle.
        monkeypatch.setattr(ortho, "FIRST_WINDOW", first)
        poison(monkeypatch)
        seq = wide_sequence(family, k, 48 * k)
        walk = ortho.levels(seq, 48 * k)
        partial = 0
        oracle = full_band_levels(seq, 48 * k)
        for (level_knots, band, block, b, coeffs, norm2), want in zip(walk, oracle, strict=True):
            assert block.first + b == want.level
            assert level_knots.tobytes() == want.gram.partition.knots.tobytes()
            assert bytes_of(band) == bytes_of(want.gram.band)
            assert coeffs.tobytes() == want.coeffs.tobytes()
            assert np.float64(norm2).tobytes() == np.float64(want.norm2).tobytes()
            partial += coeffs[0] == 0.0 or coeffs[-1] == 0.0
        assert partial > 0

    def test_windows_match_the_full_band_oracle(self, monkeypatch, k, family):
        # bit-equal where the window is the whole level, else within window_tolerance
        seq = wide_sequence(family, k, 48 * k)
        want = list(full_band_levels(seq, 48 * k))
        windows = recorded_windows(monkeypatch)
        for (*_, coeffs, norm2), level in zip(ortho.levels(seq, 48 * k), want, strict=True):
            assert_same_solution(level.gram, coeffs, level.full_coeffs, windows[level.level])
            assert abs(norm2 - level.full_norm2) <= window_tolerance(k) * level.full_norm2
        # the tolerance's premise: the scaled Gram condition below 4^k
        G = level.gram
        d = np.sqrt(G.band[k - 1])
        eig = np.linalg.eigvalsh(dense(G) / np.outer(d, d))
        assert eig[-1] < 4**k * eig[0]


def poison(monkeypatch):
    """Start every buffer of the walk as NaN, in place of memory that is not initialized."""
    monkeypatch.setattr(ortho, "_buffer", lambda shape: np.full(shape, np.nan))


@pytest.mark.parametrize("block", [1, ortho.LEVEL_BLOCK])
def test_poisoned_walk_fails_at_level_5_as_it_did(monkeypatch, block):
    monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
    seq = knots.validate_admissible(3, FAILS_AT_LEVEL_5)
    with pytest.raises(NotPositiveDefinite) as clean:
        ortho.build_system(seq, 6)
    assert str(clean.value).startswith("level 5: ")
    poison(monkeypatch)
    with pytest.raises(NotPositiveDefinite) as poisoned:
        ortho.build_system(seq, 6)
    assert str(poisoned.value) == str(clean.value)


def test_blocks_do_the_local_work_in_one_assembly_call(monkeypatch):
    # One Cox-de Boor call per block of levels, and none for a whole band:
    # level 2's fresh columns are all of its band, so the walk needs no
    # level-1 Gram matrix, and fresh columns are never assembled level by
    # level.
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
    assert len(calls) == blocks < N - 1


def drained_peak(seq, N):
    """The traced peak, in floats, of a walk to level N whose consumer drops each level."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in ortho.levels(seq, N):
            pass
        return (tracemalloc.get_traced_memory()[1] - base) / 8
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_drained_walk_holds_its_buffers_and_one_block(k):
    # The walk holds its two buffers, N + 2k - 1 knots and N + k - 1 band
    # columns of k, the level-N factor, and one block's temporaries: the
    # knot windows' sort of LEVEL_BLOCK x (6k + LEVEL_BLOCK) floats and the
    # fresh columns' assembly, O(LEVEL_BLOCK k^3).  So its peak is
    # O(LEVEL_BLOCK (k^3 + LEVEL_BLOCK) + N k) floats, bounded here with a
    # constant of 16 (k = 3: 2.1e5 floats; the walk reads about 4.8e4 and
    # one that keeps a knot vector or a band per block of levels, 2.7e5).
    # A level keeps nothing of length M past itself: from N = 1000 to 2000
    # the peak grows by a few floats per level, where a new knot vector and
    # band per level would leave it about 130 per level higher.
    B = ortho.LEVEL_BLOCK
    seq = knots.random_admissible(1, k, 2001)
    peak = drained_peak(seq, 2000)
    assert peak < 16 * (B * (k**3 + B) + 2000 * k)
    assert peak - drained_peak(seq, 1000) < 8 * k * 1000


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


@pytest.mark.parametrize("block", [1, 3, ortho.LEVEL_BLOCK])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_a_level_inside_a_block_fails_as_the_cubic_oracle(monkeypatch, k, block):
    # The least subnormal knot arrives at level 5, inside a block of 3 or 64
    # levels: the walk yields levels 2..4, then fails at level 5 with the
    # message of the per-level walk, whose fresh columns were not finite.
    monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
    least = float(np.nextafter(0.0, 1.0))
    seq = knots.validate_admissible(k, [0.0, 1.0, 0.5, 0.25, 0.75, least, 0.125])
    want = "level 5: " + (
        "1-th leading minor not positive definite" if k == 1 else "array must not contain infs or NaNs"
    )
    walked = []
    with np.errstate(all="ignore"):
        with pytest.raises(NotPositiveDefinite) as oracle:
            cubic_build(seq, 6)
        with pytest.raises(NotPositiveDefinite) as got:
            for _, _, block_, b, _, _ in ortho.levels(seq, 6):
                walked.append(block_.first + b)
    assert str(oracle.value) == str(got.value) == want
    assert walked == [2, 3, 4]


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
        walked = []
        for level_knots, band, block, b, coeffs, _ in ortho.levels(seq, 11):
            # the knots and band are views the walk overwrites: read them while they are current
            assert level_knots.tobytes() == knots.partition_at(seq, block.first + b).knots.tobytes()
            walked.append((block.first + b, coeffs))
        assert [n for n, _ in walked] == list(range(2, 12))
        for (_, coeffs), kept in zip(walked, level_records(system), strict=True):
            assert np.array_equal(coeffs, kept.coeffs)
        assert bytes_of(band) == bytes_of(system.gram.band)

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
