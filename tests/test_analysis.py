import importlib.util
import math
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    Spline,
    alpha_loop,
    boehm_identity_loop,
    char_norms_loop,
    characteristic_interval,
    d_point,
    exact_right_tails,
    expand,
    expansion_values,
    hl_maximal,
    level_records,
    level_sets,
    level_spline,
    lp_norm,
    matrix_row_major,
    maximal_function,
    reconstruction,
    rule_nodes,
    span_integrals_whole,
    square_function,
    tail_decay_loop,
    value_matrix,
)

from orthosplines import analysis, bspline, charint, gram, knots, ortho
from orthosplines.errors import DomainError, LevelOutOfRange


@pytest.fixture(scope="module")
def system_k2():
    seq = knots.random_admissible(7, 2, 13)
    return ortho.build_system(seq, 12)


def benchmark_sequence(law, seed, k, n):
    """The knot sequence the benchmark draws for (law, k, n) from its seed (perfbench/inputs.py)."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return knots.sequence_from_dict(inputs.points(law, seed, k, n, zlib.crc32(f"{law}/{k}/{n}".encode())))


def span_integrals(system, rule, p):
    """``analysis.span_integrals`` of every system function, on the rule's nodes."""
    return analysis.span_integrals(system.matrix, rule, bspline.rule_blocks(system.gram.partition, rule), p)


def tail_scores(audit):
    """The tail audit's report without its norms on J_n, as ``tail_decay_loop`` gives it."""
    return {key: value for key, value in audit.items() if key not in ("band_min", "band_max")}


def centers(G):
    return (np.arange(G) + 0.5) / G


def cell_values(system, G):
    """The system's dense value matrix on the centers of G cells."""
    return value_matrix(system, analysis.cell_centers(system, G))


def cell_sf(system, coeffs, G):
    """The square function on the centers of G cells."""
    return square_function(system, coeffs, analysis.cell_centers(system, G))


class TestExpand:
    def test_recovers_single_function(self, system_k2):
        f = level_spline(system_k2.seq, level_records(system_k2)[-1])  # lives on the finest partition
        a = expand(f, system_k2)
        row = 12 + system_k2.order - 2
        assert a[row] == pytest.approx(1.0, abs=1e-10)
        others = np.delete(a, row)
        assert np.max(np.abs(others)) <= 1e-10

    def test_constant_hits_block_head(self, system_k2):
        a = expand(lambda x: np.ones_like(x), system_k2)
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(a[1:])) <= 1e-10

    def test_callable_path_matches_spline_path(self, system_k2):
        c = np.random.default_rng(0).standard_normal(system_k2.size)
        f = Spline(system_k2.gram.partition, c)
        exact = expand(f, system_k2)
        quad = expand(lambda xs: f(xs), system_k2)
        assert np.max(np.abs(exact - quad)) <= 1e-10

    def test_parseval(self, system_k2):
        c = np.random.default_rng(1).standard_normal(system_k2.size)
        f = Spline(system_k2.gram.partition, c)
        a = expand(f, system_k2)
        assert float(a @ a) == pytest.approx(
            lp_norm(f, 2.0) ** 2, abs=1e-8
        )

    def test_reconstruction_roundtrip(self, system_k2):
        c = np.random.default_rng(2).standard_normal(system_k2.size)
        f = Spline(system_k2.gram.partition, c)
        g = reconstruction(system_k2, expand(f, system_k2))
        xs = np.linspace(0, 1, 500)
        assert np.max(np.abs(f(xs) - g(xs))) <= 1e-9

    def test_truncation_level(self, system_k2):
        a = expand(lambda x: np.ones_like(x), system_k2, N=3)
        assert len(a) == 3 + system_k2.order - 1
        with pytest.raises(LevelOutOfRange):
            expand(lambda x: x, system_k2, N=13)


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

    def test_signs_are_pm_one(self):
        s = analysis.random_signs(2, 7, 50)
        assert set(np.unique(s)) <= {-1.0, 1.0}
        assert np.array_equal(s, analysis.random_signs(2, 7, 50))


class TestQuantile:
    @pytest.mark.parametrize("q", [0.0, 0.6, 0.95, 1.0, 0.5, 1 / 3])
    def test_bit_equal_to_numpy(self, q):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 7, 20, 4096):
            draws = [rng.standard_normal(n), rng.random(n) * 1e-300, np.exp(rng.standard_normal(n) * 30)]
            # ties: few distinct values, and all values equal
            draws += [rng.integers(0, 3, n).astype(float), np.full(n, 0.1)]
            for values in draws:
                want = np.quantile(values, q)
                got = analysis.quantile(values.copy(), q)
                assert np.float64(got).tobytes() == want.tobytes()

    def test_leaves_its_input_alone(self):
        values = np.random.default_rng(5).random(100)
        kept = values.copy()
        analysis.quantile(values, 0.6)
        assert np.array_equal(values, kept)

    def test_nan_and_inf_as_numpy(self):
        for values in ([1.0, np.nan, 3.0], [1.0, np.inf, 2.0], [np.inf, np.inf], [-np.inf, 0.0, np.inf]):
            for q in (0.0, 0.6, 0.95, 1.0):
                with np.errstate(invalid="ignore"):
                    want = np.quantile(np.array(values), q)
                got = analysis.quantile(np.array(values), q)
                assert np.float64(got).tobytes() == want.tobytes()


def family_sequence(family, k, n_points):
    """A sequence of n_points points of one knot family, for order k.

    The laws of ``knots.LAWS``; knots 1 - 2^-j and their mirror 2^-j;
    every value k times; knots next to 0 and 1.  Short families are filled
    up with uniform draws.
    """
    m = n_points - 2
    if family in knots.LAWS:
        return knots.random_admissible(30 + k, k, n_points, family)
    if family == "near-one":
        interior = [1.0 - 2.0**-j for j in range(1, 51)]
    elif family == "mirror":
        interior = [2.0**-j for j in range(1, m + 1)]
    elif family == "full-multiplicity":
        interior = [(2 * i + 1) / 256.0 for i in range(128) for _ in range(k)]
    else:
        tiny = 2.0**-1000
        interior = [tiny, float(np.nextafter(1.0, 0.0)), 1.0 - 2.0**-52, 2 * tiny, 0.5]
    interior = (interior + np.random.default_rng(k).random(m).tolist())[:m]
    return knots.validate_admissible(k, [0.0, 1.0] + interior)


def knot_points(seq, N):
    """A grid of 1,000 points, every knot value of level N and its two float neighbours, unsorted."""
    finest = knots.distinct(knots.partition_at(seq, N).knots)
    near = np.concatenate([finest, np.nextafter(finest[1:], 0.0), np.nextafter(finest[:-1], 1.0)])
    xs = np.concatenate([np.linspace(0.0, 1.0, 1000), near])
    return xs[np.random.default_rng(1).permutation(len(xs))]


FAMILIES = knots.LAWS + ("near-one", "mirror", "full-multiplicity", "next-to-ends")
BLOCKS = (1, 7, 64)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", range(1, 7))
class TestLevelPasses:
    """The block passes of verify against their level-by-level oracles, bit for bit.

    N = 63..66, one N per order, puts the N - 1 levels one and two short of
    a block of 64, at one block, and one past it; blocks of 1 and 7 cross
    block edges.  A system keeps the blocks it was built in, so each block
    size gets a build of its own.
    """

    @pytest.fixture
    def sequence(self, family, k):
        N = 63 + (k - 1) % 4
        return family_sequence(family, k, N + 1), N

    def systems(self, monkeypatch, sequence):
        """Yield the system of the sequence built in blocks of each size of BLOCKS."""
        for block in BLOCKS:
            monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
            yield ortho.build_system(*sequence)

    def test_knot_blocks_match_the_level_oracles(self, monkeypatch, sequence):
        seq, N = sequence
        k = seq.order
        for block in (1, 7):
            monkeypatch.setattr(ortho, "LEVEL_BLOCK", block)
            n = 2
            for parts, kb in ortho.knot_blocks(seq, N):
                assert kb.first == n and len(parts) == len(kb.i0) <= block
                j0s, _ = charint.characteristic_intervals(kb.windows[:, k - 1 : 3 * k], kb.alpha, kb.i0)
                for b, part in enumerate(parts):
                    want = knots.partition_at(seq, n + b)
                    assert part == want
                    i0 = int(kb.i0[b])
                    alpha = alpha_loop(want, i0)
                    j0, J = characteristic_interval(want, i0, alpha)
                    window = want.knots.take(i0 - 1 + np.arange(1 - 2 * k, 3 * k - 1), mode="clip")
                    assert kb.alpha[b].tobytes() == alpha.tobytes()
                    assert (int(j0s[b]), tuple(kb.J[b].tolist())) == (j0, J)
                    assert kb.windows[b].tobytes() == window.tobytes()
                n += len(parts)
            assert n == N + 1

    def test_passes_match_the_level_loops(self, monkeypatch, sequence):
        xs = knot_points(*sequence)
        want = None
        bands = set()
        for system in self.systems(monkeypatch, sequence):
            if want is None:
                want = (
                    boehm_identity_loop(system, 3, xs),
                    char_norms_loop(system, 2.0),
                    tail_decay_loop(system, (2.0,), (0.5, 0.01)),
                )
            boehm, norms, tails = want
            assert analysis.boehm_identity_error(system, 3, xs) == boehm
            # At gamma = 0.01 a distance off by one moves max_ratio 100 times.
            for gamma in (0.5, 0.01):
                audit = analysis.tail_decay_audit(system, 2.0, gamma)
                assert tail_scores(audit) == tails[2.0, gamma]
                bands.add((audit["band_min"], audit["band_max"]))
        # The norms on J_n are sums of the audit's pieces: they differ from a
        # rule of their own on each J_n by rounding alone, and keep their
        # bits in any block of levels.
        [band] = bands
        assert band == pytest.approx((norms.min(), norms.max()), rel=1e-14, abs=0.0)

    def test_knot_distances_match_d_point(self, monkeypatch, sequence):
        for system in self.systems(monkeypatch, sequence):
            x = knots.distinct(system.gram.partition.knots)
            for block in system.blocks:
                keep, dn = charint.knot_distances(system, block)
                assert keep.shape == dn.shape == (len(block.J), len(x))
                for b, (c, d) in enumerate(block.J.tolist()):
                    level_knots = knots.partition_at(system.seq, block.first + b).knots
                    values = knots.distinct(level_knots)
                    want = values[(values <= c) | (values >= d)]
                    assert np.array_equal(x[keep[b]], want)
                    assert np.array_equal(dn[b, keep[b]], d_point(level_knots, (c, d), want))

    def test_reused_basis_values_equal_a_fresh_evaluation(self, sequence):
        # What boehm_identity_error rests on.  A point off the fine spans
        # p-k+1..p+k-2 keeps its level n - 1 basis values, one span to the
        # right past t_n.  On them, the level's knot window gives the fresh
        # level-n values, and the window without its new knot the level n - 1
        # ones, bit for bit.
        seq, N = sequence
        k = seq.order
        xs = knot_points(seq, N)
        coarse = bspline.eval_basis_many(knots.boundary_partition(k), xs)
        for parts, block in ortho.knot_blocks(seq, N):
            for b, part in enumerate(parts):
                fine = bspline.eval_basis_many(part, xs)
                p = int(block.i0[b]) - 1
                spans = fine[0] + k - 2
                on = (spans >= p - k + 1) & (spans <= p + k - 2)
                shift = xs >= seq.points[block.first + b]
                assert np.array_equal(fine[0][~on], (coarse[0] + shift)[~on])
                assert fine[1][~on].tobytes() == coarse[1][~on].tobytes()
                window = block.windows[b : b + 1]
                shrunk = np.delete(window, 2 * k - 1, axis=1)
                for (first, vals), knots_ in ((fine, window), (coarse, shrunk)):
                    slot = first[on] + k - 2 - p + 2 * k - 1
                    rows = np.zeros(len(slot), dtype=np.intp)
                    got = bspline.window_basis(knots_, k, rows, slot, xs[on] - knots_[0, slot])
                    assert got.tobytes() == vals[on].tobytes()
                coarse = fine


class TestBoehmIdentity:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_rejects_points_outside_the_interval(self, system_k2, bad):
        with pytest.raises(DomainError):
            analysis.boehm_identity_error(system_k2, 3, np.array([0.0, 0.5, bad, 1.0]))

    def test_a_wrong_weight_shows(self, monkeypatch, system_k2):
        # One level's w1 is scaled after the build.  Only the check reads the
        # patched weights, as does the oracle through boehm_refine; the level
        # is the one whose window has t_5 in its middle.
        xs = np.linspace(0.0, 1.0, 1000)
        assert analysis.boehm_identity_error(system_k2, 3, xs) <= 1e-15
        boehm_weights, t5 = bspline.boehm_weights, system_k2.seq.points[5]
        for factor in (1.0 + 1e-6, math.nan):

            def wrong(t, factor=factor):
                w1, w2 = boehm_weights(t)
                w1[t[..., 2] == t5] *= factor  # k = 2: the middle knot of 2k + 1
                return w1, w2

            monkeypatch.setattr(bspline, "boehm_weights", wrong)
            got = analysis.boehm_identity_error(system_k2, 3, xs)
            want = boehm_identity_loop(system_k2, 3, xs)
            if math.isnan(factor):
                assert math.isnan(got) and math.isnan(want)
            else:
                assert got > 1e-8 and want > 1e-8

    @pytest.mark.parametrize("law", knots.LAWS)
    def test_order_one_identity_is_exact(self, law):
        # At k = 1 the check evaluates no point, and there is nothing for it
        # to see: every level's weights are exactly 1, and alpha is (1, -1)
        # whatever weights it is given.
        seq = knots.random_admissible(1, 1, 65, law)
        wild = np.random.default_rng(1).standard_normal((2, 63, 1))
        for _, block in ortho.knot_blocks(seq, 64):
            w1, w2 = bspline.boehm_weights(block.windows[:, 0:3])  # tau_{i0-1}..tau_{i0+1}
            assert (w1 == 1.0).all() and (w2 == 1.0).all()
            assert (block.alpha == [1.0, -1.0]).all()
        assert (ortho.alpha_coefficients(*wild) == [1.0, -1.0]).all()


TILES = (1, 37, 10**9)  # one row, a few rows, every row of a block in one tile


@pytest.mark.parametrize("family", ("uniform-iid", "near-one", "full-multiplicity"))
@pytest.mark.parametrize("k", (1, 2, 3))
class TestRowTiles:
    """Readers of the system matrix give the same bits in any tile of rows.

    N = 130 puts M past two 64 x 64 tiles of the in-place transpose.  Blocks
    of 10 points as well as 512 give tiles of several rows at TILE = 37.
    """

    @pytest.fixture
    def system(self, family, k):
        return ortho.build_system(family_sequence(family, k, 131), 130)

    def test_matrix_equals_the_row_major_sweep(self, system):
        F = system.matrix
        assert F.flags.c_contiguous and F.shape == (system.size, system.size)
        assert np.array_equal(F, matrix_row_major(system))

    @pytest.mark.parametrize("block", (10, 512))
    def test_span_integrals(self, monkeypatch, system, block):
        monkeypatch.setattr(bspline, "EVAL_BLOCK", block)
        rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, system.order + 6)
        want = {p: span_integrals_whole(system, rule, p) for p in (1.5, 2.0)}
        for tile in TILES:
            monkeypatch.setattr(bspline, "TILE", tile)
            for p in want:
                assert np.array_equal(span_integrals(system, rule, p), want[p])
        # a slice of rows, as the tail audit asks for a block of levels, on nodes evaluated once
        nodes = list(bspline.rule_blocks(system.gram.partition, rule))
        for rows in (slice(0, 1), slice(5, 17), slice(system.order, None)):
            got = analysis.span_integrals(system.matrix[rows], rule, nodes, 2.0)
            assert np.array_equal(got, want[2.0][rows])

    @pytest.mark.parametrize("block", (10, 512))
    def test_square_function(self, monkeypatch, system, block):
        # the squared values the square function's sums read, for every
        # function, one, and a prefix, against each point's values formed
        # for every row at once
        monkeypatch.setattr(bspline, "EVAL_BLOCK", block)
        xs = analysis.cell_centers(system, 1100)
        want = bspline.spline_values(system.matrix, *bspline.eval_basis_many(system.gram.partition, xs)) ** 2
        for tile in TILES:
            monkeypatch.setattr(bspline, "TILE", tile)
            for rows in (system.size, 1, 40):
                got = np.empty((rows, len(xs)))
                for lo, sq in analysis.squared_values(system, rows, xs):
                    got[:, lo : lo + sq.shape[1]] = sq
                assert np.array_equal(got, want[:rows])

    @pytest.mark.parametrize("block", (10, 512))
    def test_uncond_experiment(self, monkeypatch, system, block):
        monkeypatch.setattr(bspline, "EVAL_BLOCK", block)
        args = ([1.2, 2.0, 6.0], 9, 3, 1100)
        monkeypatch.setattr(bspline, "TILE", TILES[-1])
        want = analysis.uncond_experiment(system, *args)
        for tile in TILES[:-1]:
            monkeypatch.setattr(bspline, "TILE", tile)
            got = analysis.uncond_experiment(system, *args)
            assert [r.keys() for r in got] == [r.keys() for r in want]
            for a, b in zip(got, want):
                for key in a:
                    assert np.array_equal(a[key], b[key]), key


def test_row_tiles_cover_the_rows(monkeypatch):
    for tile, rows, points, step in [(16384, 514, 512, 32), (16384, 5, 504, 5), (37, 10, 9, 4), (1, 3, 512, 1)]:
        monkeypatch.setattr(bspline, "TILE", tile)
        tiles = bspline.row_tiles(rows, points)
        assert [t.start for t in tiles] == list(range(0, rows, step))
        assert np.array_equal(np.concatenate([np.arange(rows)[t] for t in tiles]), np.arange(rows))
    assert bspline.row_tiles(0, 512) == []


@pytest.mark.parametrize("M", (1, 63, 64, 65, 200))
def test_transpose_in_place(M):
    F = np.random.default_rng(M).random((M, M))
    want = F.T.copy()
    ortho._transpose_in_place(F)
    assert np.array_equal(F, want)


def traced_peak(call):
    """Bytes that ``call()`` allocates at its peak beyond what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTiledMemory:
    """Readers of the system matrix hold a few tiles of values, not rows x EVAL_BLOCK of them."""

    @pytest.fixture(scope="class")
    def system(self):
        system = ortho.build_system(benchmark_sequence("uniform-iid", 1, 3, 512), 512)
        system.matrix  # formed once, before any tracing
        return system

    def test_span_integrals(self, system):
        rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, 9)
        pieces = 8 * system.size * len(rule.spans)
        peak = traced_peak(lambda: span_integrals(system, rule, 2.0))
        assert peak < pieces + 6 * 8 * bspline.TILE, f"peaked {peak - pieces} B beyond the pieces"

    def test_tail_audit_holds_one_block_of_pieces(self, monkeypatch):
        # The audit forms the pieces of one block of levels at a time, never
        # the size x S of them; blocks of 4 levels keep its other per-block
        # arrays small next to them.
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", 4)
        system = ortho.build_system(benchmark_sequence("uniform-iid", 1, 3, 512), 512)
        system.matrix
        pieces = 8 * system.size * (system.size + 1)  # the finest partition has M + 1 spans
        peak = traced_peak(lambda: analysis.tail_decay_audit(system, 2.0, 0.5))
        assert peak < pieces / 3, f"peaked at {peak} B against {pieces} B of pieces"

    def test_uncond_experiment(self, system):
        # Beyond the coefficient arrays A, S and C (4 trials x size floats),
        # the L^p pass holds two buffers of 2 trials x EVAL_BLOCK floats,
        # which keep its BLAS products whole; the grid pass holds less.
        trials = 200
        held = 8 * 4 * trials * (system.size + bspline.EVAL_BLOCK)
        peak = traced_peak(lambda: analysis.uncond_experiment(system, [1.5, 3.0], trials, 1, 4096))
        assert peak < held + 6 * 8 * bspline.TILE, f"peaked {peak - held} B beyond the arrays it holds"


class TestSquareFunction:
    def test_single_term_is_absolute_value(self, system_k2):
        a = np.zeros(system_k2.size)
        a[5] = -2.5
        sf = cell_sf(system_k2, a, 256)
        fn_vals = value_matrix(system_k2, centers(256))[5]
        assert np.allclose(sf, 2.5 * np.abs(fn_vals), atol=1e-12)

    def test_sign_invariance_is_exact(self, system_k2):
        c = analysis.random_coeffs(3, 0, system_k2.size)
        s = analysis.random_signs(3, 0, system_k2.size)
        a = cell_sf(system_k2, c, 256)
        b = cell_sf(system_k2, s * c, 256)
        assert np.array_equal(a, b)

    def test_grid_l2_matches_coefficient_norm(self, system_k2):
        c = analysis.random_coeffs(4, 1, system_k2.size)
        sf = cell_sf(system_k2, c, 8192)
        grid_l2 = np.sqrt(np.mean(sf**2))
        assert grid_l2 == pytest.approx(1.0, rel=0.05)

    def test_matches_the_dense_formula_in_any_blocks(self, system_k2, monkeypatch):
        # rows of coefficients over a prefix of the functions, in blocks that
        # split the grid unevenly
        xs = centers(300)
        C = np.stack([analysis.random_coeffs(5, t, 9) for t in range(3)])
        V = value_matrix(system_k2, xs)[:9]
        want = np.sqrt(((C[:, :, None] * V) ** 2).sum(axis=1))
        monkeypatch.setattr(bspline, "EVAL_BLOCK", 7)
        got = square_function(system_k2, C, xs)
        assert got.shape == (3, 300)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_grid_too_coarse(self, system_k2):
        with pytest.raises(DomainError):
            analysis.cell_centers(system_k2, 32)


class TestMaximalFunction:
    def test_single_term(self, system_k2):
        a = np.zeros(system_k2.size)
        a[4] = 1.5
        mf = maximal_function(a, cell_values(system_k2, 256))
        fn_vals = value_matrix(system_k2, centers(256))[4]
        assert np.allclose(mf, 1.5 * np.abs(fn_vals), atol=1e-12)

    def test_dominates_final_sum(self, system_k2):
        c = analysis.random_coeffs(6, 2, system_k2.size)
        mf = maximal_function(c, cell_values(system_k2, 512))
        f_vals = expansion_values(system_k2, c, centers(512))
        assert np.all(mf >= np.abs(f_vals) - 1e-12)


class TestHardyLittlewood:
    def test_constant(self):
        m = hl_maximal(np.full(64, -3.0))
        assert np.allclose(m, 3.0, atol=1e-12)

    def test_half_indicator_at_three_quarters(self):
        G = 4096
        m = hl_maximal((centers(G) < 0.5).astype(float))
        # best interval through 3/4 is [0, 3/4]: average 2/3, up to O(1/G)
        assert m[int(0.75 * G)] == pytest.approx(2 / 3, abs=2e-3)

    def test_dominates_absolute_value(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(128)
        m = hl_maximal(g)
        assert np.all(m >= np.abs(g) - 1e-12)


class TestLevelSets:
    def test_threshold_above_max_is_empty(self, system_k2):
        c = analysis.random_coeffs(9, 0, system_k2.size)
        sf = cell_sf(system_k2, c, 512)
        ls = level_sets(sf, float(sf.max()) * 1.01, 0.5)
        assert ls.e_measure == 0.0
        assert ls.b_measure == 0.0
        assert ls.weak_constant is None

    def test_tiny_threshold_fills_interval(self, system_k2):
        c = analysis.random_coeffs(9, 1, system_k2.size)
        sf = cell_sf(system_k2, c, 512)
        ls = level_sets(sf, 1e-12, 0.5)
        assert ls.e_measure == pytest.approx(1.0, abs=1e-9)
        assert ls.b_measure == 1.0

    def test_hull_matches_maximal_threshold(self, system_k2):
        # r = 1/2 keeps every partial sum of 1_E - r exact in binary, so the
        # two routes to the hull must agree bit for bit
        c = analysis.random_coeffs(9, 2, system_k2.size)
        sf = cell_sf(system_k2, c, 512)
        lam = float(np.quantile(sf, 0.7))
        ls = level_sets(sf, lam, 0.5)
        hull = hl_maximal(ls.E.astype(float)) > 0.5
        assert np.array_equal(ls.B, hull)
        assert np.all(ls.B[ls.E])

    def test_hull_brackets_threshold_at_uneven_r(self, system_k2):
        # a non-representable r may flip exact ties, but only those
        c = analysis.random_coeffs(9, 2, system_k2.size)
        sf = cell_sf(system_k2, c, 512)
        lam = float(np.quantile(sf, 0.7))
        r = 0.4
        ls = level_sets(sf, lam, r)
        m = hl_maximal(ls.E.astype(float))
        assert np.all(ls.B[m > r + 1e-9])
        assert not np.any(ls.B[m < r - 1e-9])

    def test_weak_bound_recorded(self, system_k2):
        c = analysis.random_coeffs(9, 3, system_k2.size)
        sf = cell_sf(system_k2, c, 512)
        lam = float(np.quantile(sf, 0.5))
        ls = level_sets(sf, lam, 0.3)
        assert ls.weak_constant is not None
        # measure of the hull is controlled by measure of the set over r
        assert ls.b_measure <= ls.e_measure / 0.3 + 1e-12

    def test_parameter_validation(self, system_k2):
        sf = cell_sf(system_k2, np.ones(system_k2.size), 512)
        with pytest.raises(DomainError):
            level_sets(sf, 0.0, 0.5)
        with pytest.raises(DomainError):
            level_sets(sf, 1.0, 1.5)


class TestUncondExperiment:
    def test_p_two_is_isometric(self):
        system = ortho.build_system(knots.random_admissible(11, 2, 9), 8)
        (out,) = analysis.uncond_experiment(system, [2.0], trials=20, seed=5, grid=2048)
        assert out["ratio_max"] == pytest.approx(1.0, abs=1e-8)
        assert out["ratio_min"] == pytest.approx(1.0, abs=1e-8)

    def test_deterministic(self):
        system = ortho.build_system(knots.random_admissible(11, 2, 9), 8)
        a = analysis.uncond_experiment(system, [1.5], trials=10, seed=3, grid=2048)
        b = analysis.uncond_experiment(system, [1.5], trials=10, seed=3, grid=2048)
        assert a == b

    def test_joint_call_matches_one_call_per_p(self):
        system = ortho.build_system(knots.random_admissible(12, 3, 9), 8)
        joint = analysis.uncond_experiment(system, [1.2, 3.0], trials=15, seed=1, grid=2048)
        alone = [
            analysis.uncond_experiment(system, [p], trials=15, seed=1, grid=2048)[0]
            for p in (1.2, 3.0)
        ]
        assert joint == alone

    def test_result_keys_and_sanity(self):
        system = ortho.build_system(knots.random_admissible(12, 3, 9), 8)
        (out,) = analysis.uncond_experiment(system, [3.0], trials=15, seed=1, grid=2048)
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

    def test_block_size_moves_only_rounding(self, monkeypatch):
        system = ortho.build_system(knots.random_admissible(12, 3, 17), 16)
        whole = analysis.uncond_experiment(system, [1.2, 6.0], trials=7, seed=2, grid=256)
        monkeypatch.setattr(bspline, "EVAL_BLOCK", 5)
        split = analysis.uncond_experiment(system, [1.2, 6.0], trials=7, seed=2, grid=256)
        for a, b in zip(whole, split):
            assert a.keys() == b.keys()
            for key in a:
                assert b[key] == pytest.approx(a[key], rel=1e-13, abs=0.0)

    def test_parameter_validation(self):
        system = ortho.build_system(knots.random_admissible(11, 2, 9), 8)
        with pytest.raises(DomainError):
            analysis.uncond_experiment(system, [1.0], trials=5, seed=0, grid=2048)
        with pytest.raises(DomainError):
            analysis.uncond_experiment(system, [2.0], trials=0, seed=0, grid=2048)


class TestTailDecay:
    def test_order_one_tails_vanish(self):
        seq = knots.validate_admissible(1, [0, 1, 0.5, 0.25])
        system = ortho.build_system(seq, 3)
        out = analysis.tail_decay_audit(system, 2.0, 0.5)
        # order-one functions live on two cells; every remote tail is zero
        f3 = level_records(system)[1]
        xs = np.linspace(0.51, 1.0, 50)
        assert np.max(np.abs(level_spline(seq, f3)(xs))) == 0.0
        assert out["max_ratio"] >= 0.0

    def test_right_tails_keep_their_digits(self):
        # Summed from the far end inward, every right tail of the dyadic
        # seed-1 benchmark input is within S ulps of the exact sum of its
        # pieces, however small; the row total less the left sum is not.
        system = ortho.build_system(benchmark_sequence("dyadic-shuffled", 1, 3, 512), 512)
        rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, 3 + 6)
        pieces = span_integrals(system, rule, 2.0)
        left, right = analysis.tail_sums(pieces)
        exact = exact_right_tails(pieces)
        for r in range(0, len(pieces), 32):
            assert exact[r].tolist() == [math.fsum(pieces[r, c:]) for c in range(pieces.shape[1] + 1)]
        ulps = (pieces.shape[1] + 1) * 2.0**-53
        assert np.all(np.abs(right - exact) <= ulps * exact)
        assert not np.all(np.abs(left[:, -1:] - left - exact) <= ulps * exact)
        # the left tails are the running sums, bit for bit
        assert np.array_equal(left[:, 1:], np.cumsum(pieces, axis=1))

    def test_keys_and_gamma_validation(self, system_k2):
        out = analysis.tail_decay_audit(system_k2, 1.5, 0.4)
        assert {"k", "p", "N", "gamma", "max_ratio", "tails", "band_min", "band_max"} <= set(out)
        assert np.isfinite(out["max_ratio"])
        with pytest.raises(DomainError):
            analysis.tail_decay_audit(system_k2, 1.5, 1.2)

    @pytest.mark.parametrize("block", [1, 20, 512])
    def test_span_integrals_match_the_dense_values(self, system_k2, monkeypatch, block):
        # blocks of whole spans, one span even when a block holds fewer nodes
        monkeypatch.setattr(bspline, "EVAL_BLOCK", block)
        rule = bspline.QuadratureRule.over_spans(system_k2.gram.partition.knots, 5)
        V = value_matrix(system_k2, rule_nodes(system_k2.gram.partition.knots, rule).ravel())
        V = V.reshape(system_k2.size, -1, 5)
        want = np.einsum("nsq,sq->ns", np.abs(V) ** 1.5, rule.weights)
        got = span_integrals(system_k2, rule, 1.5)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    def test_pieces_hold_unit_mass_next_to_one(self):
        # spans 2^-49 wide at 1: each node is evaluated on its own span from
        # its offset, so the L2 pieces of every unit-norm function sum to 1,
        # and lp_norm gives each phi_n norm 1
        seq = knots.validate_admissible(3, [0.0, 1.0] + [1.0 - 2.0**-j for j in range(1, 50)])
        system = ortho.build_system(seq, 50)
        rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, 3 + 6)
        mass = span_integrals(system, rule, 2.0).sum(axis=1)
        assert np.abs(mass - 1.0).max() <= 1e-12
        norms = np.array([lp_norm(level_spline(seq, rec), 2.0) for rec in level_records(system)])
        assert np.abs(norms - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("k", range(2, 7))
    def test_fourth_powers_next_to_zero_stay_finite(self, k):
        # Knots 2^-1000 and 2 * 2^-1000 put |f| near 1e151 on their spans: a
        # node's |f|^4 passes the float range, the span's piece, about one
        # over its width, does not.
        N = 63 + (k - 1) % 4
        system = ortho.build_system(family_sequence("next-to-ends", k, N + 1), N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = analysis.tail_decay_audit(system, 4.0, 0.5)
        assert math.isfinite(out["max_ratio"])
        assert math.isfinite(out["band_max"])

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

    @pytest.mark.parametrize("law", knots.LAWS + ("near-one",))
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_the_pair_loop(self, k, law):
        # the audit's maxima must be the per-pair loop's, bit for bit
        ps = (1.0, 1.5, 2.0, 4.0)
        for sd in (1, 2):
            if law == "near-one":
                head = [1.0 - 2.0**-j for j in range(1, 31)]
                tail = np.random.default_rng(sd).random(10).tolist()
                seq = knots.validate_admissible(k, [0.0, 1.0] + head + tail)
            else:
                seq = knots.random_admissible(sd, k, 41, law)
            system = ortho.build_system(seq, 40)
            fit = gram.decay_profile(system.gram).gamma_hat
            gammas = (fit if 0.0 < fit < 1.0 else 0.5, 0.01, 0.9)
            expected = tail_decay_loop(system, ps, gammas)
            for p in ps:
                for g in gammas:
                    assert tail_scores(analysis.tail_decay_audit(system, p, g)) == expected[p, g]

    def test_ratio_stable_under_doubling(self):
        seq = knots.random_admissible(19, 2, 33)
        ratios = []
        for N in (16, 32):
            system = ortho.build_system(seq, N)
            prof = gram.decay_profile(system.gram)
            out = analysis.tail_decay_audit(system, 2.0, prof.gamma_hat)
            ratios.append(out["max_ratio"])
        assert ratios[1] <= 4.0 * ratios[0] + 1e-9

