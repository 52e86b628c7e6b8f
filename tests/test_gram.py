import math
import tracemalloc

import numpy as np
import pytest
from oracles import dense, diag_inverse_bound, offset_maxima_loop, streamed_inverse

from orthosplines import bspline, gram, knots
from orthosplines.errors import DegenerateFit


def gram_for(k, points, n=None):
    seq = knots.validate_admissible(k, points)
    p = knots.partition_at(seq, n if n is not None else len(points) - 1)
    return bspline.gram_matrix(p)


def random_gram(sd, k, n_points):
    seq = knots.random_admissible(sd, k, n_points)
    p = knots.partition_at(seq, n_points - 1)
    return bspline.gram_matrix(p)


def dense_checkerboard(B):
    """Oracle for checkerboard_check on a dense inverse: (passed, first violation)."""
    tol = 1e-12 * float(np.abs(B).max())
    idx = np.arange(B.shape[0])
    bad = np.argwhere((-1.0) ** (idx[:, None] + idx[None, :]) * B < -tol)
    if len(bad) == 0:
        return True, None
    return False, (int(bad[0][0]) + 1, int(bad[0][1]) + 1)


def dense_decay_profile(G, B):
    """Oracle for decay_profile: per-offset maxima over the upper diagonals of a dense B."""
    part = G.partition
    k, M = part.order, part.M
    knots_ = part.knots
    idx = np.arange(M)
    hi = np.maximum.outer(idx, idx)
    lo = np.minimum.outer(idx, idx)
    gap = knots_[hi + k] - knots_[lo]
    A = np.abs(B)
    W = A * gap
    m = np.array([np.diagonal(W, d).max() for d in range(M)])
    raw = np.array([np.diagonal(A, d).max() for d in range(M)])
    keep = np.flatnonzero(m > gram.NOISE_FLOOR * m[0])
    ds = keep.astype(float)
    ys = np.log(m[keep])
    slope, _ = np.polyfit(ds, np.log(raw[keep]), 1)
    log_c = float(np.max(ys - slope * ds))
    residual = float(np.max(ys - (log_c + slope * ds)))
    return math.exp(slope), math.exp(log_c), residual


class Planted:
    """Serves all M diagonals of a dense B, and its main diagonal, in GramSystem's layout."""

    def __init__(self, B):
        self.B = B
        self.inverse_diagonal = np.diagonal(B).copy()

    def inverse_diagonals(self):
        for d in range(self.B.shape[0]):
            yield d, np.diagonal(self.B, -d).copy()


class TestCheckerboard:
    def test_order_two_signs(self):
        G = gram_for(2, [0, 1, 0.5])
        B = np.linalg.inv(dense(G))
        assert B[0, 1] <= 0.0
        assert B[0, 2] >= 0.0
        res = gram.checkerboard_check(G)
        assert res.passed
        assert res.first_violation is None

    def test_random_partitions_pass(self):
        for sd in range(12):
            for k in (1, 2, 3, 4, 5):
                assert gram.checkerboard_check(random_gram(sd, k, 9)).passed

    def test_detects_planted_violation(self):
        G = gram_for(2, [0, 1, 0.5, 0.25])
        B = np.linalg.inv(dense(G))
        # flip one strictly negative off-diagonal entry and its mirror image
        B[0, 1] = -B[0, 1]
        B[1, 0] = -B[1, 0]
        res = gram.checkerboard_check(Planted(B))
        assert not res.passed
        assert res.first_violation == (1, 2)

    @pytest.mark.parametrize(
        "planted, first",
        [
            ({(5, 3): np.nan}, (4, 6)),
            ({(7, 7): np.nan}, (8, 8)),
            # a NaN left of a sign violation in column order comes first
            ({(9, 2): np.nan, (4, 3): -1.0}, (3, 10)),
            # and a sign violation left of a NaN
            ({(9, 2): -1.0, (4, 3): np.nan}, (3, 10)),
        ],
    )
    def test_a_nan_entry_fails_and_is_named(self, planted, first):
        # a NaN passes no sign test, and one on the diagonal leaves the
        # tolerance to the finite diagonal, so no other entry fails
        B = np.linalg.inv(dense(random_gram(4, 3, 12)))
        assert gram.checkerboard_check(Planted(B)).passed
        for (i, j), value in planted.items():
            if not np.isnan(value):
                value *= np.diagonal(B).max() * (-1.0) ** (i + j)
            B[i, j] = B[j, i] = value
        res = gram.checkerboard_check(Planted(B))
        assert (res.passed, res.first_violation) == (False, first)


class TestDiagBound:
    def test_order_one_is_exact(self):
        G = gram_for(1, [0, 1, 0.5, 0.25])
        # diagonal gram, so a_ii b_ii = 1 exactly
        assert diag_inverse_bound(G) == pytest.approx(1.0, abs=1e-14)

    def test_bound_holds_on_random_partitions(self):
        for sd in range(10):
            for k in (2, 3, 4):
                bound = diag_inverse_bound(random_gram(sd, k, 10))
                assert bound <= 1.0 + 1e-12


class TestDecayProfile:
    def test_diagonal_inverse_convention(self):
        G = gram_for(1, [0, 1, 0.5, 0.25])
        prof = gram.decay_profile(G)
        assert prof.gamma_hat == 0.0
        assert prof.residual == 0.0
        assert prof.C_hat > 0.0
        assert prof.k == 1

    def test_too_few_offsets(self):
        # the level-1 inverse at k = 2 is [[4, -2], [-2, 4]]: two offsets fix the line
        G = bspline.gram_matrix(knots.boundary_partition(2))
        prof = gram.decay_profile(G)
        assert prof.gamma_hat == pytest.approx(0.5, rel=1e-12)
        assert prof.C_hat == pytest.approx(4.0, rel=1e-12)
        assert prof.residual <= 0.0
        # a factor that is not finite leaves no usable offset
        broken = bspline.GramSystem(G.partition, G.band, np.full_like(G.factor, np.nan))
        with pytest.raises(DegenerateFit, match="only 0 usable offsets"):
            gram.decay_profile(broken)

    def test_uniform_order_two_rate(self):
        seq = knots.validate_admissible(
            2, [0, 1] + [i / 40 for i in range(1, 40)]
        )
        G = bspline.gram_matrix(knots.partition_at(seq, 40))
        prof = gram.decay_profile(G)
        # uniform order-two inverse decays like (2 - sqrt(3))^d
        assert prof.gamma_hat == pytest.approx(2.0 - np.sqrt(3.0), abs=0.01)
        assert prof.residual <= 0.0

    def test_envelope_dominates(self):
        G = random_gram(6, 3, 30)
        prof = gram.decay_profile(G)
        assert 0.0 < prof.gamma_hat < 1.0
        assert prof.residual <= 0.0
        part = G.partition
        B = np.linalg.inv(dense(G))
        idx = np.arange(part.M)
        hi = np.maximum.outer(idx, idx)
        lo = np.minimum.outer(idx, idx)
        gap = part.knots[hi + part.order] - part.knots[lo]
        envelope = prof.C_hat * prof.gamma_hat ** np.abs(idx[:, None] - idx[None, :])
        weighted = np.abs(B) * gap
        mask = weighted > gram.NOISE_FLOOR * weighted.max()
        assert np.all(weighted[mask] <= envelope[mask] * (1 + 1e-9))

    def test_rate_stable_under_doubling(self):
        rates = []
        for n_points in (40, 80):
            seq = knots.random_admissible(17, 3, n_points)
            G = bspline.gram_matrix(knots.partition_at(seq, n_points - 1))
            rates.append(gram.decay_profile(G).gamma_hat)
        assert abs(rates[1] - rates[0]) < 0.1

    def test_to_dict_keys(self):
        prof = gram.decay_profile(random_gram(3, 2, 20))
        assert set(prof.to_dict()) == {"gamma", "C", "residual", "M", "k"}


def test_inverse_identity_moderate_size():
    seq = knots.random_admissible(29, 3, 150)
    G = bspline.gram_matrix(knots.partition_at(seq, 149))
    B = streamed_inverse(G)
    residual = dense(G) @ B - np.eye(G.M)
    assert np.max(np.abs(residual)) <= 1e-8


@pytest.fixture(scope="module")
def multi_block():
    """k=4, N=2048: M = 2051 columns, where the walk stops before M; with its dense inverse."""
    seq = knots.random_admissible(3, 4, 2049)
    G = bspline.gram_matrix(knots.partition_at(seq, 2048))
    assert G.M == 2051
    return G, np.linalg.inv(dense(G))


class TestStreamedInverse:
    @pytest.mark.parametrize("check", ["decay_profile", "checkerboard_check"])
    def test_peak_memory_below_one_dense_inverse(self, multi_block, check):
        G, _ = multi_block
        limit = 8 * G.M**2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            getattr(gram, check)(G)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{check} peaked at {peak} B against {limit} B"

    def test_decay_peak_memory_is_linear_in_m_k(self):
        # a few diagonals of M floats and the band of B: under 32 M k
        # floats, which a buffer of 256 columns of B alone would exceed
        seq = knots.random_admissible(3, 4, 2049)
        G = bspline.gram_matrix(knots.partition_at(seq, 2048))
        limit = 8 * 32 * G.M * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gram.decay_profile(G)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < limit, f"decay_profile peaked at {peak} B against {limit} B"

    def test_decay_matches_dense_oracle(self, multi_block):
        G, B = multi_block
        gamma, C, residual = dense_decay_profile(G, B)
        prof = gram.decay_profile(G)
        assert prof.gamma_hat == pytest.approx(gamma, rel=1e-12)
        assert prof.C_hat == pytest.approx(C, rel=1e-12)
        assert prof.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)

    def test_offset_maxima_match_the_column_loop(self, multi_block):
        # a walk that stops before M, bit for bit
        G, _ = multi_block
        raw, m = gram.offset_maxima(G)
        want_raw, want_m = offset_maxima_loop(G)
        assert np.array_equal(raw, want_raw) and np.array_equal(m, want_m)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_offset_maxima_of_one_block(self, k):
        G = random_gram(k, k, 40)
        raw, m = gram.offset_maxima(G)
        want_raw, want_m = offset_maxima_loop(G)
        assert np.array_equal(raw, want_raw) and np.array_equal(m, want_m)

    def test_one_walk_feeds_both_checks(self, multi_block):
        # verify's single read of the inverse gives each check's own result, bit for bit
        G, _ = multi_block
        maxima = gram.OffsetMaxima(G)
        assert gram.checkerboard_check(G, maxima) == gram.checkerboard_check(G)
        raw, m = gram.offset_maxima(G)
        assert np.array_equal(maxima.raw, raw) and np.array_equal(maxima.m, m)
        assert gram.decay_profile(G, maxima) == gram.decay_profile(G)

    def test_one_walk_reads_the_inverse_once(self, monkeypatch, multi_block):
        G, _ = multi_block
        walks = []
        inverse_diagonals = G.inverse_diagonals

        def counted():
            walks.append(1)
            return inverse_diagonals()

        monkeypatch.setattr(G, "inverse_diagonals", counted)
        maxima = gram.OffsetMaxima(G)
        gram.checkerboard_check(G, maxima)
        gram.decay_profile(G, maxima)
        assert len(walks) == 1

    def test_checks_match_dense_oracle(self, multi_block):
        G, B = multi_block
        res = gram.checkerboard_check(G)
        assert (res.passed, res.first_violation) == dense_checkerboard(B)
        expected = float(np.max(1.0 / (np.diagonal(dense(G)) * np.diagonal(B))))
        assert diag_inverse_bound(G) == pytest.approx(expected, rel=1e-14)

    def test_violation_past_first_block_has_global_index(self, multi_block):
        _, B = multi_block
        doctored = B.copy()
        # offset one from the diagonal, far from column 1: far above tol
        doctored[600, 601] = -doctored[600, 601]
        doctored[601, 600] = -doctored[601, 600]
        res = gram.checkerboard_check(Planted(doctored))
        assert not res.passed
        assert res.first_violation == (601, 602)
        assert dense_checkerboard(doctored) == (False, (601, 602))

    def test_symmetric_violation_straddling_blocks_reports_the_row_major_first(
        self, multi_block
    ):
        _, B = multi_block
        doctored = B.copy()
        # an entry of diagonal 400, where B's own is tiny, set to -max b_ii;
        # i + j is even, so a negative entry breaks the pattern
        doctored[300, 700] = doctored[700, 300] = -np.diagonal(B).max()
        res = gram.checkerboard_check(Planted(doctored))
        assert (res.passed, res.first_violation) == (False, (301, 701))
        assert dense_checkerboard(doctored) == (False, (301, 701))

    def test_violations_in_several_blocks_report_the_smallest_column(self, multi_block):
        _, B = multi_block
        doctored = B.copy()
        # diagonals come in increasing offset: the violation on diagonal 70
        # is seen first, the one on diagonal 400, in a smaller column, must
        # replace it, and the one on diagonal 401, in the same column, not
        for i, j in ((1100, 1030), (700, 300), (300, 701)):
            doctored[i, j] = doctored[j, i] = -np.diagonal(B).max() * (-1.0) ** (i + j)
        res = gram.checkerboard_check(Planted(doctored))
        assert (res.passed, res.first_violation) == dense_checkerboard(doctored) == (False, (301, 701))
