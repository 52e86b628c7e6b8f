import math
import tracemalloc

import numpy as np
import pytest

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
    """Supplies inverse columns from a dense matrix, as GramSystem does from its factor."""

    def __init__(self, B):
        self.B = B

    def inverse_columns(self):
        for start in range(0, self.B.shape[1], 256):
            yield start, self.B[:, start : start + 256]


class TestCheckerboard:
    def test_order_two_signs(self):
        G = gram_for(2, [0, 1, 0.5])
        B = np.linalg.inv(G.dense())
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
        B = np.linalg.inv(G.dense())
        # flip one strictly negative off-diagonal entry and its mirror image
        B[0, 1] = -B[0, 1]
        B[1, 0] = -B[1, 0]
        res = gram.checkerboard_check(Planted(B))
        assert not res.passed
        assert res.first_violation == (1, 2)


class TestDiagBound:
    def test_order_one_is_exact(self):
        G = gram_for(1, [0, 1, 0.5, 0.25])
        # diagonal gram, so a_ii b_ii = 1 exactly
        assert gram.diag_inverse_bound(G) == pytest.approx(1.0, abs=1e-14)

    def test_bound_holds_on_random_partitions(self):
        for sd in range(10):
            for k in (2, 3, 4):
                bound = gram.diag_inverse_bound(random_gram(sd, k, 10))
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
        G = bspline.gram_matrix(knots.boundary_partition(2))
        with pytest.raises(DegenerateFit):
            gram.decay_profile(G)

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
        B = np.linalg.inv(G.dense())
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
    B = np.hstack([cols for _, cols in G.inverse_columns()])
    residual = G.dense() @ B - np.eye(G.M)
    assert np.max(np.abs(residual)) <= 1e-8


@pytest.fixture(scope="module")
def multi_block():
    """k=4, N=2048: M = 2051 columns, read in several blocks; with its dense inverse."""
    seq = knots.random_admissible(3, 4, 2049)
    G = bspline.gram_matrix(knots.partition_at(seq, 2048))
    assert G.M == 2051
    return G, np.linalg.inv(G.dense())


class TestStreamedInverse:
    @pytest.mark.parametrize("check", ["decay_profile", "checkerboard_check", "diag_inverse_bound"])
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

    def test_decay_matches_dense_oracle(self, multi_block):
        G, B = multi_block
        gamma, C, residual = dense_decay_profile(G, B)
        prof = gram.decay_profile(G)
        assert prof.gamma_hat == pytest.approx(gamma, rel=1e-12)
        assert prof.C_hat == pytest.approx(C, rel=1e-12)
        assert prof.residual == pytest.approx(residual, rel=1e-12, abs=1e-12)

    def test_checks_match_dense_oracle(self, multi_block):
        G, B = multi_block
        res = gram.checkerboard_check(G)
        assert (res.passed, res.first_violation) == dense_checkerboard(B)
        expected = float(np.max(1.0 / (np.diagonal(G.dense()) * np.diagonal(B))))
        assert gram.diag_inverse_bound(G) == pytest.approx(expected, rel=1e-14)

    def test_violation_past_first_block_has_global_index(self, multi_block):
        _, B = multi_block
        doctored = B.copy()
        # offset one from the diagonal in the third block: far above tol
        doctored[600, 601] = -doctored[600, 601]
        doctored[601, 600] = -doctored[601, 600]
        res = gram.checkerboard_check(Planted(doctored))
        assert not res.passed
        assert res.first_violation == (601, 602)
        assert dense_checkerboard(doctored) == (False, (601, 602))
