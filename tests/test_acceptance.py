"""End-to-end acceptance runs, one test per criterion.

Each test prints a summary line with the measured quantity next to its
threshold; criterion 7 prints one per sequence and beta.  Parameters (seeds,
sizes, grids) are frozen so reruns are bit-for-bit comparable.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    Spline,
    boehm_refine,
    diag_inverse_bound,
    expansion_values,
    gram_schmidt_oracle,
    hl_maximal,
    insert_event,
    level_records,
    level_sets,
    level_spline,
    lp_norm,
    maximal_function,
    monotone_subsequence,
    ortho_function,
    prolong,
    square_function,
    sup_norm,
    value_matrix,
)

from orthosplines import analysis, bspline, charint, gram, knots, ortho


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_orthonormality():
    t0 = time.time()
    worst = 0.0
    for k in (1, 2, 3, 4, 5):
        for i in range(5):
            seq = knots.random_admissible(100 * k + i, k, 201)
            system = ortho.build_system(seq, 200)
            F = system.matrix
            err = np.max(np.abs(F @ system.gram.apply(F.T) - np.eye(system.size)))
            worst = max(worst, float(err))
    elapsed = time.time() - t0
    _report(
        f"criterion 1 orthonormality: max |<f_m, f_n> - delta| = {worst:.3e} "
        f"(tol 1e-9), {elapsed:.1f}s (target < 60s)"
    )
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for k in (1, 2, 3, 4):
        seq = knots.random_admissible(200 + k, k, 101)
        for n in range(2, 101):
            G = bspline.gram_matrix(knots.partition_at(seq, n))
            i0 = insert_event(seq, n)
            fast = ortho_function(G, i0)
            oracle = gram_schmidt_oracle(seq, n)
            s = 1.0 if float(fast.coeffs @ oracle.coeffs) >= 0 else -1.0
            diff = float(np.linalg.norm(fast.coeffs - s * oracle.coeffs))
            worst = max(worst, diff)
    _report(f"criterion 2 oracle equivalence: max l2 diff = {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_03_refinement_identity():
    xs = np.linspace(0.0, 1.0, 1000)
    worst = 0.0
    for k in (1, 2, 3, 4, 5):
        seq = knots.random_admissible(300 + k, k, 201)
        rng = np.random.default_rng(300 + k)
        for n in range(3, 201):
            coarse = knots.partition_at(seq, n - 1)
            fine = knots.partition_at(seq, n)
            i0 = insert_event(seq, n)
            w1, w2 = boehm_refine(fine, i0)
            c = rng.standard_normal(coarse.M)
            f = Spline(coarse, c)
            g = Spline(fine, prolong(c, i0, w1, w2))
            worst = max(worst, float(np.max(np.abs(f(xs) - g(xs)))))
    _report(f"criterion 3 refinement identity: max pointwise gap = {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_04_checkerboard_and_diagonal():
    violations = 0
    worst_bound = 0.0
    checked = 0
    for k in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(400 + k)
        for _ in range(200):
            n_points = int(rng.integers(3, 203 - k))
            seq = knots.random_admissible(int(rng.integers(0, 2**31)), k, n_points)
            G = bspline.gram_matrix(knots.partition_at(seq, n_points - 1))
            res = gram.checkerboard_check(G)
            bound = diag_inverse_bound(G)
            worst_bound = max(worst_bound, bound)
            if not res.passed or bound > 1.0 + 1e-12:
                violations += 1
            checked += 1
    _report(
        f"criterion 4 inverse sign pattern: {violations} violations in {checked} "
        f"partitions, max diag bound {worst_bound:.12f} (cap 1 + 1e-12)"
    )
    assert violations == 0


def test_criterion_05_inverse_decay():
    uniform = knots.validate_admissible(2, [0.0, 1.0] + [i / 201 for i in range(1, 201)])
    prof = gram.decay_profile(bspline.gram_matrix(knots.partition_at(uniform, 201)))
    anchor_gap = abs(prof.gamma_hat - 0.268)
    worst_gamma = 0.0
    worst_residual = -np.inf
    counts = {2: 34, 3: 33, 4: 33}
    for k, m in counts.items():
        for i in range(m):
            seq = knots.random_admissible(500 + 100 * k + i, k, 202 - k)
            p = gram.decay_profile(bspline.gram_matrix(knots.partition_at(seq, 201 - k)))
            worst_gamma = max(worst_gamma, p.gamma_hat)
            worst_residual = max(worst_residual, p.residual)
    _report(
        f"criterion 5 inverse decay: uniform k=2 gamma {prof.gamma_hat:.4f} "
        f"(0.268 +- 0.02), random max gamma {worst_gamma:.4f} (< 1), "
        f"max residual {worst_residual:.2e} (<= 0)"
    )
    assert anchor_gap <= 0.02
    assert worst_gamma < 1.0
    assert prof.residual <= 0.0
    assert worst_residual <= 0.0


def test_criterion_06_norm_equivalence_band():
    worst_drift = 0.0
    for k in (1, 2, 3, 4):
        seq = knots.random_admissible(900 + k, k, 257, "dyadic-shuffled")
        system = ortho.build_system(seq, 256)
        records = level_records(system)
        phis = [level_spline(seq, rec) for rec in records]
        for p in (1.0, 4 / 3, 2.0, 3.0, np.inf):
            inv_p = 0.0 if np.isinf(p) else 1.0 / p
            ratios = []
            for n in range(2, 257):
                a, b = records[n - 2].J
                if np.isinf(p):
                    norm = sup_norm(phis[n - 2], (a, b))
                else:
                    norm = lp_norm(phis[n - 2], p, (a, b))
                ratios.append(norm / (b - a) ** (inv_p - 0.5))
            ratios = np.array(ratios)
            band_half = ratios[:127].max() / ratios[:127].min()
            band_full = ratios.max() / ratios.min()
            worst_drift = max(worst_drift, abs(band_full / band_half - 1.0))
    _report(
        f"criterion 6 norm equivalence band: max drift {worst_drift:.4f} "
        f"under N 128 -> 256 (< 0.10)"
    )
    assert worst_drift < 0.10


def _census_bound(k, beta):
    """A-priori cap F(k, beta) on census_max; derived in criterion 7."""
    beta = Fraction(beta)
    if k == 1 and beta < Fraction(1, 3):
        return 1
    return k * (math.floor(4 * (2 * k - 1) / (1 - beta)) + 1)


def test_criterion_07_census_saturation():
    """Census counts at N=256 and N=512: nondecreasing and below F(k, beta).

    The paper's lemma bounds the number of levels n with J_n inside [x, y]
    and |J_n| >= (1 - beta)|y - x| by a constant depending only on k and
    beta, for every N and every admissible sequence.  It does not say by
    which depth the count stops growing, so growth from N=256 to N=512 is
    printed as data.  Two things are asserted, for every sequence:

    1. a <= b, where a and b are census_max at N=256 and N=512.  Functions
       and their J_n persist under refinement and windows only gain knots.
    2. b <= F(k, beta), a bound that follows from the selection rule of
       charint.characteristic_intervals alone:

    Fix a window [x, y] with L = y - x and a counted level m (J_m inside
    [x, y], |J_m| >= (1 - beta) L).  By the rule, J0_m is near-minimal,
    |J0_m| <= 2 mu_m with mu_m the shortest of the k + 1 candidate supports;
    every candidate support contains t_m; J_m is the longest of the k spans
    of J0_m.  Hence mu_m >= |J_m| / 2 >= (1 - beta) L / 2, and since each
    span of J0_m is at most |J_m| <= L, t_m lies in J0_m, which lies in
    [x - (k-1) L, y + (k-1) L].  Packing: if k earlier knots lay within
    r = (1 - beta) L / 4 of t_m, they and t_m would form a candidate support
    shorter than 2r <= mu_m, which is impossible.  So a half-open cell of
    length r holds at most k counted insertion points, and
    floor(4 (2k - 1) / (1 - beta)) + 1 such cells cover the range of t_m:

        count <= F(k, beta) = k (floor(4 (2k - 1) / (1 - beta)) + 1),

    that is 5 / 26 / 63 / 116 at beta = 0 and 6 / 34 / 81 / 152 at
    beta = 1/4 for k = 1..4.

    For k = 1 and beta < 1/3 the count is at most 1.  Two counted spans are
    longer than L / 2 inside [x, y], so they overlap, and since neither has
    a knot of its level inside, the later one J_n lies in the earlier one.
    J_n is the near-minimal half of the level-(n-1) span S it splits, so
    S lies in J_m as well and |S| >= 1.5 |J_n| >= 1.5 (1 - beta) L > L,
    which cannot happen.
    """
    failures = []

    def check(label, k, seq, exact):
        # The knot pass is incremental, so the first 255 intervals are those
        # of a fresh N=256 pass, and census_max reads nothing else.
        J = np.concatenate([block.J for _, block in ortho.knot_blocks(seq, 512)])
        for beta in (0.0, 0.25):
            a, _ = charint.census_max(seq.points[:257], J[:255], beta)
            b, _ = charint.census_max(seq.points[:513], J, beta)
            cap = _census_bound(k, beta)
            tag = f"{label} k={k} beta={beta}"
            _report(f"criterion 7 census {tag}: {a} -> {b} (F = {cap})")
            if not a <= b:
                failures.append(f"{tag}: {a} -> {b} decreased")
            if not b <= cap:
                failures.append(f"{tag}: {b} > F = {cap}")
            if exact and a != b:
                failures.append(f"{tag}: {a} != {b}")

    for k in (1, 2, 3, 4):
        seq = knots.random_admissible(800 + k, k, 513, "dyadic-shuffled")
        # Equality is an observation on these frozen dyadic inputs, which
        # saturate by N=256; the paper makes no such claim.
        check("dyadic", k, seq, exact=True)
    plan = [(1, 3), (2, 3), (3, 2), (4, 2)]
    for k, m in plan:
        for i in range(m):
            sd = 700 + 10 * k + i
            seq = knots.random_admissible(sd, k, 513)
            check(f"random seed={sd}", k, seq, exact=False)
    _report(f"criterion 7 census: {len(failures)} violations")
    assert not failures, "; ".join(failures)


def test_criterion_08_level_set_inclusion():
    G = 2**14
    checked = 0
    for k in (2, 3):
        seq = knots.random_admissible(60 + k, k, 129)
        system = ortho.build_system(seq, 128)
        size = system.size
        xs = analysis.cell_centers(system, G)
        for trial in range(50):
            c = analysis.random_coeffs(88, trial, size)
            sf = square_function(system, c, xs)
            rng = np.random.default_rng((88, trial, 9))
            q = 0.3 + 0.65 * float(rng.random())
            r = 0.1 + 0.8 * float(rng.random())
            lam = max(float(np.quantile(sf, q)), 1e-9)
            ls = level_sets(sf, lam, r)
            assert np.all(ls.B[ls.E])
            checked += 1
    _report(
        f"criterion 8 level-set inclusion: {checked} random (f, lambda, r) "
        f"configurations at G=2^14, all E inside B"
    )
    assert checked == 100


def test_criterion_09_maximal_domination():
    worst_drift = 0.0
    lines = []
    for k in (1, 2, 3, 4):
        seq = knots.random_admissible(40 + k, k, 129, "dyadic-shuffled")
        consts = []
        for N in (64, 128):
            grid = 16 * N
            system = ortho.build_system(seq, N)
            size = N + k - 1
            xs = analysis.cell_centers(system, grid)
            V = value_matrix(system, xs)
            worst = 0.0
            for trial in range(50):
                c = analysis.random_coeffs(77, trial, size)
                mf = maximal_function(c, V)
                hl = hl_maximal(expansion_values(system, c, xs))
                ratio = float(np.max(mf / np.maximum(hl, 1e-300)))
                worst = max(worst, ratio)
            consts.append(worst)
        drift = abs(consts[1] / consts[0] - 1.0)
        worst_drift = max(worst_drift, drift)
        lines.append(f"k={k}: C={consts[1]:.3f} drift={drift:.3f}")
    _report(
        "criterion 9 maximal domination: " + ", ".join(lines) + " (drift < 0.10)"
    )
    assert worst_drift < 0.10


def test_criterion_10_unconditionality_ratios():
    # 20 random sequences (5 per order), 10 sign-flip trials each: for every
    # p the max ratio is the extreme of 200 trials pooled over the ensemble.
    # Per-sequence extremes of that size wobble more than 15% at p = 6, so
    # the drift gate lives at the pooled level; the p = 2 isometry is checked
    # trial by trial on every sequence.
    t0 = time.time()
    ensemble = []
    for k in (1, 2, 3, 4):
        for i in range(5):
            sd = 50 + 10 * k + i
            seq = knots.random_admissible(sd, k, 257)
            systems = {N: ortho.build_system(seq, N) for N in (128, 256)}
            ensemble.append((sd, systems))

    ps = (1.2, 1.5, 3.0, 6.0)
    worst_p2 = 0.0
    pooled = {(p, N): 0.0 for p in ps for N in (128, 256)}
    for sd, systems in ensemble:
        for N in (128, 256):
            out, *reports = analysis.uncond_experiment(
                systems[N], [2.0, *ps], trials=10, seed=sd, grid=2048
            )
            worst_p2 = max(
                worst_p2,
                abs(out["ratio_max"] - 1.0),
                abs(out["ratio_min"] - 1.0),
            )
            for rep in reports:
                pooled[rep["p"], N] = max(pooled[rep["p"], N], rep["ratio_max"])

    worst_drift = 0.0
    for p in ps:
        drift = abs(pooled[p, 256] / pooled[p, 128] - 1.0)
        worst_drift = max(worst_drift, drift)
    elapsed = time.time() - t0
    _report(
        f"criterion 10 unconditionality: pooled max ratio drift {worst_drift:.4f} "
        f"(< 0.15), p=2 gap {worst_p2:.2e} (<= 1e-8), {elapsed:.0f}s (< 600s)"
    )
    assert worst_drift < 0.15
    assert worst_p2 <= 1e-8
    assert elapsed < 600.0


def test_criterion_11_monotone_guarantee():
    rng = np.random.default_rng(1100)
    violations = 0
    patterns = 0
    for m in (2, 3, 4):
        L = (m - 1) ** 2 + 1
        for signs in itertools.product((1.0, -1.0), repeat=L - 1):
            steps = rng.uniform(0.1, 1.0, L - 1) * np.asarray(signs)
            xs = np.concatenate([[0.0], np.cumsum(steps)])
            if monotone_subsequence(xs) < m:
                violations += 1
            patterns += 1
    _report(
        f"criterion 11 monotone guarantee: {patterns} sign patterns exhausted "
        f"for m <= 4, {violations} violations"
    )
    assert violations == 0
