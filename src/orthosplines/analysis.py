"""The sign-flip experiment and verify's per-level checks: Boehm identity, norms on J_n, tail decay.

Everything here sits on top of a built OrthoSystem, evaluated a block of
points at a time: the squared system functions on a uniform cell grid
(``bspline.eval_blocks``), which the sign-flip unconditionality
experiment sums into its square-function ratios, and the tail-decay
audit, whose quadrature nodes are evaluated on their own spans
(``bspline.rule_blocks``).  Within a block, the values of many splines
are formed and reduced a tile of rows at a time (``bspline.row_tiles``),
so no rows x EVAL_BLOCK temporary is made; a BLAS product over a block
stays whole, so that every value keeps its bits in any tile size.  The
per-level checks of ``verify`` (the Boehm identity and the tail audit)
work one block of levels at a time in array passes, reading the rows of
the system's ``ortho.KnotBlock`` records.  The Boehm identity evaluates
only the points on the 2k - 2 spans around each new knot, from its
level's knot window, since the gap is exactly 0.0 at every other point.
The tail audit integrates each f_n over every level-N span once: the
spans inside J_n give its norm there, and those outside its tails, cut
at the distinct level-N knot values (``charint.knot_distances``).

The grid model: [0, 1] is split into G half-open cells [i/G, (i+1)/G), each
represented by its center sample.  A sum over the cells divided by G is
exact for the cell model; against the continuum it carries an O(1/G)
discretization gap, which callers quantify by refining G.
"""

import math
import sys

import numpy as np

from . import bspline, charint, knots
from .errors import DomainError

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def random_coeffs(seed, trial, size):
    """Unit-norm coefficient draw for one trial, reproducible by stream.

    Streams are keyed by (seed, trial, 0) so that a shorter draw is a prefix
    of a longer one from the same key, which is what lets experiments at two
    truncation levels share their randomness.
    """
    rng = np.random.default_rng((seed, trial, 0))
    a = rng.standard_normal(size)
    return a / np.linalg.norm(a)


def random_signs(seed, trial, size):
    rng = np.random.default_rng((seed, trial, 1))
    return rng.integers(0, 2, size) * 2.0 - 1.0


def quantile(values, q):
    """``np.quantile(values, q)`` of a 1-D float array by numpy's default linear method, bit for bit.

    The two order statistics around the virtual index (n - 1) q come from
    ``np.partition``, and are blended as numpy's ``_lerp`` blends them; a
    NaN anywhere gives NaN, as numpy's does.  ``np.quantile`` goes through
    ``np.unique``, whose first call imports ``numpy.ma`` (about 19 ms).
    """
    n = len(values)
    index = (n - 1) * q
    lo = math.floor(index)
    if index >= n - 1:
        lo = hi = n - 1
        gamma = index - (-1.0)  # numpy marks the last index -1 and takes gamma from it
    else:
        hi = lo + 1
        gamma = index - lo
    part = np.partition(values, sorted({0, lo, hi, n - 1}))
    if math.isnan(part[-1]):
        return math.nan
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def cell_centers(system, G):
    """Centers of the G grid cells; at least 4 cells per finest knot are required."""
    n_knots = len(system.gram.partition.knots)
    if G < 4 * n_knots:
        raise DomainError(f"grid of {G} cells is too coarse for {n_knots} knots")
    return (np.arange(G) + 0.5) / G


def _leading(buf, shape):
    """The C-contiguous array of the given shape on the leading entries of a flat buffer."""
    return buf[: math.prod(shape)].reshape(shape)


def squared_values(system, rows, xs):
    """Yield (lo, sq): f_n(x)^2 for the first ``rows`` system functions on each block of the points xs.

    A block is ``bspline.eval_blocks``' EVAL_BLOCK points from index lo on,
    and ``sq`` is (rows, points), a C-contiguous view of one buffer of
    rows x EVAL_BLOCK floats that every block reuses: it is filled a tile
    of rows at a time (``bspline.row_tiles``) and holds a block only until
    the next one is formed.
    """
    F = system.matrix[:rows]
    buf = np.empty(rows * bspline.EVAL_BLOCK)
    for lo, first, vals in bspline.eval_blocks(system.gram.partition, xs):
        sq = _leading(buf, (rows, len(first)))
        for tile in bspline.row_tiles(rows, len(first)):
            np.square(bspline.spline_values(F[tile], first, vals), out=sq[tile])
        yield lo, sq


def check_exponents(ps):
    """Raise DomainError unless every p of the sign-flip experiment lies in (1, inf)."""
    for p in ps:
        if not 1.0 < p < math.inf:
            raise DomainError(f"p={p} outside (1, inf)")


def uncond_experiment(system, ps, trials, seed, grid):
    """Sign-flip norm ratios for random expansions, one report per p in ps.

    Expansions run over every function of the built system.  Per trial: a
    unit coefficient vector a and a sign vector eps are drawn from per-trial
    streams, and R = ||sum eps_n a_n f_n||_p / ||f||_p is computed on the
    exact piecewise-polynomial representations (quadrature per knot
    interval, not on the sample grid).  Square-function ratios
    ||Sf||_p / ||f||_p come from the ``grid`` cells.  Nothing but the final
    reductions depends on p, so each block of nodes or cells is evaluated
    once, for the draws and their flips together, and reduced for every p
    before the next one is formed (``_lp_sums``, ``_grid_sums``), a tile
    of trials at a time.

    A trial's draws do not depend on the trial count, but its ratios can
    differ by an ulp between runs with different counts: the products over
    all trials are single BLAS calls, which may sum a row in an order that
    depends on its place among the rows.
    """
    check_exponents(ps)
    if trials < 1:
        raise DomainError(f"trials={trials} must be at least 1")
    k = system.order
    size = system.size
    xs = cell_centers(system, grid)

    A = np.array([random_coeffs(seed, t, size) for t in range(trials)])
    S = np.array([random_signs(seed, t, size) for t in range(trials)])
    # Level-N B-spline coefficients of each trial's expansion and of its flip.
    lp = _lp_sums(system, np.stack([A, A * S]) @ system.matrix, ps)
    sq = _grid_sums(system, A**2, xs, ps)

    reports = []
    for p, (f_sums, flip_sums), sq_sums in zip(ps, lp, sq):
        nf = f_sums ** (1.0 / p)
        R = flip_sums ** (1.0 / p) / nf
        sq_ratio = (sq_sums / grid) ** (1.0 / p) / nf
        reports.append(
            {
                "k": k,
                "p": p,
                "N": system.N,
                "trials": trials,
                "seed": seed,
                "ratio_max": float(R.max()),
                "ratio_min": float(R.min()),
                "ratio_q95": quantile(R, 0.95),
                "sq_ratio_max": float(sq_ratio.max()),
                "sq_ratio_min": float(sq_ratio.min()),
                "grid": len(xs),
            }
        )
    return reports


def _lp_sums(system, C, ps):
    """Integrals of |s|^p, (len(ps), 2, trials), for the level-N coefficients C of each trial's pair of splines.

    A block's magnitudes and their p-th powers are formed a tile of trials
    at a time, into buffers that every block reuses.  Its products with the
    weights stay whole: BLAS may sum a row in an order that depends on the
    rows around it.
    """
    trials = C.shape[1]
    rows = C.reshape(2 * trials, -1)  # contiguous rows: a tile of them is read with no copy
    rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, system.order + 6)
    wq = rule.weights.ravel()
    lp = np.zeros((len(ps), 2, trials))
    nodes = max(bspline.EVAL_BLOCK, rule.q)  # a block holds at least one span's q nodes
    mags, powers = np.empty(2 * trials * nodes), np.empty(2 * trials * nodes)
    for lo, first, vals in bspline.rule_blocks(system.gram.partition, rule):
        shape = (2 * trials, len(first))
        m, pw = _leading(mags, shape), _leading(powers, shape)
        tiles = bspline.row_tiles(2 * trials, len(first))
        for tile in tiles:
            np.abs(bspline.spline_values(rows[tile], first, vals), out=m[tile])
        for i, p in enumerate(ps):
            for tile in tiles:
                pw[tile] = m[tile] ** p
            lp[i] += pw.reshape(2, trials, -1) @ wq[lo : lo + len(first)]
    return lp


def _grid_sums(system, weights, xs, ps):
    """Sums over the points xs of Sf^p, (len(ps), trials), for squared coefficients ``weights``, (trials, size).

    Sf = (sum_n c_n^2 f_n^2)^(1/2).  Each block's product with
    ``squared_values`` is whole, into a buffer every block reuses; its square
    roots, their p-th powers and their sums are taken a tile of trials at a
    time.
    """
    trials = len(weights)
    sq = np.zeros((len(ps), trials))
    sums = np.empty(trials * bspline.EVAL_BLOCK)
    for _, values in squared_values(system, weights.shape[1], xs):
        block = np.matmul(weights, values, out=_leading(sums, (trials, values.shape[1])))
        np.sqrt(block, out=block)
        for tile in bspline.row_tiles(trials, values.shape[1]):
            for i, p in enumerate(ps):
                sq[i, tile] += (block[tile] ** p).sum(axis=1)
    return sq


def span_integrals(F, rule, nodes, p):
    """Integral of |f|^p over each span of the rule for each row of F, (rows, spans).

    The rows of F are splines over the finest basis, and the rule is over
    the finest partition's knots.  ``nodes`` holds the rule's nodes
    evaluated on their own spans, a block of whole spans at a time
    (``bspline.rule_blocks``).  Each block's basis values are scaled once
    by w^(1/p), the p-th root of their node's weight, so that a piece is
    the sum of its q nodes' |f w^(1/p)|^p = w |f|^p: a node's |f|^p alone
    can pass the float range on a narrow span whose piece does not.  Each
    block is reduced a tile of rows at a time (``bspline.row_tiles``).  A
    row's integrals keep their bits whichever rows come with it.

    The rule is exact through degree 2q - 1, so a piece is exact only for
    even p, where |f|^p is a polynomial of degree p(k - 1) on the span: at
    the tail audit's q = k + 6, p = 2 for every k and p = 4 for k <= 7.
    """
    q = rule.q
    roots = rule.weights.ravel() ** (1.0 / p)
    pieces = np.empty((len(F), len(rule.spans)))
    for lo, first, vals in nodes:
        spans = slice(lo // q, (lo + len(first)) // q)
        vals = vals * roots[lo : lo + len(first), None]
        for tile in bspline.row_tiles(len(F), len(first)):
            mags = bspline.spline_values(F[tile], first, vals)
            np.abs(mags, out=mags)
            mags **= p
            pieces[tile, spans] = mags.reshape(len(mags), -1, q).sum(axis=2)
    return pieces


def tail_sums(pieces):
    """(left, right), each (rows, S + 1): the sums of pieces[:, :c] and of pieces[:, c:] at column c.

    Each is summed from its far end inward, so a tail keeps its own digits
    however small it is next to the whole row; a right tail formed as the
    row total less a left sum would carry only the rounding of the total.
    """
    rows, S = pieces.shape
    left = np.zeros((rows, S + 1))
    right = np.zeros((rows, S + 1))
    np.cumsum(pieces, axis=1, out=left[:, 1:])
    np.cumsum(pieces[:, ::-1], axis=1, out=right[:, -2::-1])
    return left, right


def boehm_identity_error(system, seed, xs):
    """Largest |s_{n-1}(x) - s_n(x)| over n = 2..N and the points xs, for random coarse splines.

    s_{n-1} has coefficients drawn from ``default_rng(seed)`` on level n - 1,
    a block of levels per ``standard_normal`` call, the stream of one call
    per level, and s_n is it prolonged to level n by the Boehm weights of
    t_n; the two are the same spline, so the gap is rounding.  A NaN gap is
    returned, not dropped; a NaN point or one outside [0, 1] raises
    DomainError (``bspline.find_spans``).

    Only the points on fine spans p-k+1..p+k-2 are evaluated, p the 0-based
    position of t_n.  A point's span is k - 1 plus the count of t_2..t_n at
    or below it; its fine values come from ``bspline.window_basis`` on the
    level's knot window (knots p-2k+1..p+3k-2), its coarse values from the
    window without t_n, which holds the level-(n-1) knots; these spans read
    knots p-2k+3..p+2k-3.  Only the k coefficients t_n splits are prolonged
    (``bspline.split_columns``).

    Every other point gives 0.0.  On fine span S < p-k+1 it lies on coarse
    span S, on S > p+k-2 on coarse span S - 1, and either reads fine knots
    S-k+2..S+k-1, none of them t_n, so its basis values are bit-equal at
    both levels.  Its coefficients are the coarse ones, shifted past t_n,
    but for the end splits p-k and p, which equal coarse p-k and p-1
    exactly: the middle knot of the weights' window is t_n itself, so
    w1[0] = (x - tau)/(x - tau) = 1 and w2[k-1] = 1.  Both sums take the
    same numbers in the same order, so the maximum is unchanged bit for
    bit.  At k = 1 no span changes and the result is 0.0, and the identity
    is exact there: ``boehm_weights`` gives w1 = w2 = 1 exactly, each a
    knot gap over itself, and ``ortho.alpha_coefficients`` gives (1, -1)
    whatever weights it is passed.
    """
    k = system.order
    spans = bspline.find_spans(knots.boundary_partition(k), xs)  # level 1: every point on span k - 1
    rng = np.random.default_rng(seed)
    worst = 0.0
    for block in system.blocks:
        B = len(block.i0)
        t = np.array(system.seq.points[block.first : block.first + B])
        p = block.i0 - 1
        S = spans + np.cumsum(xs >= t[:, None], axis=0)
        M = block.first + np.arange(B) + k - 1
        coarse = rng.standard_normal(int(M.sum()) - B)  # M - 1 per level, level after level
        start = np.cumsum(M - 1) - (M - 1)
        # Fine coefficients p-2k+1..p+k-1, every one the changed spans read:
        # the coarse ones shifted past the knot, then the k + 1 it splits.
        # Indices are clipped into the level's own; the clipped are not read.
        near = p[:, None] + np.arange(1 - 2 * k, k)
        fine = coarse[start[:, None] + np.clip(near - (near > p[:, None]), 0, M[:, None] - 2)]
        w1, w2 = bspline.boehm_weights(block.windows[:, k - 1 : 3 * k])  # tau_{i0-k}..tau_{i0+k}
        fine[:, k - 1 : 2 * k] = bspline.split_columns(fine[:, k - 1 : 2 * k - 1], w1, w2)
        b, i = np.nonzero((S >= p[:, None] - k + 1) & (S <= p[:, None] + k - 2))
        x = xs[i]
        fine_s = S[b, i]
        coarse_s = fine_s - (x >= t[b])
        slot = 2 * k - 1 - p[b]  # span s lies at window slot s + slot at both levels
        windows = block.windows
        shrunk = np.delete(windows, 2 * k - 1, axis=1)  # without the new knot
        fine_vals = bspline.window_basis(windows, k, b, fine_s + slot, x - windows[b, fine_s + slot])
        coarse_vals = bspline.window_basis(shrunk, k, b, coarse_s + slot, x - shrunk[b, coarse_s + slot])
        gap = bspline.spline_values(fine.ravel(), b * fine.shape[1] + fine_s - p[b] + k + 1, fine_vals)
        gap -= bspline.spline_values(coarse, start[b] + coarse_s - k + 2, coarse_vals)
        worst = np.maximum(worst, np.abs(gap).max(initial=0.0))
        spans = S[-1]
    return float(worst)


def tail_decay_audit(system, p, gamma_fit):
    """Each phi_n's L^p norm on its J, and its largest tail norm against a geometric envelope.

    For every function and every knot value x of its level partition outside
    the characteristic interval J, the envelope is
    gamma^d(x) |J|^(1/2) / (|J| + dist(x, J))^(1 - 1/p) and the audited
    quantity is the L^p norm of phi on the far side of x.  Reports the
    maximum ratio over all (n, x), scoring the knot values of a block of
    levels in one array pass, with d from ``charint.knot_distances`` and
    the tails from ``tail_sums`` of the block's own rows of
    ``span_integrals``, so no more than a block's rows of pieces are held
    at once; the rule's nodes are evaluated once for every block.  The
    rule's spans join the distinct level-N knot values x, so the tails
    beyond x[r] are column r of ``tail_sums``.  Each ratio is formed from
    logarithms, since gamma^d underflows on deep tails; a zero tail has
    ratio 0, and a maximum past the float range is reported as inf.
    log |J| is taken by ``math.log``, one level at a time.

    The same pieces give the norms on J.  J = (c, d) is a span of level n,
    so both ends are level-N knot values, and the rule's span r lies in J
    exactly when x[r] >= c and x[r + 1] <= d.  Each level's pieces in J are
    summed along its row, zeros in place of the others; ``band_min`` and
    ``band_max`` are the least and largest of these sums to the power 1/p.
    """
    if not 0.0 < gamma_fit < 1.0:
        raise DomainError(f"gamma_fit={gamma_fit} outside (0, 1)")
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p={p} outside [1, inf)")
    k = system.order
    rule = bspline.QuadratureRule.over_spans(system.gram.partition.knots, k + 6)
    nodes = list(bspline.rule_blocks(system.gram.partition, rule))
    x = knots.distinct(system.gram.partition.knots)  # the cut after r spans of the rule is x[r]

    log_gamma = math.log(gamma_fit)
    max_log = -math.inf
    count = 0
    on_J = []
    for block in system.blocks:
        row = block.first + k - 2
        pieces = span_integrals(system.matrix[row : row + len(block.J)], rule, nodes, p)
        inside = (x[:-1] >= block.J[:, :1]) & (x[1:] <= block.J[:, 1:])
        on_J.append(np.where(inside, pieces, 0.0).sum(axis=1))
        left, right = tail_sums(pieces)
        keep, dn = charint.knot_distances(system, block)
        level, r = np.nonzero(keep)
        xs, dn = x[r], dn[keep]
        count += len(r)
        J = block.J
        half_log = np.array([0.5 * math.log(d - c) for c, d in J.tolist()])
        c, d = J[level, 0], J[level, 1]
        below = xs <= c
        tail_p = np.where(below, left[level, r], right[level, r])
        dist = np.where(below, c - xs, xs - d)
        live = tail_p > 0.0
        log_envelope = (
            dn[live] * log_gamma
            + half_log[level[live]]
            - (1.0 - 1.0 / p) * np.log((d - c)[live] + dist[live])
        )
        log_ratio = np.log(tail_p[live]) / p - log_envelope
        max_log = float(log_ratio.max(initial=max_log))
    max_ratio = math.exp(max_log) if max_log <= _LOG_FLOAT_MAX else math.inf
    band = np.concatenate(on_J) ** (1.0 / p)
    return {
        "k": k,
        "p": p,
        "N": system.N,
        "gamma": gamma_fit,
        "max_ratio": max_ratio,
        "tails": count,
        "band_min": float(band.min()),
        "band_max": float(band.max()),
    }
