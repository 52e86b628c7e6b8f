"""The sign-flip experiment and verify's per-level checks: Boehm identity, norms on J_n, tail decay.

Everything here sits on top of a built OrthoSystem, evaluated a block of
points at a time: the squared system functions on a uniform cell grid
(``bspline.eval_blocks``), which the sign-flip unconditionality
experiment sums into its square-function ratios, and the nodes of one
Gauss rule on the level-N spans (``lp_rule``), evaluated on their own
spans a block of whole spans at a time and laid out span-major
(``bspline.rule_blocks``), from which ``span_integrals`` forms every L^p
integral: the experiment's norms of its random expansions and the tail
audit's pieces.  It gathers k coefficients per span, not per node, and
sums each span's q nodes over contiguous runs of spans.  Both readers of
the system's rows evaluate a row only on the blocks of points where its
coefficients are not all zero (``OrthoSystem.columns``): each f_n is
exactly 0 outside the window its level was solved on, and the zeros it
would give elsewhere are written as 0.0, which is their value bit for
bit.  The experiment's rows, random expansions over every function, are
read whole.  No p-th power is taken by scalar ``pow`` (``_powers``): a
whole p by repeated squaring,
so p = 2 is one square, and the other p from one log of the magnitudes
shared by all of them, with each node's weight folded in so that no
node's |f|^p has to fit in a float; the grid's Sf^2 is raised to p/2 the
same way.  Within a block, the values of many splines are formed and
reduced a tile of rows at a time (``bspline.row_tiles``), so no
rows x EVAL_BLOCK temporary is made;
the grid's BLAS product over a block of cells and a block of trials stays
whole, so that every value keeps its bits in any tile size.  The
experiment runs its trials in fixed blocks of ``_TRIAL_BLOCK`` = 64
(``_trial_sums``): it holds the draws, trials x size floats, and
O(64 size) floats beside them, and a trial's ratios do not depend on how
many trials run.  The
per-level checks of ``verify`` (the Boehm identity and the tail audit)
work one block of levels at a time in array passes, reading the rows of
the system's ``ortho.KnotBlock`` records.  The Boehm identity evaluates
only the points on the 2k - 2 spans around each new knot, from its
level's knot window, since the gap is exactly 0.0 at every other point.
The tail audit integrates each f_n once over the level-N spans where it
is not zero: the spans inside J_n give its norm there, and those outside
its tails, cut at the distinct level-N knot values
(``charint.knot_distances``).

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
    rows x EVAL_BLOCK floats that every block reuses, and holds a block
    only until the next one is formed.  Only the rows whose nonzero
    columns (``OrthoSystem.columns``) meet the block's are evaluated
    (``_meets``), from the block's columns alone, a tile of rows at a
    time (``bspline.row_tiles``); the others are filled with 0.0.  That is
    their value bit for bit: a row whose k coefficients at every point are
    +-0 has value +-0 there, and its square is +0.0.
    """
    F = system.matrix[:rows]
    columns = system.columns[:rows]
    k = system.order
    buf = np.empty(rows * bspline.EVAL_BLOCK)
    for lo, first, vals in bspline.eval_blocks(system.gram.partition, xs):
        sq = _leading(buf, (rows, len(first)))
        c0, c1 = int(first.min()) - 1, int(first.max()) + k - 2
        meets = _meets(columns, c0, c1)
        sq[~meets] = 0.0
        live = np.flatnonzero(meets)
        for tile in bspline.row_tiles(len(live), len(first)):
            at = _run(live[tile])
            sq[at] = np.square(bspline.spline_values(F[at, c0 : c1 + 1], first - c0, vals))
        yield lo, sq


def _meets(columns, lo, hi):
    """Whether each row's nonzero columns, (rows, 2) first and last, meet columns lo..hi."""
    return (columns[:, 0] <= hi) & (columns[:, 1] >= lo)


def _run(rows):
    """An increasing array of row indices as a slice when the rows are consecutive, so reading them copies nothing."""
    first, last = int(rows[0]), int(rows[-1])
    return slice(first, last + 1) if last - first + 1 == len(rows) else rows


def check_exponents(ps):
    """Raise DomainError unless every p of the sign-flip experiment lies in (1, inf)."""
    for p in ps:
        if not 1.0 < p < math.inf:
            raise DomainError(f"p={p} outside (1, inf)")


def uncond_experiment(system, ps, trials, seed, grid):
    """Sign-flip norm ratios for random expansions, one report per p in ps.

    Expansions run over every function of the built system.  Per trial: a
    unit coefficient vector a and a sign vector eps are drawn from per-trial
    streams, and R = ||sum eps_n a_n f_n||_p / ||f||_p is integrated from
    the level-N B-spline coefficients C = [A; A S] F of both splines by
    ``span_integrals`` on ``lp_rule``.  That rule is exact only for even p
    with p(k - 1) <= 2k + 11 (of the default ps, p = 6 at k <= 4); at any
    other p, R is a quadrature estimate.  An integral past the float range
    raises DomainError naming its p.  Square-function ratios
    ||Sf||_p / ||f||_p come from the ``grid`` cells (``_grid_sums``).  Each
    block of nodes or cells is evaluated once, for every trial, and reduced
    for every p.

    The trials run in blocks of ``_TRIAL_BLOCK`` = 64 (``_trial_sums``), so
    besides the draws A, trials x size floats, the experiment holds
    O(64 size) floats and a few tiles.  Trial t's ratios depend on t and
    its draws alone, not on the trial count: every BLAS product over the
    draws is over one block of 64 rows, of the same shape in every block
    and every run, with trial t at row t mod 64.  BLAS may sum a row in an
    order that depends on its place among the rows and on the product's
    shape, but not on the values of the other rows.  The BLAS thread
    count can still move a ratio by an ulp.
    """
    check_exponents(ps)
    if trials < 1:
        raise DomainError(f"trials={trials} must be at least 1")
    xs = cell_centers(system, grid)
    with np.errstate(over="ignore"):  # an overflow is raised below, naming its p
        lp, sq = _trial_sums(system, ps, trials, seed, xs)
    for p, sums in zip(ps, lp):
        if not np.isfinite(sums).all():
            raise DomainError(f"p={p}: an L^p integral passes the float range")

    reports = []
    for p, (f_sums, flip_sums), sq_sums in zip(ps, lp, sq):
        nf = f_sums ** (1.0 / p)
        R = flip_sums ** (1.0 / p) / nf
        sq_ratio = (sq_sums / grid) ** (1.0 / p) / nf
        reports.append(
            {
                "k": system.order,
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


# Trials per block of the sign-flip experiment: each BLAS product over the
# draws has this many rows, whatever the trial count.
_TRIAL_BLOCK = 64


def _trial_sums(system, ps, trials, seed, xs):
    """(lp, sq): each trial's L^p integrals and grid sums of Sf^p, for each p in ps.

    lp is (len(ps), 2, trials), the integrals of |f|^p for the expansion
    and for its flip, sq is (len(ps), trials).  The draws A are padded with
    zero rows to whole blocks of ``_TRIAL_BLOCK`` trials, and are the only
    trials x size array held.  The grid pass comes first (``_grid_sums``).
    Then, block by block, the signs are drawn, and C = [A_b; A_b S_b] F is
    formed into buffers made once and integrated in chunks of its rows
    whose pieces fill one tile per p; only the sums over the spans are
    kept.
    """
    T = _TRIAL_BLOCK
    size = system.size
    A = np.zeros((-(-trials // T) * T, size))
    for t in range(trials):
        A[t] = random_coeffs(seed, t, size)
    sq = _grid_sums(system, A, xs, ps)
    rule, nodes = lp_rule(system)
    lp = np.empty((len(ps), 2, len(A)))
    flips = np.empty((T, size))
    C = np.empty((2, T, size))  # level-N coefficients of a block's expansions, then of their flips
    rows = C.reshape(2 * T, size)
    sums = np.empty((len(ps), 2 * T))
    dense = np.broadcast_to([0, size - 1], (2 * T, 2))  # every row of C may be nonzero anywhere
    for lo in range(0, trials, T):
        block = range(lo, min(lo + T, trials))
        for i, t in enumerate(block):
            np.multiply(A[t], random_signs(seed, t, size), out=flips[i])
        flips[len(block) :] = 0.0
        np.matmul(A[lo : lo + T], system.matrix, out=C[0])
        np.matmul(flips, system.matrix, out=C[1])
        for chunk in bspline.row_tiles(2 * T, len(rule.spans)):
            sums[:, chunk] = span_integrals(rows[chunk], rule, nodes, ps, dense[chunk]).sum(axis=2)
        lp[:, :, lo : lo + T] = sums.reshape(len(ps), 2, T)
    return lp[:, :, :trials], sq[:, :trials]


def _grid_sums(system, A, xs, ps):
    """Sums over the points xs of Sf^p, (len(ps), trials), for coefficient rows A, (trials, size).

    Sf = (sum_n a_n^2 f_n^2)^(1/2), and trials is a multiple of
    ``_TRIAL_BLOCK``.  The cells are the outer loop: each block of
    ``squared_values`` is reduced against one block of trials at a time,
    whose squared coefficients fill a buffer of ``_TRIAL_BLOCK`` rows, by
    a product into a buffer every block reuses.  Each Sf^2 is raised to
    p/2 by ``_powers``, by repeated squaring where p/2 is whole and from
    one log of the tile for the other p, and the powers summed, a tile of
    trials at a time.
    """
    T = _TRIAL_BLOCK
    halves = [p / 2 for p in ps]
    sq = np.zeros((len(ps), len(A)))
    weights = np.empty((T, A.shape[1]))
    buf = np.empty(T * bspline.EVAL_BLOCK)
    for _, values in squared_values(system, A.shape[1], xs):
        prod = _leading(buf, (T, values.shape[1]))
        for lo in range(0, len(A), T):
            np.square(A[lo : lo + T], out=weights)
            np.matmul(weights, values, out=prod)
            out = sq[:, lo : lo + T]
            for tile in bspline.row_tiles(T, values.shape[1]):
                out[:, tile] += [power.sum(axis=1) for power in _powers(prod[tile], halves)]
    return sq


def lp_rule(system):
    """(rule, nodes): the (k + 6)-node Gauss rule on every level-N span, and its nodes' basis values.

    The nodes are evaluated on their own spans a block at a time
    (``bspline.rule_blocks``) and kept, so that every call of
    ``span_integrals`` on the rule reads them without forming them again.
    """
    partition = system.gram.partition
    rule = bspline.QuadratureRule.over_spans(partition.knots, system.order + 6)
    return rule, list(bspline.rule_blocks(partition, rule))


def span_integrals(F, rule, nodes, ps, columns):
    """Integral of |f|^p over each span of the rule, (len(ps), rows, spans), for each row of F and p in ps.

    The rows of F are splines over the finest basis, and the rule is over
    the finest partition's knots.  ``nodes`` holds the rule's nodes
    evaluated on their own spans, a block of whole spans at a time and
    span-major (``bspline.rule_blocks``), so a tile's values gather k
    coefficients per span, not per node (``bspline.node_values``).  Each
    block's magnitudes are formed once, a tile of rows at a time
    (``bspline.row_tiles``), as (rows, q, spans), and each node's
    w |f|^p is taken for every p from them by ``_powers``, with its node's
    weight w folded in before the power: a node's |f|^p alone can pass
    the float range on a narrow span whose piece does not (p = 4 on spans
    2^-1000 wide).  At a whole p, |f| w^(1/p) is raised by repeated
    squaring, within (p - 1) 2^-53 relative of the exact power of that
    product, and p = 2 is one correctly rounded ``np.square``.  The other
    p share one ``np.log`` of the magnitudes, and the weight is added to
    it as log w: exp(p log|f| + log w) is within
    (3 p |ln|f|| + 2 |ln w| + 2) 2^-53 relative of w |f|^p, the rounding of
    the two logs, the product and the sum, taken as an absolute error of
    the exponent, and of exp itself.  The q nodes of a span are summed in
    node order, one contiguous run of spans at a time.  A row's integrals
    keep their bits whichever rows come with it.

    ``columns``, (rows, 2), holds each row's first and last column that is
    not zero (``OrthoSystem.columns``; 0 and size - 1 for a row read
    whole).  A block of nodes reads columns min(start)..max(start) + k - 1,
    and only the rows whose range meets them are evaluated, from those
    columns alone; the others keep pieces of +0.0.  That is what they
    would give: their k coefficients on every span of the block are +-0,
    so every value is +-0, its magnitude +0.0 and every power and sum
    +0.0.

    The rule is exact through degree 2q - 1, so a piece is exact only for
    even p, where |f|^p is a polynomial of degree p(k - 1) on the span: at
    ``lp_rule``'s q = k + 6, for p(k - 1) <= 2k + 11, which is p = 2 for
    every k, p = 4 for k <= 7 and p = 6 for k <= 4.
    """
    w = np.ascontiguousarray(rule.weights.T)  # (q, spans)
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0 has log -inf, and terms 0
        log_w = None if all(_whole(p) for p in ps) else np.log(w)
    folds = [w ** (1.0 / p) if _whole(p) else log_w for p in ps]
    pieces = np.empty((len(ps), len(F), len(rule.spans)))
    for lo, start, vals in nodes:
        spans = slice(lo, lo + len(start))
        block_folds = [fold[:, spans] for fold in folds]
        c0, c1 = int(start.min()), int(start.max()) + len(vals) - 1
        meets = _meets(columns, c0, c1)
        pieces[:, ~meets, spans] = 0.0
        live = np.flatnonzero(meets)
        for tile in bspline.row_tiles(len(live), vals[0].size):
            rows = _run(live[tile])
            mags = bspline.node_values(F[rows, c0 : c1 + 1], start - c0, vals)
            np.abs(mags, out=mags)
            for i, power in enumerate(_powers(mags, ps, block_folds)):
                pieces[i, rows, spans] = power.sum(axis=1)
    return pieces


def _whole(p):
    """Whether p is a whole number, whose powers ``_powers`` takes by squaring."""
    return float(p).is_integer()


def _powers(x, exponents, folds=None):
    """Yield w x^e for each e in exponents, from magnitudes x >= 0, with w = 1 unless ``folds`` is given.

    A whole e raises x w^(1/e), folds[i] holding w^(1/e), by repeated
    squaring (``_whole_power``).  The other e share one ``np.log`` of x
    and take exp(e log x + log w), folds[i] holding log w.  A zero x gives
    0 with no warning; a NaN gives NaN.  The powers are formed in one
    buffer of x's shape, and x w^(1/e) in another, so each yielded array
    is overwritten by the next; at e = 1 with no folds, x itself is
    yielded.
    """
    logs = None
    out = np.empty_like(x)
    scaled = None if folds is None else np.empty_like(x)
    for i, e in enumerate(exponents):
        if _whole(e):
            base = x if folds is None else np.multiply(x, folds[i], out=scaled)
            yield _whole_power(base, int(e), out)
            continue
        if logs is None:
            with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
                logs = np.log(x)
        np.multiply(logs, e, out=out)
        if folds is not None:
            out += folds[i]
        yield np.exp(out, out=out)


def _whole_power(x, n, out):
    """x^n for a whole n >= 1 by repeated squaring from the leading bit down, into out; x itself at n = 1.

    Each step is one rounded product, so x^n is within (n - 1) 2^-53
    relative of the exact power while no step leaves the normal range, and
    x^2 is ``np.square(x)``.
    """
    power = x
    for bit in bin(n)[3:]:
        power = np.square(power, out=out)
        if bit == "1":
            power *= x
    return power


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
    log |J| is taken by ``math.log``, one level at a time.  Each phi_n is
    exactly 0 past the window its level was solved on (``ortho.levels``),
    so its tails there are 0, and the maximum runs over the depths the
    windows hold, about the knots within 16k B-splines of the new knot; a
    fit of the decay envelope has to choose which of those depths it
    covers.  The pieces are formed only on the blocks of spans that meet
    each row's nonzero columns (``OrthoSystem.columns``), and are +0.0
    elsewhere, so the audit's work follows the windows, not N.

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
    rule, nodes = lp_rule(system)
    x = knots.distinct(system.gram.partition.knots)  # the cut after r spans of the rule is x[r]

    log_gamma = math.log(gamma_fit)
    max_log = -math.inf
    count = 0
    on_J = []
    for block in system.blocks:
        row = block.first + k - 2
        rows = slice(row, row + len(block.J))
        (pieces,) = span_integrals(system.matrix[rows], rule, nodes, (p,), system.columns[rows])
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
