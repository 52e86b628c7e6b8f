"""Command-line driver for reproducible runs with machine-readable reports.

Subcommands: gen (write a knot-sequence file), build (write a system
export), verify (gate the paper's invariants: orthonormality, the
checkerboard inverse, the Boehm identity, norm equivalence on J_n and the
tail decay), census (characteristic-interval multiplicity sweeps),
experiment (sign-flip L^p ratios by per-span Gauss quadrature, and
square-function ratios on the cell grid), decay (Gram-inverse decay
profiles).  Reports are canonical JSON written atomically; an aligned
text table goes to stdout and, next to a --out file, to a .txt sibling.

Exit codes: 0 all hard assertions pass, 1 an assertion failed (the first
failing invariant is named), 2 usage or input errors.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Smallest default experiment --grid; finer inputs get 4 cells per knot.
_GRID_FLOOR = 2048
# Entries of the system matrix below this are zeroed in verify's orthonormality product.
_FLUSH = 1e-100


def _cap_threads():
    # Must happen before numpy is imported anywhere in this process.
    cap = os.environ.get("ORTHOSPLINES_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)


def _canonical(payload):
    """Chunks of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, streamed.

    An iterator is encoded as a list while it is consumed, so a report can be
    written as its records are made: each of its items, and every other
    value, is encoded in one string (``_text``).  A numpy array is encoded as
    its list; one of finite float64 values is written in one call
    (``_float_items``).  Dict keys are strings.
    """
    yield from _chunks(payload, "\n")
    yield "\n"


def _chunks(obj, newline):
    """Chunks of one value in the indent=2 layout; ``newline`` opens its inner lines.

    An iterator, and a dict that holds one among its values, yield a chunk
    per item; any other value is one chunk.
    """
    inner = newline + "  "
    if isinstance(obj, Iterator):
        sep = "[" + inner
        for item in obj:
            yield sep
            yield from _chunks(item, inner)
            sep = "," + inner
        yield "[]" if sep == "[" + inner else newline + "]"
    elif isinstance(obj, dict) and any(isinstance(value, Iterator) for value in obj.values()):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + _string(key) + ": "
            yield from _chunks(value, inner)
            sep = "," + inner
        yield newline + "}"
    else:
        yield _text(obj, newline)


def _text(obj, newline):
    """One value in the indent=2 layout, as one string; an iterator in it is consumed as a list."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [_string(key) + ": " + _text(value, inner) for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple, Iterator)):
        items = [_text(item, inner) for item in obj]
    elif _is_array(obj):
        text = _float_items(obj, "," + inner)
        return _text(obj.tolist(), newline) if text is None else "[" + inner + text + newline + "]"
    else:
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _float_text(value):
    # json writes a finite float as its repr, and NaN and the infinities by name.
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


_string = json.encoder.encode_basestring_ascii
# ``json.dumps`` of a value of exactly these types, without its dispatch.
_SCALARS = {str: _string, int: int.__repr__, float: _float_text}


def _is_array(obj):
    # No array exists before numpy is imported, and this module never imports it first.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def _float_items(values, sep):
    """The reprs of a non-empty 1-D float64 array joined by sep, else None.

    None also when a value is not finite.  orjson writes the shortest
    round-trip digits, as ``repr`` does, about 25 times faster.  Its text
    differs from repr's only for 1e-9 <= |x| < 1e-4 ("0.00001", "1e-9"
    where repr writes "1e-05", "1e-09") and for |x| >= 1e16 ("1e16" for
    "1e+16"), so those values are written as NaN, which orjson writes as
    null, and each null is replaced by the value's repr.  No item holds a
    comma, so the layout is one replace of the commas.  Imported here, so
    importing this module loads neither numpy nor orjson and
    ``_cap_threads`` still runs first.
    """
    import numpy as np
    import orjson

    if values.ndim != 1 or values.dtype != np.float64 or not values.size:
        return None
    size = np.abs(values)
    if not np.isfinite(size).all():
        return None
    odd = np.flatnonzero(((size >= 1e-9) & (size < 1e-4)) | (size >= 1e16))
    marked = np.array(values)  # a C-contiguous copy, as orjson needs
    marked[odd] = np.nan
    parts = orjson.dumps(marked, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split("null")
    reprs = map(repr, values[odd].tolist())
    text = "".join([part + item for part, item in zip(parts, reprs)]) + parts[-1]
    return text.replace(",", sep)


def _atomic_write(path, chunks):
    """Write the chunks to path through a temporary file in its directory.

    A failure while the chunks are made leaves neither path nor the
    temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".orthosplines-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table(rows):
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _emit(args, payload, rows):
    """Write the report, then print the table and write its .txt sibling.

    The report goes first: a payload that streams its records can still
    fail, and then nothing is written or printed.
    """
    if args.out:
        _atomic_write(args.out, _canonical(payload))
    text = _table(rows)
    print(text)
    if args.out:
        _atomic_write(os.path.splitext(args.out)[0] + ".txt", [text + "\n"])


def _config_dict(args):
    return {key: value for key, value in vars(args).items() if key != "func"}


def _resolve_grid(args, system):
    """Keep an explicit --grid; else the larger of the floor and 4 cells per finest knot.

    Four cells per knot is the coarsest grid the analysis layer accepts.  The
    resolved value lands in args, so the report's config records it.
    """
    if args.grid is None:
        args.grid = max(_GRID_FLOOR, 4 * len(system.gram.partition.knots))


def _load_sequence(args):
    """Sequence from --points when given, else a seeded random draw.

    Returns the sequence and a content hash of what determined it.
    """
    from . import knots

    if getattr(args, "points", None):
        with open(args.points, "rb") as handle:
            raw = handle.read()
        seq = knots.sequence_from_dict(json.loads(raw.decode()))
        if args.k is not None and args.k != seq.order:
            raise ValueError(f"--k {args.k} does not match order {seq.order} in {args.points}")
        return seq, hashlib.sha256(raw).hexdigest()
    seq = _draw(args)
    stamp = json.dumps(
        {"k": args.k, "law": args.law, "n": args.n, "seed": args.seed}, sort_keys=True
    )
    return seq, hashlib.sha256(stamp.encode()).hexdigest()


def _draw(args):
    """The seeded random sequence of the --n + 1 points that levels 2..--n need."""
    from . import knots

    if args.k is None:
        raise ValueError("--k is required without --points")
    if args.n is None:
        raise ValueError("--n is required without --points")
    knots.check_depth(args.n)
    return knots.random_admissible(args.seed, args.k, args.n + 1, args.law)


def _cmd_gen(args):
    seq = _draw(args)
    out = args.out or f"seq-k{args.k}-n{args.n}-s{args.seed}.json"
    _atomic_write(out, _canonical(seq.to_dict()))
    print(_table([("points", len(seq.points)), ("order", seq.order), ("file", out)]))
    return 0


def _cmd_build(args):
    """Export f_2..f_N, each record encoded and written as soon as its level is built.

    Without --out every level is still built, so a failing level is reported
    the same way.
    """
    from . import ortho

    seq, digest = _load_sequence(args)
    N = args.n if args.n is not None else len(seq.points) - 1
    stream = ortho.levels(seq, N)
    if not args.out:
        for _ in stream:
            pass
    payload = {
        "config": _config_dict(args),
        "input_hash": digest,
        "records": (ortho.export_record(*level) for level in stream),
    }
    rows = [
        ("order", seq.order),
        ("level", N),
        ("functions", N + seq.order - 1),
        ("input", digest[:16]),
    ]
    _emit(args, payload, rows)
    return 0


def _orthonormality_error(F, G):
    """max |<f_m, f_n> - delta_mn| over the system matrix F, from the product F A F^T.

    Entries of F below _FLUSH in magnitude are zeroed in this product only,
    which spares it the slow arithmetic of the subnormals among them; the
    exported coefficients are never flushed.  Each zeroed entry moves an
    inner product by at most _FLUSH max|A F^T|, so the whole product moves
    by at most 2 M _FLUSH max|A F^T|, far below the 1e-10 gate.
    """
    import numpy as np

    F = np.where(np.abs(F) < _FLUSH, 0.0, F)
    return float(np.abs(F @ G.apply(F.T) - np.eye(len(F))).max())


def _verify_suites(args, seq, N):
    import numpy as np

    from . import analysis, gram, ortho

    system = ortho.build_system(seq, N)
    F = system.matrix
    G = system.gram
    suites = []

    ortho_err = _orthonormality_error(F, G)
    suites.append(("orthonormality", ortho_err <= 1e-10, {"max_err": ortho_err}))

    # One walk of the inverse feeds the sign check and the decay fit.
    maxima = gram.OffsetMaxima(G)
    check = gram.checkerboard_check(G, maxima)
    suites.append(("checkerboard", check.passed, {"first_violation": check.first_violation}))

    worst = analysis.boehm_identity_error(system, args.seed, np.linspace(0.0, 1.0, 1000))
    suites.append(("boehm-identity", worst <= 1e-8, {"max_err": worst}))

    profile = gram.decay_profile(G, maxima)
    gamma = profile.gamma_hat if 0.0 < profile.gamma_hat < 1.0 else 0.5
    audit = analysis.tail_decay_audit(system, 2.0, gamma)
    # At p = 2 the length normalization |J|^(1/p - 1/2) drops out, so the
    # band is just the share of unit L2 mass each function keeps on its J.
    lo, hi = audit["band_min"], audit["band_max"]
    suites.append(("norm-equivalence", 0.0 < lo <= hi < 1.001, {"band_min": lo, "band_max": hi}))
    suites.append(
        (
            "tail-decay",
            profile.gamma_hat < 1.0,
            {"gamma": profile.gamma_hat, "max_ratio": audit["max_ratio"]},
        )
    )
    return suites


def _cmd_verify(args):
    seq, digest = _load_sequence(args)
    suites = _verify_suites(args, seq, args.n)
    payload = {
        "config": _config_dict(args),
        "input_hash": digest,
        "suites": [
            {"name": name, "passed": bool(passed), "measured": measured}
            for name, passed, measured in suites
        ],
    }
    rows = []
    for name, passed, measured in suites:
        keys = ", ".join(f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"
                         for key, value in measured.items())
        rows.append((name, ("pass  " if passed else "FAIL  ") + keys))
    _emit(args, payload, rows)
    for name, passed, _ in suites:
        if not passed:
            print(f"failed invariant: {name}", file=sys.stderr)
            return 1
    return 0


def _cmd_census(args):
    """The census of the characteristic intervals, from the knot pass alone: no Gram system is built."""
    import numpy as np

    from . import charint, ortho

    seq, digest = _load_sequence(args)
    J = np.concatenate([block.J for _, block in ortho.knot_blocks(seq, args.n)])
    betas = [args.beta] if args.beta is not None else [0.0, 0.25]
    results = []
    rows = []
    for beta in betas:
        count, window = charint.census_max(seq.points[: args.n + 1], J, beta)
        results.append({"beta": beta, "max_count": count, "window": window})
        where = f"window=({window[0]:.6g}, {window[1]:.6g})" if window else "window=none"
        rows.append((f"beta={beta}", f"max_count={count}  {where}"))
    payload = {"config": _config_dict(args), "input_hash": digest, "census": results}
    _emit(args, payload, rows)
    return 0


def _cmd_experiment(args):
    from . import analysis, ortho

    seq, digest = _load_sequence(args)
    ps = args.p or [1.2, 1.5, 3.0, 6.0]
    analysis.check_exponents(ps)
    system = ortho.build_system(seq, args.n)
    _resolve_grid(args, system)
    reports = analysis.uncond_experiment(system, ps, args.trials, args.seed, args.grid)
    payload = {"config": _config_dict(args), "input_hash": digest, "reports": reports}
    rows = [
        (
            f"p={rep['p']}",
            f"ratio_max={rep['ratio_max']:.4f}  ratio_q95={rep['ratio_q95']:.4f}  "
            f"sq_ratio_max={rep['sq_ratio_max']:.4f}",
        )
        for rep in reports
    ]
    _emit(args, payload, rows)
    return 0


def _cmd_decay(args):
    from . import bspline, gram, knots

    seq, digest = _load_sequence(args)
    profiles = []
    rows = []
    for level in (max(2, args.n // 2), args.n):
        part = knots.partition_at(seq, level)
        profile = gram.decay_profile(bspline.gram_matrix(part))
        profiles.append(profile.to_dict())
        rows.append(
            (
                f"n={level}",
                f"gamma={profile.gamma_hat:.4f}  C={profile.C_hat:.4g}  "
                f"residual={profile.residual:.1e}  M={profile.M}",
            )
        )
    payload = {"config": _config_dict(args), "input_hash": digest, "profiles": profiles}
    _emit(args, payload, rows)
    for profile in profiles:
        if not profile["gamma"] < 1.0:
            print("failed invariant: decay-gamma", file=sys.stderr)
            return 1
    return 0


def _parser():
    ap = argparse.ArgumentParser(prog="orthosplines", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, n_default=64, points=True):
        sp.add_argument("--k", type=int, default=None, help="spline order")
        sp.add_argument("--n", type=int, default=n_default, help=f"level (default {n_default})")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sp.add_argument(
            "--law",
            default="uniform-iid",
            choices=("uniform-iid", "dyadic-shuffled"),
            help="random knot law (default uniform-iid)",
        )
        if points:
            sp.add_argument("--points", default=None, metavar="PATH", help="knot-sequence JSON")
        sp.add_argument("--out", default=None, metavar="PATH", help="report path (JSON)")

    sp = sub.add_parser("gen", help="write a random admissible knot-sequence file")
    common(sp, points=False)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("build", help="build the orthonormal system and export it")
    common(sp)
    sp.set_defaults(func=_cmd_build, n=None)

    sp = sub.add_parser("verify", help="run the property suites")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("census", help="characteristic-interval multiplicity sweep")
    common(sp)
    sp.add_argument("--beta", type=float, default=None, help="window margin (default: 0 and 1/4)")
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("experiment", help="sign-flip unconditionality experiment")
    common(sp)
    sp.add_argument("--p", type=float, action="append", help="exponent, repeatable")
    sp.add_argument("--trials", type=int, default=200, help="trials (default 200)")
    sp.add_argument(
        "--grid", type=int, default=None, help="cell grid size (default: max(2048, 4 per knot))"
    )
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("decay", help="Gram-inverse decay profiles at n/2 and n")
    common(sp)
    sp.set_defaults(func=_cmd_decay)
    return ap


def main(argv=None):
    _cap_threads()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
