"""Command-line driver for reproducible runs with machine-readable reports.

Subcommands: gen (write a knot-sequence file), build (write a system
export), verify (gate the paper's invariants: orthonormality, the
checkerboard inverse, the Boehm identity, norm equivalence on J_n and the
tail decay), census (characteristic-interval multiplicity sweeps),
experiment (sign-flip L^p ratios by per-span Gauss quadrature, exact
only for even p with p(k - 1) <= 2k + 11, and square-function ratios on
the cell grid), decay (Gram-inverse decay profiles).  Reports are
canonical JSON written atomically; an aligned text table goes to stdout
and, next to a --out file, to a .txt sibling.

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
from itertools import islice

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Smallest default experiment --grid; finer inputs get 4 cells per knot.
_GRID_FLOOR = 2048


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
    its list; a 1-D float64 one is written as its window of items that are
    not +0.0 (``_window``), encoded by ``_float_items``, between literal runs
    of "0.0".  Dict keys are strings.
    """
    yield from _chunks(payload, "\n")
    yield "\n"


def _chunks(obj, newline):
    """Chunks of one value in the indent=2 layout; ``newline`` opens its inner lines.

    An iterator, and a plain dict that holds one among its values, yield a
    chunk per item; any other value, a ``_Record`` too, is one chunk.
    """
    inner = newline + "  "
    if isinstance(obj, Iterator):
        sep = "[" + inner
        for item in obj:
            yield sep
            yield from _chunks(item, inner)
            sep = "," + inner
        yield "[]" if sep == "[" + inner else newline + "]"
    elif type(obj) is dict and any(isinstance(value, Iterator) for value in obj.values()):
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
    if type(obj) is _Record:
        return _record_text(obj, newline)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [_string(key) + ": " + _text(value, inner) for key, value in sorted(obj.items())]
    elif isinstance(obj, _Floats):
        if obj.text is None:
            items = [0.0] * obj.lo + obj.window.tolist() + [0.0] * (obj.size - obj.hi)
            return _text(items, newline)
        if not obj.size:
            return "[]"
        sep = "," + inner
        items = ("0.0" + sep) * obj.lo + obj.text.replace(",", sep) + (sep + "0.0") * (obj.size - obj.hi)
        return "[" + inner + items + newline + "]"
    elif isinstance(obj, (list, tuple, Iterator)):
        items = [_text(item, inner) for item in obj]
    elif _is_array(obj):
        if obj.ndim != 1 or obj.dtype != "float64":
            return _text(obj.tolist(), newline)
        return _text(_float_items([_window(obj)])[0], newline)
    else:
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


class _Record(dict):
    """A record of ``ortho.export_record``, which ``_text`` writes in one fixed layout (``_record_text``)."""

    __slots__ = ()


def _record_text(record, newline):
    """A build record in the indent=2 layout, its six keys in sorted order, as ``_text`` writes any dict.

    The values have the types ``ortho.export_record`` gives them: J two
    floats, i0 and level ints, knots-hash a str and norm2 a float, each
    written as ``_SCALARS`` writes it; coeffs, a ``_Floats``, goes through
    ``_text``.  One string is formed, with no sort and no call per item.
    """
    inner = newline + "  "
    item = inner + "  "
    c, d = record["J"]
    return (
        f'{{{inner}"J": [{item}{_float_text(c)},{item}{_float_text(d)}{inner}],'
        f'{inner}"coeffs": {_text(record["coeffs"], inner)},'
        f'{inner}"i0": {int.__repr__(record["i0"])},'
        f'{inner}"knots-hash": {_string(record["knots-hash"])},'
        f'{inner}"level": {int.__repr__(record["level"])},'
        f'{inner}"norm2": {_float_text(record["norm2"])}{newline}}}'
    )


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


class _Floats:
    """A 1-D float64 array of ``size`` items, +0.0 outside its window, items lo..hi - 1.

    ``window`` holds the window's items, and ``text`` their reprs joined by
    commas once ``_float_items`` has encoded them: then the window is
    dropped.  ``text`` stays None where an item is not finite.  A plain
    class, since ``dataclasses`` would import ``inspect`` before numpy.
    """

    __slots__ = ("lo", "hi", "size", "window", "text")

    def __init__(self, lo, hi, size, window=None, text=None):
        self.lo, self.hi, self.size, self.window, self.text = lo, hi, size, window, text


def _window(values):
    """A 1-D float64 array as a ``_Floats``: its items from the first to the last that is not +0.0, copied.

    The bits are tested, so a -0.0 is an item of the window, and every item
    outside it is +0.0, whose repr is "0.0".  An array of +0.0 alone keeps
    its last item as its window.
    """
    import numpy as np

    live = values.view(np.uint64).nonzero()[0]
    size = len(values)
    lo, hi = (int(live[0]), int(live[-1]) + 1) if len(live) else (max(0, size - 1), size)
    return _Floats(lo, hi, size, values[lo:hi].copy())


def _float_items(batch):
    """The ``_Floats`` of the batch with each finite window encoded, all of them by one ``orjson.dumps`` call.

    orjson writes the shortest round-trip digits, as ``repr`` does, about
    25 times faster.  Its text differs from repr's only for
    1e-9 <= |x| < 1e-4 ("1e-9", "0.00001" where repr writes "1e-09",
    "1e-05") and for |x| >= 1e16 ("1e16" for "1e+16").  Those values are
    written as NaN, which orjson writes as null, and each null is replaced
    by the value's own text, once for the whole batch: for
    1e-9 <= |x| < 1e-5, orjson's text of them, from one more call, with
    its one-digit exponent padded to two, and for the others, far fewer,
    their repr.  The windows are encoded as one list of arrays, views of
    one concatenation, and its text is split into theirs at "],[": no item
    holds a bracket.  A window with an item that is not finite is left to
    be written item by item.  Imported here, so importing this module
    loads neither numpy nor orjson and ``_cap_threads`` still runs first.
    """
    import numpy as np

    windows = [f.window for f in batch]
    finite = [True] * len(batch)
    flat = np.concatenate(windows)
    if not np.isfinite(flat).all():
        finite = [bool(np.isfinite(window).all()) for window in windows]
        windows = [window if ok else window[:0] for window, ok in zip(windows, finite)]
        flat = np.concatenate(windows)
    magnitude = np.abs(flat)
    odd = np.flatnonzero(((magnitude >= 1e-9) & (magnitude < 1e-4)) | (magnitude >= 1e16))
    values = flat[odd]
    short = magnitude[odd] < 1e-5  # one-digit exponents, -6 to -9
    items = np.empty(len(odd), dtype=object)
    items[short] = _dumps(values[short])[1:-1].replace("e-", "e-0").split(",")
    items[~short] = list(map(repr, values[~short].tolist()))
    flat[odd] = np.nan
    ends = np.cumsum([len(window) for window in windows]).tolist()
    views = [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]
    text = [None] * (2 * len(odd) + 1)
    text[::2] = _dumps(views).split("null")
    text[1::2] = items.tolist()
    text[0] = text[0][2:]  # the outer brackets
    text[-1] = text[-1][:-2]
    text = "".join(text)  # the parts go before the split
    return [
        _Floats(f.lo, f.hi, f.size, text=window_text) if ok else f
        for f, ok, window_text in zip(batch, finite, text.split("],["))
    ]


def _dumps(obj):
    """orjson's text of obj, numpy arrays encoded as lists."""
    import orjson

    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY).decode()


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
    """Every parsed option; ``law`` is null when --points supplies the sequence, which no law drew."""
    config = {key: value for key, value in vars(args).items() if key != "func"}
    if config.get("points"):
        config["law"] = None
    return config


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
    """Export f_2..f_N, a block of ``ortho.LEVEL_BLOCK`` records encoded and written as soon as it is built.

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
        "records": _encoded((_Record(ortho.export_record(*level)) for level in stream), ortho.LEVEL_BLOCK),
    }
    rows = [
        ("order", seq.order),
        ("level", N),
        ("functions", N + seq.order - 1),
        ("input", digest[:16]),
    ]
    _emit(args, payload, rows)
    return 0


def _encoded(records, block):
    """The records, each one's coeffs cut to its window as it arrives (``_window``), encoded a block at a time.

    A block of records is held with its windows alone, never its
    full-length coefficient arrays, and its windows are encoded in one
    ``_float_items`` call.  A record keeps its type, so a ``_Record``
    stays one.
    """
    records = (type(record)(record, coeffs=_window(record["coeffs"])) for record in records)
    while batch := list(islice(records, block)):
        for record, coeffs in zip(batch, _float_items([record["coeffs"] for record in batch])):
            record["coeffs"] = coeffs
            yield record


def _orthonormality_error(F, G):
    """max |<f_m, f_n> - delta_mn| over the system matrix F, from the product F A F^T."""
    import numpy as np

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
