"""Command-line driver for reproducible runs with machine-readable reports.

Subcommands: gen (write a knot-sequence file), build (write a system
export), verify (run the property suites), census (characteristic-interval
multiplicity sweeps), experiment (sign-flip ratios), decay (Gram-inverse
decay profiles).  Reports are canonical JSON written atomically; an aligned
text table goes to stdout and, next to a --out file, to a .txt sibling.

Exit codes: 0 all hard assertions pass, 1 an assertion failed (the first
failing invariant is named), 2 usage or input errors.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Smallest default --grid per command; finer inputs get 4 cells per knot.
_GRID_FLOOR = {"verify": 4096, "experiment": 2048}


def _cap_threads():
    # Must happen before numpy is imported anywhere in this process.
    cap = os.environ.get("ORTHOSPLINES_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".orthosplines-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
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
    text = _table(rows)
    print(text)
    if args.out:
        _atomic_write(args.out, _canonical(payload))
        _atomic_write(os.path.splitext(args.out)[0] + ".txt", text + "\n")


def _config_dict(args):
    keep = (
        "command",
        "k",
        "n",
        "p",
        "seed",
        "trials",
        "grid",
        "beta",
        "law",
        "points",
        "out",
        "tol_ortho",
        "tol_recon",
    )
    return {key: getattr(args, key) for key in keep if hasattr(args, key)}


def _resolve_grid(args, system):
    """Keep an explicit --grid; else the larger of the floor and 4 cells per finest knot.

    Four cells per knot is the coarsest grid the analysis layer accepts.  The
    resolved value lands in args, so the report's config records it.
    """
    if args.grid is None:
        args.grid = max(_GRID_FLOOR[args.command], 4 * len(system.finest.knots))


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
    if args.k is None:
        raise ValueError("--k is required without --points")
    if args.n is None:
        raise ValueError("--n is required without --points")
    seq = knots.random_admissible(args.seed, args.k, args.n + 1, args.law)
    stamp = json.dumps(
        {"k": args.k, "law": args.law, "n": args.n, "seed": args.seed}, sort_keys=True
    )
    return seq, hashlib.sha256(stamp.encode()).hexdigest()


def _cmd_gen(args):
    from . import knots

    seq = knots.random_admissible(args.seed, args.k, args.n + 1, args.law)
    out = args.out or f"seq-k{args.k}-n{args.n}-s{args.seed}.json"
    _atomic_write(out, _canonical(seq.to_dict()))
    print(_table([("points", len(seq.points)), ("order", seq.order), ("file", out)]))
    return 0


def _cmd_build(args):
    from . import ortho

    seq, digest = _load_sequence(args)
    N = args.n if args.n is not None else len(seq.points) - 1
    system = ortho.build_system(seq, N)
    payload = {
        "config": _config_dict(args),
        "input_hash": digest,
        "records": system.export_records(),
    }
    rows = [
        ("order", system.order),
        ("level", N),
        ("functions", system.size),
        ("input", digest[:16]),
    ]
    _emit(args, payload, rows)
    return 0


def _verify_suites(args, seq, N):
    import numpy as np

    from . import analysis, bspline, gram, knots, ortho

    system = ortho.build_system(seq, N)
    _resolve_grid(args, system)
    F = system.matrix
    G = system.gram
    suites = []

    inner = F @ G.apply(F.T)
    ortho_err = float(np.abs(inner - np.eye(system.size)).max())
    suites.append(("orthonormality", ortho_err <= args.tol_ortho, {"max_err": ortho_err}))

    check = gram.checkerboard_check(G)
    suites.append(("checkerboard", check.passed, {"first_violation": check.first_violation}))

    diag = gram.diag_inverse_bound(G)
    suites.append(("diag-bound", diag <= 1.0 + 1e-12, {"max_ratio": diag}))

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 1000)
    for n in range(2, N + 1):
        coarse = knots.partition_at(seq, n - 1) if n > 2 else knots.boundary_partition(seq.order)
        fine = knots.partition_at(seq, n)
        rmap = bspline.boehm_refine(coarse, fine, knots.insert_event(seq, n).i0)
        c = rng.standard_normal(coarse.M)
        gap = bspline.Spline(fine, rmap.prolong(c)).eval(xs) - bspline.Spline(coarse, c).eval(xs)
        worst = max(worst, float(np.abs(gap).max()))
    suites.append(("boehm-identity", worst <= args.tol_recon, {"max_err": worst}))

    # At p = 2 the length normalization |J|^(1/p - 1/2) drops out, so the
    # band is just the share of unit L2 mass each function keeps on its J.
    ratios = []
    for n in range(2, N + 1):
        fn = system.function(n)
        ratios.append(bspline.lp_norm(fn.phi, 2.0, fn.char.J))
    lo, hi = float(min(ratios)), float(max(ratios))
    suites.append(("norm-equivalence", 0.0 < lo <= hi < 1.001, {"band_min": lo, "band_max": hi}))

    profile = gram.decay_profile(G)
    gamma = profile.gamma_hat if 0.0 < profile.gamma_hat < 1.0 else 0.5
    audit = analysis.tail_decay_audit(system, 2.0, gamma)
    suites.append(
        (
            "tail-decay",
            profile.gamma_hat < 1.0,
            {"gamma": profile.gamma_hat, "max_ratio": audit["max_ratio"]},
        )
    )

    holds = True
    worst_c = 0.0
    for trial in range(5):
        e = analysis.Expansion(system, N, analysis.random_coeffs(args.seed, trial, system.size))
        sf = analysis.square_function(e, args.grid)
        lam = max(float(np.quantile(sf.values, 0.6)), 1e-9)
        sets = analysis.level_sets(e, lam, 0.5, args.grid)
        holds = holds and bool(np.all(sets.B[sets.E]))
        if sets.weak_constant is not None:
            worst_c = max(worst_c, sets.weak_constant)
    suites.append(("level-set-inclusion", holds, {"weak_constant": worst_c}))
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
    from . import charint, ortho

    seq, digest = _load_sequence(args)
    system = ortho.build_system(seq, args.n)
    betas = [args.beta] if args.beta is not None else [0.0, 0.25]
    results = []
    rows = []
    for beta in betas:
        count, window = charint.census_max(system, beta)
        results.append({"beta": beta, "max_count": count, "window": window and list(window)})
        where = f"window=({window[0]:.6g}, {window[1]:.6g})" if window else "window=none"
        rows.append((f"beta={beta}", f"max_count={count}  {where}"))
    payload = {"config": _config_dict(args), "input_hash": digest, "census": results}
    _emit(args, payload, rows)
    return 0


def _cmd_experiment(args):
    from . import analysis, ortho

    seq, digest = _load_sequence(args)
    system = ortho.build_system(seq, args.n)
    _resolve_grid(args, system)
    ps = args.p or [1.2, 1.5, 3.0, 6.0]
    reports = [
        analysis.uncond_experiment(
            seq, args.n, p, args.trials, args.seed, grid=args.grid, system=system
        )
        for p in ps
    ]
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
    sp.add_argument(
        "--grid", type=int, default=None, help="cell grid size (default: max(4096, 4 per knot))"
    )
    sp.add_argument("--tol-ortho", type=float, default=1e-10, help="orthonormality tolerance")
    sp.add_argument("--tol-recon", type=float, default=1e-8, help="reconstruction tolerance")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("census", help="characteristic-interval multiplicity sweep")
    common(sp)
    sp.add_argument("--beta", type=float, default=None, help="slack (default: 0 and 1/4)")
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
