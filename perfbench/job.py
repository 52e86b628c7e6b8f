"""One benchmark job: a fresh process that runs ``orthosplines.cli.main`` once.

Usage: python3 job.py RESULT_JSON TRACE(0|1) [CLI ARGS...]

Imports the seven layer modules, records the monotonic time at which they are
all imported (the parent subtracts its spawn time to get the set-up time),
optionally instruments them with spans, calls ``cli.main`` with the remaining
arguments and writes timings, exit code, peak RSS and spans to RESULT_JSON.
With no CLI arguments it only imports, which warms caches before the measured
jobs.
"""

import json
import sys
import time

from orthosplines import analysis, bspline, charint, cli, gram, knots, ortho

import spans

LAYERS = (knots, bspline, gram, ortho, charint, analysis, cli)


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _largest(counters, key, n):
    counters[key] = max(counters.get(key, 0), n)


def _prolong_many(counters, args, out):
    _add(counters, "prolong_many.elems", out.size)
    _add(counters, "prolong_many.rows", len(args[1]))


# Counters computed from argument and result shapes, keyed by span name.
MEASURES = {
    "bspline.RefinementMap.prolong_many": _prolong_many,
    "bspline.eval_basis_many": lambda c, args, out: _add(c, "eval_basis_many.points", len(out[1])),
    "bspline.basis_matrix": lambda c, args, out: _largest(c, "basis_matrix.bytes", out.nbytes),
    "bspline.GramSystem.inverse": lambda c, args, out: _largest(c, "GramSystem.inverse.bytes", out.nbytes),
    "analysis.tail_decay_audit": lambda c, args, out: _add(c, "tail_decay_audit.tails", out["tails"]),
}


def peak_rss_mb():
    """This process's own resident high-water mark (VmHWM).

    The rusage maximum is not used: Linux carries the parent's high-water mark
    into a child across fork and exec, so it would report the benchmark's size.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    imported = time.monotonic()
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    result = {"imported": imported, "module": cli.__file__}
    if cli_args:
        recorder = spans.Recorder(measures=MEASURES) if trace else None
        if recorder is not None:
            spans.instrument(LAYERS, recorder)
        start = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        result["main_s"] = time.perf_counter() - start
        result["rc"] = rc
        if recorder is not None:
            result["spans"] = recorder.rows()
            result["counters"] = recorder.counters
    result["rss_mb"] = peak_rss_mb()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
