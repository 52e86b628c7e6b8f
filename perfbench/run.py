"""Cold-process benchmark of the orthosplines command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling [--seed N]

Each workload is a closed loop with one client.  Jobs run one at a time, and
every job is a fresh Python process that calls ``orthosplines.cli.main`` the
way a user runs the CLI, with BLAS capped at one thread.  The benchmark draws
the knot points from ``--seed`` itself and passes them with ``--points``.  A
workload rotates a fixed list of job kinds; the run repeats whole rotations
("cycles") for about ``--seconds``, and at least two, so that every input
runs twice and its reports can be compared byte for byte.

With ``--trace 0`` the last line reports the end-to-end metrics, with the
two times scaled by an import probe run before every job (probe.py).  With
``--trace 1`` cycles alternate untraced and traced (see spans.py), and the
last line reports the per-layer metrics; the traced reports must equal the
untraced ones.  ``--scaling`` prints an ungated report of build time and peak
RSS against N and k.  See BASELINE.md for the workloads, the metrics and the
numbers measured at the seed commit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "work"
THREADS = "1"
JOB_TIMEOUT_S = 150.0
# Import-probe time that the reported times are scaled to; see end_to_end_values.
PROBE_REF_S = 0.4
LAYERS = ("knots", "bspline", "gram", "ortho", "charint", "analysis", "cli")
COMMANDS = ("build", "verify", "experiment", "census", "decay")
P_VALUES = ("1.2", "1.5", "3", "6")


@dataclass(frozen=True)
class Kind:
    """One job of a workload's rotation: a subcommand on points of one law."""

    name: str
    command: str
    law: str
    k: int
    n: int
    extra: tuple = ()


EXPERIMENT_ARGS = tuple(a for p in P_VALUES for a in ("--p", p)) + ("--trials", "1000", "--grid", "4096")

WORKLOADS = {
    "build-large": (Kind("build", "build", "uniform-iid", 3, 1024),),
    "verify-mixed": (
        Kind("verify-dyadic", "verify", "dyadic-shuffled", 3, 512),
        Kind("verify-uniform", "verify", "uniform-iid", 3, 512),
        Kind("verify-near-one", "verify", "near-one", 3, 512),
    ),
    "analyze": (
        Kind("experiment", "experiment", "dyadic-shuffled", 3, 512, EXPERIMENT_ARGS),
        Kind("census", "census", "dyadic-shuffled", 3, 512),
        Kind("decay", "decay", "uniform-iid", 4, 4096),
    ),
}

SCALING = [(3, n) for n in (256, 512, 1024, 2048)] + [(k, 512) for k in range(1, 7)]

# (name, unit, better); values come from per_layer_values().
PER_LAYER = (
    [(f"{layer}.{field}", unit, "lower") for layer in LAYERS
     for field, unit in (("self_s", "s"), ("calls", "count"))]
    + [(f"{span}.self_s", "s", "lower") for span in (
        "bspline.RefinementMap.prolong_many", "ortho.build_system", "knots.partition_at",
        "knots.insert_event", "bspline.gram_matrix", "ortho.ortho_function",
        "bspline.GramSystem.solve", "ortho.OrthoSystem.export_records",
        "bspline.GramSystem.inverse", "gram.checkerboard_check", "gram.diag_inverse_bound",
        "gram.decay_profile", "analysis.tail_decay_audit", "charint.d_point",
        "analysis.uncond_experiment", "bspline.basis_matrix", "bspline.eval_basis_many",
        "analysis.square_function", "analysis.level_sets", "bspline.lp_norm",
        "charint.census_max", "charint.characteristic_interval")]
    + [(f"{span}.calls", "count", "lower") for span in (
        "knots.partition_at", "bspline.gram_matrix", "bspline.GramSystem.solve", "charint.d_point")]
    + [
        ("bspline.RefinementMap.prolong_many.elems", "count", "lower"),
        ("bspline.RefinementMap.prolong_many.rows_per_level", "ratio", "lower"),
        ("knots.partition_at.per_level", "ratio", "lower"),
        ("bspline.GramSystem.inverse.bytes", "B", "lower"),
        ("bspline.basis_matrix.bytes", "B", "lower"),
        ("bspline.eval_basis_many.points", "count", "lower"),
        ("analysis.tail_decay_audit.tails", "count", "lower"),
        ("cli.report_bytes", "B", "lower"),
        ("ortho.residual_max", "abs", "lower"),
        ("ortho.levels", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "share", "higher"),
    ]
    + [(f"{command}_s", "s", "lower") for command in COMMANDS]
    + [("fail_share", "share", "lower")]
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cycle_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "share", "higher"),
)


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["ORTHOSPLINES_THREADS"] = THREADS
    # The job imports numpy before cli.main applies the cap, so set what it would set.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def spawn(argv, log_path, timeout=JOB_TIMEOUT_S):
    """Run a child to completion; returns (monotonic spawn time, exit code)."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=job_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            return start, proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log.write(f"timeout: killed after {timeout:g} s\n".encode())
            return start, None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_job(kind, slot, seed, trace):
    """One cold job; returns its record with timings, status and spans.

    ``slot`` holds the kind's drawn points, file paths and the verdicts of
    reports already checked.
    """
    result_path = WORK / f"{kind.name}.result.json"
    log_path = WORK / f"{kind.name}.log"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "job.py"), str(result_path), str(int(trace)), kind.command,
            "--points", str(slot["points"]), "--n", str(kind.n), "--seed", str(seed),
            "--out", str(slot["out"]), *kind.extra]
    start, exit_code = spawn(argv, log_path)
    end = time.monotonic()
    job = {"kind": kind.name, "command": kind.command, "trace": trace, "exit": exit_code,
           "rss_mb": 0.0, "wall_s": end - start, "residual": 0.0}
    log = log_path.read_text(errors="replace")
    if exit_code != 0 or not result_path.exists():
        job.update(status="fail", detail=f"job process exit {exit_code}: {log.strip()[-300:]}")
        return job
    result = json.loads(result_path.read_text())
    job.update(setup_s=result["imported"] - start, main_s=result["main_s"], rss_mb=result["rss_mb"],
               spans=result.get("spans", []), counters=result.get("counters", {}))
    if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
        job.update(status="fail", detail=f"imported {result['module']}, not the checkout's src/")
        return job
    report = slot["out"].read_bytes() if slot["out"].exists() else b""
    job["sha"] = hashlib.sha256(report).hexdigest()
    job["bytes"] = len(report)
    # The same report, exit code and log give the same verdict; check each once.
    key = (job["sha"], result["rc"], log)
    if key not in slot["checked"]:
        slot["checked"][key] = checks.check(kind.command, result["rc"], report.decode(), log,
                                             slot["doc"], seed, n_p=len(P_VALUES))
    status, detail, err = slot["checked"][key]
    job.update(status=status, detail=detail, residual=err)
    slot["out"].unlink(missing_ok=True)
    return job


def run_probe():
    """Seconds from spawning probe.py until its imports are done."""
    log_path = WORK / "probe.log"
    start, exit_code = spawn([sys.executable, str(BENCH / "probe.py")], log_path)
    if exit_code != 0:
        raise RuntimeError(f"probe.py exited {exit_code}: {log_path.read_text()[-300:]}")
    return float(log_path.read_text()) - start


def prepare(kinds, seed):
    """Draw and write each kind's points; kinds on the same (law, k, n) share them."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    slots = {}
    for kind in kinds:
        stream = zlib.crc32(f"{kind.law}/{kind.k}/{kind.n}".encode())
        doc = inputs.points(kind.law, seed, kind.k, kind.n, stream)
        points = WORK / f"points-{kind.law}-k{kind.k}-n{kind.n}.json"
        inputs.write_points(points, doc)
        slots[kind.name] = {"doc": doc, "points": points, "out": WORK / f"{kind.name}.report.json",
                            "checked": {}}
    return slots


def run_cycles(kinds, seed, seconds, trace):
    """Whole rotations, at least two, while the next one would end within half a rotation of time.

    Traced runs alternate untraced and traced rotations.  The import probe
    runs before every job; returns the cycles and the probe times.
    """
    slots = prepare(kinds, seed)
    spawn([sys.executable, str(BENCH / "job.py"), str(WORK / "warmup.json"), "0"], WORK / "warmup.log")
    cycles, probes = [], []
    start = time.monotonic()
    while len(cycles) < 2 or (time.monotonic() - start) * (len(cycles) + 0.5) / len(cycles) <= seconds:
        traced = trace and len(cycles) % 2 == 1
        cycle = []
        for kind in kinds:
            probes.append(run_probe())
            cycle.append(run_job(kind, slots[kind.name], seed, traced))
        cycles.append(cycle)
    mark_nondeterministic([job for cycle in cycles for job in cycle])
    return cycles, probes


def mark_nondeterministic(jobs):
    """A report that differs from the first (untraced) one of the same input fails its job.

    Traced jobs are compared too, so tracing must not change any output.
    """
    first = {}
    for job in jobs:
        if "sha" not in job:
            continue
        sha = first.setdefault(job["kind"], job["sha"])
        if job["sha"] != sha and job["status"] != "fail":
            job.update(status="fail", detail="report differs from the first run of the same input"
                       + (" (traced)" if job["trace"] else ""))


def median(values):
    return statistics.median(values) if values else 0.0


def cycle_time(cycles, kinds):
    """Sum over the rotation's kinds of the median cli.main time of that kind."""
    return sum(median([job["main_s"] for cycle in cycles for job in cycle
                       if job["kind"] == kind.name and "main_s" in job]) for kind in kinds)


def end_to_end_values(cycles, kinds, probes):
    """End-to-end values; the two times are scaled to a fixed machine speed.

    The box's speed drifts by 20-30 % over minutes and moves the jobs and the
    import probe alike, so both times are multiplied by PROBE_REF_S over the
    run's median probe time: seconds on a machine where the probe takes
    PROBE_REF_S.  The unscaled medians are printed in the summary lines.
    """
    jobs = [job for cycle in cycles for job in cycle]
    scale = PROBE_REF_S / median(probes)
    return {
        "setup_s": median([job["setup_s"] for job in jobs if "setup_s" in job]) * scale,
        "cycle_s": cycle_time(cycles, kinds) * scale,
        "peak_rss_mb": max(job["rss_mb"] for job in jobs),
        "pass_share": sum(job["status"] == "pass" for job in jobs) / len(jobs),
    }


def command_values(jobs):
    """Median cli.main time per subcommand (0 when absent) and the failed share."""
    out = {f"{command}_s": median([job["main_s"] for job in jobs
                                   if job["command"] == command and "main_s" in job])
           for command in COMMANDS}
    out["fail_share"] = sum(job["status"] != "pass" for job in jobs) / len(jobs)
    return out


def traced_cycle_values(cycle):
    """Per-layer values of one traced cycle, summed over its jobs."""
    totals = spans.self_times([row for job in cycle for row in job.get("spans", [])])
    counters = {}
    for job in cycle:
        for key, value in job.get("counters", {}).items():
            counters[key] = max(counters.get(key, 0), value) if key.endswith(".bytes") else \
                counters.get(key, 0) + value

    def span(name, field):
        calls, _total, own = totals.get(name, (0, 0.0, 0.0))
        return own if field == "self_s" else calls

    levels = span("ortho.ortho_function", "calls")
    values = {}
    for layer in LAYERS:
        mine = [entry for name, entry in totals.items() if name.split(".")[0] == layer]
        values[f"{layer}.self_s"] = sum(own for _calls, _total, own in mine)
        values[f"{layer}.calls"] = sum(calls for calls, _total, _own in mine)
    for name, _unit, _better in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name not in values and field in ("self_s", "calls") and head not in LAYERS:
            values[name] = span(head, field)
    values.update({
        "bspline.RefinementMap.prolong_many.elems": counters.get("prolong_many.elems", 0),
        "bspline.RefinementMap.prolong_many.rows_per_level":
            counters.get("prolong_many.rows", 0) / levels if levels else 0.0,
        "knots.partition_at.per_level": span("knots.partition_at", "calls") / levels if levels else 0.0,
        "bspline.GramSystem.inverse.bytes": counters.get("GramSystem.inverse.bytes", 0),
        "bspline.basis_matrix.bytes": counters.get("basis_matrix.bytes", 0),
        "bspline.eval_basis_many.points": counters.get("eval_basis_many.points", 0),
        "analysis.tail_decay_audit.tails": counters.get("tail_decay_audit.tails", 0),
        "cli.report_bytes": sum(job.get("bytes", 0) for job in cycle),
        "ortho.levels": levels,
        "trace.coverage": sum(s for _c, _t, s in totals.values()) / sum(job["wall_s"] for job in cycle),
    })
    return values


def per_layer_values(cycles, kinds):
    plain = [cycle for cycle in cycles if not cycle[0]["trace"]]
    traced = [cycle for cycle in cycles if cycle[0]["trace"]]
    per_cycle = [traced_cycle_values(cycle) for cycle in traced]
    values = {key: median([v[key] for v in per_cycle]) for key in per_cycle[0]}
    values.update(command_values([job for cycle in plain for job in cycle]))
    values["ortho.residual_max"] = max(job["residual"] for cycle in cycles for job in cycle)
    values["trace.overhead_s"] = cycle_time(traced, kinds) - cycle_time(plain, kinds)
    return values


def print_jobs(cycles):
    print(f"{'kind':<16} {'trace':>5} {'exit':>4} {'setup_s':>8} {'main_s':>8} {'rss_mb':>7}  status")
    for cycle in cycles:
        for job in cycle:
            print(f"{job['kind']:<16} {int(job['trace']):>5} {str(job['exit']):>4} "
                  f"{job.get('setup_s', float('nan')):>8.3f} {job.get('main_s', float('nan')):>8.3f} "
                  f"{job['rss_mb']:>7.1f}  {job['status']}: {job['detail']}")


def print_summary(jobs, values, probes, raw_cycle_s):
    """Every end-to-end figure with its unit and sample count, the per-command ones included.

    The rows down to probe_s are unscaled; the result-line metrics follow.
    """
    samples = {f"{c}_s": sum(job["command"] == c and "main_s" in job for job in jobs) for c in COMMANDS}
    rows = [(key, value, "share" if key == "fail_share" else "s", samples.get(key, len(jobs)))
            for key, value in command_values(jobs).items()]
    rows += [("raw_setup_s", median([job["setup_s"] for job in jobs if "setup_s" in job]), "s",
              len(jobs)), ("raw_cycle_s", raw_cycle_s, "s", len(jobs)),
             ("probe_s", median(probes), "s", len(probes))]
    rows += [(name, values[name], unit, len(jobs)) for name, unit, _ in END_TO_END]
    for name, value, unit, count in rows:
        print(f"{name:<14} {value:>12.4f} {unit:<6} samples {count}")


def result_line(jobs, values, spec):
    failed = sum(job["status"] == "fail" for job in jobs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    })


def run_workload(name, seed, seconds, trace):
    kinds = WORKLOADS[name]
    cycles, probes = run_cycles(kinds, seed, seconds, trace)
    jobs = [job for cycle in cycles for job in cycle]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
          f"threads {THREADS}  cycles {len(cycles)}  jobs {len(jobs)}")
    print_jobs(cycles)
    if trace:
        values, spec = per_layer_values(cycles, kinds), PER_LAYER
    else:
        values, spec = end_to_end_values(cycles, kinds, probes), END_TO_END
        print_summary(jobs, values, probes, cycle_time(cycles, kinds))
    shutil.rmtree(WORK, ignore_errors=True)
    return result_line(jobs, values, spec)


def run_scaling(seed):
    """Ungated: one cold untraced build per (k, N); build time and peak RSS."""
    rows = []
    for k, n in SCALING:
        kind = Kind(f"build-k{k}-n{n}", "build", "uniform-iid", k, n)
        job = run_job(kind, prepare([kind], seed)[kind.name], seed, False)
        rows.append({"k": k, "N": n, "build_s": job.get("main_s"), "setup_s": job.get("setup_s"),
                     "peak_rss_mb": job["rss_mb"], "status": job["status"], "detail": job["detail"]})
        print(json.dumps(rows[-1]), flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return json.dumps({"scaling": rows, "seed": seed, "threads": THREADS})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", action="store_true", help="print the ungated N/k scaling report")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orthosplines" / "cli.py").is_file():
        print(f"error: no orthosplines sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.scaling:
        print(run_scaling(args.seed))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
