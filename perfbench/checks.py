"""Output checks of the benchmark jobs, independent of the program's own code.

Each check returns ``(status, detail, residual)``, where residual is the
orthonormality error the check saw (0 when it looks at none).  ``pass``: the job did what it was
asked.  ``finding``: ``verify`` exited 1 and its report names the failing
suites consistently; the program reported one of its own invariants as
broken, which counts against ``pass_share`` but is not a failed operation.
``fail``: anything else, such as a crash, an exit code the report does not
explain, a non-finite field or a build export that is not orthonormal.
"""

import hashlib
import json
import math

import numpy as np
from scipy.interpolate import BSpline

# Exported functions whose inner products the build check recomputes.
BUILD_SAMPLES = 24
ORTHO_TOL = 1e-10


def level_knots(doc, n):
    """Extended level-n knot vector: boundary multiplicity k, sorted t_2..t_n."""
    k = doc["k"]
    interior = np.sort(np.asarray(doc["points"][2 : n + 1], dtype=float))
    return np.concatenate([np.zeros(k), interior, np.ones(k)])


def build_error(report, doc, seed, samples=BUILD_SAMPLES):
    """Largest |<phi_m, phi_n> - delta_mn| over a seeded sample of exported functions.

    Each sampled record is evaluated with scipy's B-splines on its level knot
    vector, rebuilt from the input points and checked against the record's
    knots-hash; the inner products use k Gauss nodes on every span of the
    finest level, which is exact for these piecewise polynomials.
    """
    k = doc["k"]
    records = report["records"]
    if [r["level"] for r in records] != list(range(2, len(records) + 2)):
        raise ValueError("records are not the levels 2..N in order")
    finest = np.unique(level_knots(doc, len(records) + 1))
    ref_x, ref_w = np.polynomial.legendre.leggauss(k)
    half = 0.5 * np.diff(finest)
    xs = ((finest[:-1] + half)[:, None] + half[:, None] * ref_x).ravel()
    ws = (half[:, None] * ref_w).ravel()
    values = []
    for idx in sampled(len(records), seed, samples):
        record = records[idx]
        knots = level_knots(doc, record["level"])
        if hashlib.sha256(knots.tobytes()).hexdigest() != record["knots-hash"]:
            raise ValueError(f"level {record['level']}: knots-hash does not match the input points")
        values.append(BSpline(knots, np.asarray(record["coeffs"], dtype=float), k - 1)(xs))
    V = np.asarray(values)
    return float(np.abs((V * ws) @ V.T - np.eye(len(V))).max())


def sampled(count, seed, samples=BUILD_SAMPLES):
    """Sorted seeded choice of record indices for the build check."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(count, size=min(samples, count), replace=False))


def finite(obj):
    """True when every number in a JSON value is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite(v) for v in obj)
    return True


def check_build(rc, report, doc, seed):
    if rc != 0:
        return "fail", f"exit {rc}", 0.0
    err = build_error(report, doc, seed)
    if not err <= ORTHO_TOL:
        return "fail", f"orthonormality error {err:.3e} > {ORTHO_TOL:g}", err
    return "pass", f"orthonormality error {err:.3e}", err


def check_verify(rc, report, log):
    suites = {s["name"]: s for s in report["suites"]}
    err = float(suites["orthonormality"]["measured"]["max_err"])
    failing = [name for name, s in suites.items() if not s["passed"]]
    if rc == 0 and not failing:
        return "pass", "all suites pass", err
    if rc == 1 and failing and f"failed invariant: {failing[0]}" in log:
        return "finding", "failing suites: " + ", ".join(failing), err
    return "fail", f"exit {rc} with failing suites {failing}", err


def check_fields(rc, report, key, count):
    if rc != 0:
        return "fail", f"exit {rc}", 0.0
    entries = report.get(key)
    if not isinstance(entries, list) or len(entries) != count:
        return "fail", f"expected {count} {key} entries", 0.0
    if not finite(entries):
        return "fail", f"non-finite value in {key}", 0.0
    return "pass", f"{count} finite {key} entries", 0.0


def check(command, rc, report_text, log, doc, seed, n_p=0):
    """Status, detail and residual of one job from its exit code, report and log."""
    if rc == 2:
        return "fail", "usage or input error: " + log.strip()[-200:], 0.0
    try:
        report = json.loads(report_text)
        if command == "build":
            return check_build(rc, report, doc, seed)
        if command == "verify":
            return check_verify(rc, report, log)
        if command == "experiment":
            return check_fields(rc, report, "reports", n_p)
        if command == "census":
            return check_fields(rc, report, "census", 2)
        if command == "decay":
            status, detail, err = check_fields(rc, report, "profiles", 2)
            if status == "pass" and not all(p["gamma"] < 1.0 for p in report["profiles"]):
                return "fail", "decay rate gamma >= 1", err
            return status, detail, err
    except (KeyError, TypeError, ValueError) as exc:
        return "fail", f"malformed report: {exc}", 0.0
    raise ValueError(f"no check for command {command!r}")
