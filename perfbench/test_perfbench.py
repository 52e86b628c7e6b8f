"""Tests of the benchmark's own parts: inputs, span arithmetic, output checks."""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from orthosplines import cli, knots  # noqa: E402


@pytest.mark.parametrize("law", sorted(inputs.LAWS))
@pytest.mark.parametrize("k", [1, 3, 4])
def test_generators_are_admissible(law, k):
    for seed in range(3):
        doc = inputs.points(law, seed, k, 300, stream=7)
        seq = knots.validate_admissible(doc["k"], doc["points"])
        assert len(seq) == 301
    assert doc == inputs.points(law, 2, k, 300, stream=7)


def test_near_one_leads_with_the_powers_of_two():
    pts = inputs.points("near-one", 0, 3, 512, stream=0)["points"]
    assert pts[2:42] == [1.0 - 2.0**-j for j in range(1, 41)]


class Ticks:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_nested_trace():
    rec = spans.Recorder(clock=Ticks())

    def leaf():
        return 1

    def mid():
        return leaf() + leaf()

    def top():
        return mid() + leaf()

    leaf, mid, top = rec.wrap(leaf), rec.wrap(mid), rec.wrap(top)
    assert top() == 3
    stats = {(name.rsplit(".", 1)[-1], parent and parent.rsplit(".", 1)[-1]): (calls, total, own)
             for name, parent, calls, total, own in rec.rows()}
    # Clock readings: top 1, mid 2, leaf 3-4, leaf 5-6, mid ends 7, leaf 8-9, top ends 10.
    assert stats[("leaf", "mid")] == (2, 2.0, 2.0)
    assert stats[("leaf", "top")] == (1, 1.0, 1.0)
    assert stats[("mid", "top")] == (1, 5.0, 3.0)
    assert stats[("top", None)] == (1, 9.0, 3.0)
    totals = spans.self_times(rec.rows())
    assert sum(own for _c, _t, own in totals.values()) == 9.0


def _fake_layers():
    lib = types.ModuleType("pkg.lib")
    app = types.ModuleType("pkg.app")
    exec(
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @property\n"
        "    def value(self):\n"
        "        return self.v\n"
        "    def double(self):\n"
        "        return 2 * self.value\n"
        "def make(v):\n"
        "    return Box(v)\n",
        lib.__dict__,
    )
    for obj in (lib.Box, lib.make):
        obj.__module__ = "pkg.lib"
    app.make = lib.make  # a from-import re-binding
    app.Box = lib.Box
    return lib, app


def test_instrument_wraps_functions_methods_properties_and_rebound_names():
    lib, app = _fake_layers()
    rec = spans.Recorder()
    spans.instrument([lib, app], rec)
    box = app.make(3)
    assert isinstance(box, lib.Box) and app.Box is lib.Box
    assert box.double() == 6
    calls = {name: c for name, (c, _t, _s) in spans.self_times(rec.rows()).items()}
    assert calls == {"lib.make": 1, "lib.Box.double": 1, "lib.Box.value": 1}


def test_missing_wrapped_name_yields_zero_calls():
    lib, app = _fake_layers()
    del lib.make, app.make
    rec = spans.Recorder()
    spans.instrument([lib, app], rec)
    job = {"spans": rec.rows(), "counters": rec.counters, "wall_s": 1.0, "bytes": 0}
    values = run.traced_cycle_values([job])
    assert values["bspline.RefinementMap.prolong_many.self_s"] == 0
    assert values["knots.partition_at.calls"] == 0
    assert values["bspline.RefinementMap.prolong_many.rows_per_level"] == 0
    plain = run.command_values([{"command": "build", "main_s": 1.0, "status": "pass"}])
    assert set(values) | set(plain) | {"ortho.residual_max", "trace.overhead_s"} \
        == {name for name, _unit, _better in run.PER_LAYER}


@pytest.fixture(scope="module")
def build_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("build")
    doc = inputs.points("uniform-iid", 5, 3, 40, stream=0)
    inputs.write_points(tmp / "points.json", doc)
    out = tmp / "system.json"
    assert cli.main(["build", "--points", str(tmp / "points.json"), "--out", str(out)]) == 0
    return json.loads(out.read_text()), doc


def test_build_check_passes_a_true_export(build_report):
    report, doc = build_report
    assert checks.check_build(0, report, doc, seed=1)[0] == "pass"


def test_corrupted_coefficient_is_flagged(build_report):
    report, doc = build_report
    bad = json.loads(json.dumps(report))
    target = bad["records"][checks.sampled(len(bad["records"]), seed=1)[5]]
    target["coeffs"][len(target["coeffs"]) // 2] += 1e-6
    status, _detail, err = checks.check_build(0, bad, doc, seed=1)
    assert status == "fail" and err > 1e-8


def test_verify_check_separates_findings_from_failures():
    report = {"suites": [{"name": "orthonormality", "passed": False, "measured": {"max_err": 1e-4}},
                         {"name": "checkerboard", "passed": True, "measured": {}}]}
    assert checks.check_verify(1, report, "failed invariant: orthonormality\n")[0] == "finding"
    assert checks.check_verify(0, report, "")[0] == "fail"
    report["suites"][0]["passed"] = True
    assert checks.check_verify(0, report, "") == ("pass", "all suites pass", 1e-4)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _u, _b in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_a_report_that_changes_between_runs_fails_the_later_job():
    jobs = [{"kind": "build", "sha": sha, "status": "pass", "trace": trace}
            for sha, trace in (("a", False), ("a", True), ("b", True), ("a", False))]
    run.mark_nondeterministic(jobs)
    assert [job["status"] for job in jobs] == ["pass", "pass", "fail", "pass"]
    assert jobs[2]["detail"].endswith("(traced)")


def test_times_are_scaled_by_the_median_probe():
    cycles = [[{"kind": "build", "command": "build", "setup_s": 0.6, "main_s": 6.0,
                "rss_mb": 100.0, "status": "pass"}]]
    values = run.end_to_end_values(cycles, run.WORKLOADS["build-large"], probes=[0.8, 0.8, 1.0])
    scale = run.PROBE_REF_S / 0.8
    assert values["cycle_s"] == pytest.approx(6.0 * scale)
    assert values["setup_s"] == pytest.approx(0.6 * scale)
    assert values["peak_rss_mb"] == 100.0 and values["pass_share"] == 1.0
