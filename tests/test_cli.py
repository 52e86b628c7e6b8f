import argparse
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import canonical_json

from orthosplines import bspline, cli, knots, ortho


# A knot at the smallest normal double makes the level-5 complement function of k=3
# infinite.
FAILS_AT_LEVEL_5 = [0.0, 1.0, 0.5, 0.25, 0.75, 2.0**-1022, 2.0**-1021]
# k = 2 with every interior knot twice: the level-15 Gram inverse is block diagonal with
# 2 x 2 blocks, so its decay fit has two offsets.
FULL_MULTIPLICITY_K2 = [0.0, 1.0] + [
    x for x in (1 / 2, 1 / 4, 3 / 4, 1 / 8, 3 / 8, 5 / 8, 7 / 8) for _ in range(2)
]
# Two knots one ulp apart next to 1: their spans are a few ulps wide, and still build.
ONE_ULP_PAIR_NEAR_ONE = [0.0, 1.0, 0.5, 0.25, float(np.nextafter(1.0, 0.0)), 1.0 - 2.0**-52, 0.75]


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def deadline():
    """Fail a test that has not returned within 20 s instead of letting it hang."""

    def expire(signum, frame):
        pytest.fail("no return within 20 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


_COMMON = {"--k", "--n", "--seed", "--law", "--out"}
# Every long option of every subcommand; a new flag must be added here.
OPTIONS = {
    "gen": _COMMON,
    "build": _COMMON | {"--points"},
    "verify": _COMMON | {"--points"},
    "census": _COMMON | {"--points", "--beta"},
    "experiment": _COMMON | {"--points", "--p", "--trials", "--grid"},
    "decay": _COMMON | {"--points"},
}


def test_each_subcommand_has_exactly_its_options():
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {opt for a in sp._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"}
        for name, sp in sub.choices.items()
    }
    assert found == OPTIONS


def test_report_config_is_every_parsed_option(tmp_path):
    out = tmp_path / "verify.json"
    assert run("verify", "--k", "1", "--n", "8", "--seed", "2", "--out", str(out)) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == {"command", "k", "n", "seed", "law", "points", "out"}


class TestGenAndBuild:
    def test_gen_then_build_roundtrip(self, tmp_path):
        seq_file = tmp_path / "seq.json"
        assert run("gen", "--k", "2", "--n", "6", "--seed", "4", "--out", str(seq_file)) == 0
        data = json.loads(seq_file.read_text())
        assert data["k"] == 2
        out = tmp_path / "build.json"
        assert run("build", "--points", str(seq_file), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "build"
        assert payload["records"][0]["level"] == 2

    def test_build_explicit_points(self, tmp_path):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 1, "points": [0.0, 1.0, 0.5]}))
        out = tmp_path / "build.json"
        assert run("build", "--points", str(seq_file), "--out", str(out)) == 0
        rec = json.loads(out.read_text())["records"][0]
        assert rec["level"] == 2
        assert rec["coeffs"] == [1.0, -1.0]

    def test_order_mismatch_is_usage_error(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 1, "points": [0.0, 1.0, 0.5]}))
        assert run("build", "--points", str(seq_file), "--k", "2") == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_non_finite_level_is_an_error(self, tmp_path, capsys):
        # knots at the smallest normal doubles give norm2 = inf at level 2
        seq_file = tmp_path / "seq.json"
        points = [0.0, 1.0, 2.0**-1022, 0.5, 0.25, 0.75, 2.0**-1021, 0.125]
        seq_file.write_text(json.dumps({"k": 3, "points": points}))
        out = tmp_path / "build.json"
        assert run("build", "--points", str(seq_file), "--out", str(out)) == 2
        assert "error: level 2" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "build.txt").exists()

    def test_failing_level_mid_stream_leaves_no_file(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 3, "points": FAILS_AT_LEVEL_5}))
        out = tmp_path / "build.json"
        assert run("build", "--points", str(seq_file), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "error: level 5" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.json"]

    def test_one_ulp_pair_near_one_builds(self, tmp_path):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 3, "points": ONE_ULP_PAIR_NEAR_ONE}))
        assert run("build", "--points", str(seq_file), "--out", str(tmp_path / "build.json")) == 0
        seq = knots.validate_admissible(3, ONE_ULP_PAIR_NEAR_ONE)
        system = ortho.build_system(seq, len(seq.points) - 1)
        F = system.matrix
        assert np.abs(F @ system.gram.apply(F.T) - np.eye(system.size)).max() <= 1e-10

    def test_build_streams_its_records(self, tmp_path):
        # Peak traced memory stays flat in N and below the report's own size.
        run("build", "--k", "3", "--n", "50", "--seed", "1")
        peaks = {}
        for n in (200, 400):
            out = tmp_path / f"build-{n}.json"
            tracemalloc.start()
            try:
                assert run("build", "--k", "3", "--n", str(n), "--seed", "1", "--out", str(out)) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] < 1.5 * peaks[200]
        assert peaks[400] < out.stat().st_size / 4

    def test_build_without_out_builds_every_level(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 3, "points": FAILS_AT_LEVEL_5}))
        assert run("build", "--points", str(seq_file)) == 2
        assert "error: level 5" in capsys.readouterr().err

    def test_build_needs_n_or_points(self):
        assert run("build", "--k", "2", "--seed", "1") == 2

    def test_text_sibling_written(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("build", "--k", "1", "--n", "4", "--seed", "0", "--out", str(out)) == 0
        assert (tmp_path / "r.txt").exists()

    def test_reports_follow_the_umask(self, tmp_path):
        out = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            assert run("build", "--k", "1", "--n", "4", "--seed", "0", "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert stat.S_IMODE((tmp_path / "r.txt").stat().st_mode) == 0o644


class TestVerify:
    def test_known_good_run_passes(self, capsys):
        assert run("verify", "--k", "2", "--n", "64", "--seed", "1") == 0
        text = capsys.readouterr().out
        assert "pass" in text
        assert "FAIL" not in text

    def test_reports_every_suite(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run("verify", "--k", "1", "--n", "24", "--seed", "2", "--out", str(out)) == 0
        suites = json.loads(out.read_text())["suites"]
        assert [r["name"] for r in suites] == [
            "orthonormality",
            "checkerboard",
            "boehm-identity",
            "norm-equivalence",
            "tail-decay",
        ]
        assert all(r["passed"] for r in suites)

    def test_flush_leaves_the_orthonormality_error(self, tmp_path):
        # at this depth F holds thousands of nonzero entries below 1e-100
        out = tmp_path / "verify.json"
        assert run("verify", "--k", "2", "--n", "300", "--seed", "1", "--out", str(out)) == 0
        suites = json.loads(out.read_text())["suites"]
        [measured] = [r["measured"] for r in suites if r["name"] == "orthonormality"]
        system = ortho.build_system(knots.random_admissible(1, 2, 301), 300)
        F, G = system.matrix, system.gram
        assert ((F != 0.0) & (np.abs(F) < 1e-100)).sum() > 1000
        assert measured["max_err"] == float(np.abs(F @ G.apply(F.T) - np.eye(system.size)).max())

    def test_a_wrong_boehm_weight_fails_the_gate(self, monkeypatch, capsys):
        # ortho holds its own reference to boehm_weights, so the build is
        # untouched; only the Boehm check reads the scaled weights, those of
        # level 2, the first row of the one block of levels
        boehm_weights = bspline.boehm_weights

        def scaled(t):
            w1, w2 = boehm_weights(t)
            w1[0] *= 1.0 + 1e-6
            return w1, w2

        monkeypatch.setattr(bspline, "boehm_weights", scaled)
        assert run("verify", "--k", "3", "--n", "32", "--seed", "1") == 1
        assert "failed invariant: boehm-identity" in capsys.readouterr().err

    def test_a_wrong_coefficient_scale_fails_the_orthonormality_gate(self, monkeypatch, capsys):
        # one level's function, scaled after the walk, has squared norm
        # 1 + 2e-8, far past the 1e-10 gate
        build_system = ortho.build_system

        def scaled(seq, N):
            system = build_system(seq, N)
            system.coeffs[10] = system.coeffs[10] * (1.0 + 1e-8)
            return system

        monkeypatch.setattr(ortho, "build_system", scaled)
        assert run("verify", "--k", "3", "--n", "32", "--seed", "1") == 1
        assert "failed invariant: orthonormality" in capsys.readouterr().err

    def test_a_flipped_inverse_sign_fails_the_checkerboard_gate(self, monkeypatch, capsys, tmp_path):
        # b_{7,6} (1-based) is negative and well above the tolerance; with
        # its sign flipped, the check must name it
        inverse_columns = bspline.GramSystem.inverse_columns

        def flipped(self):
            for start, rows in inverse_columns(self):
                if start == 0:
                    rows = rows.copy()
                    rows[5, 1] = -rows[5, 1]
                yield start, rows

        monkeypatch.setattr(bspline.GramSystem, "inverse_columns", flipped)
        out = tmp_path / "verify.json"
        assert run("verify", "--k", "3", "--n", "32", "--seed", "1", "--out", str(out)) == 1
        assert "failed invariant: checkerboard" in capsys.readouterr().err
        [check] = [r for r in json.loads(out.read_text())["suites"] if r["name"] == "checkerboard"]
        assert check["measured"]["first_violation"] == [6, 7]


class TestExperiment:
    @pytest.mark.parametrize("command", ["build", "verify", "census", "experiment", "decay"])
    def test_reruns_are_byte_identical(self, tmp_path, command):
        out = tmp_path / f"{command}.json"
        argv = [command, "--k", "2", "--n", "16", "--seed", "3", "--out", str(out)]
        if command == "experiment":
            argv += ["--p", "1.5", "--p", "3.0", "--trials", "8"]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        assert cli.main(argv) == 0
        assert out.read_bytes() == first

    def test_ratio_table_shape(self, tmp_path):
        out = tmp_path / "exp.json"
        assert run(
            "experiment", "--k", "1", "--n", "12", "--seed", "0",
            "--p", "2.0", "--trials", "5", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        (entry,) = payload["reports"]
        assert entry["p"] == 2.0
        assert entry["ratio_max"] == pytest.approx(1.0, abs=1e-8)
        assert payload["config"]["grid"] == 2048

    def test_default_grid_grows_with_the_knots(self, tmp_path):
        # 603 knots at k=2, N=600: the old fixed 2048 cells were too coarse
        out = tmp_path / "exp.json"
        assert run(
            "experiment", "--k", "2", "--n", "600", "--seed", "0",
            "--p", "2", "--trials", "2", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["grid"] == 4 * 603
        assert payload["reports"][0]["grid"] == 4 * 603


class TestEvaluationCount:
    # verify evaluates the system at the tail audit's quadrature nodes and on
    # no cell grid (``bspline.eval_blocks`` reads a grid through the patched
    # ``bspline.eval_basis_many``), experiment at its quadrature nodes and on
    # the cell grid, each point once however many --p it gets.
    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["verify"], None),
            (
                ["experiment", "--p", "1.2", "--p", "1.5", "--p", "3", "--p", "6", "--trials", "8"],
                2048,
            ),
        ],
        ids=["verify", "experiment"],
    )
    def test_each_point_set_evaluated_once(self, monkeypatch, argv, grid):
        seen, rules = [], []
        eval_basis_many, rule_blocks = bspline.eval_basis_many, bspline.rule_blocks

        def counted(partition, xs):
            seen.append(np.array(xs, dtype=float))
            return eval_basis_many(partition, xs)

        def counted_rule(partition, rule):
            rules.append(rule)
            return rule_blocks(partition, rule)

        monkeypatch.setattr(bspline, "eval_basis_many", counted)
        monkeypatch.setattr(bspline, "rule_blocks", counted_rule)
        assert cli.main(argv + ["--k", "2", "--n", "16", "--seed", "3"]) == 0
        # the quadrature nodes: one rule over the finest knots, each node on its span
        finest = knots.partition_at(knots.random_admissible(3, 2, 17), 16)
        want = bspline.QuadratureRule.over_spans(finest.knots, 2 + 6)
        [rule] = rules
        assert np.array_equal(rule.spans, want.spans)
        assert np.array_equal(rule.offsets, want.offsets)
        if grid is None:
            assert seen == []
            return
        cells = (np.arange(grid) + 0.5) / grid
        points = np.concatenate(seen)
        assert np.isin(cells, points).all()
        assert np.isin(points, cells).sum() == len(cells)

    def test_boehm_identity_evaluates_only_the_changed_spans(self, monkeypatch):
        # No level evaluates the 1,000 points whole.  Each block of levels
        # makes two window_basis calls, fine and coarse, on the points of
        # the 2k - 2 spans next to each of its new knots alone; at k = 2
        # those two spans are the coarse span the knot splits.
        seen, fresh = [], []
        eval_basis_many, window_basis = bspline.eval_basis_many, bspline.window_basis

        def counted(partition, xs):
            if len(xs) == 1000:
                seen.append(partition.level)
            return eval_basis_many(partition, xs)

        def counted_window(windows, k, rows, spans, u):
            fresh.append(len(u))
            return window_basis(windows, k, rows, spans, u)

        monkeypatch.setattr(bspline, "eval_basis_many", counted)
        monkeypatch.setattr(bspline, "window_basis", counted_window)
        monkeypatch.setattr(ortho, "LEVEL_BLOCK", 4)
        assert cli.main(["verify", "--k", "2", "--n", "16", "--seed", "3"]) == 0
        assert seen == []
        # the points on fine spans p - 1 and p of each level, found by a whole
        # evaluation of that level
        seq, xs = knots.random_admissible(3, 2, 17), np.linspace(0.0, 1.0, 1000)
        part, changed = knots.boundary_partition(2), []
        for _ in range(15):
            part, i0 = knots.next_partition(seq, part)
            first, _ = eval_basis_many(part, xs)  # at k = 2, first is the span
            changed.append(int(((first >= i0 - 2) & (first <= i0 - 1)).sum()))
        per_block = [sum(changed[lo : lo + 4]) for lo in range(0, 15, 4)]
        # four blocks in the Boehm identity and none after: the norms on J_n
        # come from the tail audit's pieces
        assert fresh == [c for c in per_block for _ in range(2)]


class TestCensusAndDecay:
    def test_census_runs(self, tmp_path):
        out = tmp_path / "census.json"
        assert run("census", "--k", "2", "--n", "24", "--seed", "5", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        betas = [c["beta"] for c in payload["census"]]
        assert betas == [0.0, 0.25]
        assert all(c["max_count"] >= 0 for c in payload["census"])

    def test_census_builds_no_gram_system(self, monkeypatch):
        # J_n comes from the knots alone: no Gram assembly, no factorization
        calls = []
        for name in ("gram_matrix", "refinement_columns", "refine_gram"):
            monkeypatch.setattr(ortho, name, counted_calls(getattr(ortho, name), calls))
        assert run("census", "--k", "3", "--n", "200", "--seed", "1") == 0
        assert calls == []
        # the same counters see every step of build's walk: the level-1 Gram
        # system, one column assembly per block of levels, one refinement per level
        assert run("build", "--k", "3", "--n", "200", "--seed", "1") == 0
        assert len(calls) == 1 + -(-199 // ortho.LEVEL_BLOCK) + 199

    def test_census_runs_where_the_build_fails(self, tmp_path, capsys):
        # knots 2^-1022 and 2^-1021 make the level-5 function of k = 3 not
        # finite; the census reads no function
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 3, "points": FAILS_AT_LEVEL_5}))
        out = tmp_path / "census.json"
        assert run("census", "--points", str(seq_file), "--n", "6", "--out", str(out)) == 0
        assert [c["max_count"] for c in json.loads(out.read_text())["census"]] == [2, 2]
        assert run("build", "--points", str(seq_file), "--n", "6") == 2
        assert "error: level 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "decay"])
    def test_full_multiplicity_fits_its_two_offsets(self, tmp_path, command):
        # b_{2i+1,2i} = -b_ii / 2 on every block: the fit is exact at gamma = 1/2
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 2, "points": FULL_MULTIPLICITY_K2}))
        out = tmp_path / "report.json"
        assert run(command, "--points", str(seq_file), "--n", "15", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        if command == "verify":
            assert all(r["passed"] for r in payload["suites"])
            [gamma] = [r["measured"]["gamma"] for r in payload["suites"] if r["name"] == "tail-decay"]
            fits = [{"gamma": gamma}]
        else:
            fits = payload["profiles"]
            assert [prof["C"] for prof in fits] == pytest.approx([4.0, 4.0], rel=1e-12)
        assert [fit["gamma"] for fit in fits] == pytest.approx([0.5] * len(fits), rel=1e-12)

    def test_decay_reports_two_levels(self, tmp_path):
        out = tmp_path / "decay.json"
        assert run("decay", "--k", "2", "--n", "40", "--seed", "6", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload["profiles"]) == 2
        for prof in payload["profiles"]:
            assert 0.0 <= prof["gamma"] < 1.0


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_bad_points_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"order\": 2}")
        assert run("build", "--points", str(bad)) == 2

    def test_bad_exponent_exits_before_the_build(self, monkeypatch, capsys):
        builds = []
        build_system = ortho.build_system

        def counted(seq, N):
            builds.append(N)
            return build_system(seq, N)

        monkeypatch.setattr(ortho, "build_system", counted)
        assert run("experiment", "--k", "3", "--n", "64", "--seed", "1", "--p", "0.5") == 2
        assert "error: p=0.5 outside (1, inf)" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize(
        "document",
        [
            {"k": 3, "points": [0, 1, None]},
            {"k": 3, "points": 5},
            {"k": 3, "points": [0, 1, [0.5]]},
            [1, 2],
            {"k": True, "points": [0, 1, 0.5]},
        ],
    )
    def test_malformed_points_file(self, tmp_path, capsys, document):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps(document))
        assert run("build", "--points", str(seq_file), "--n", "2") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_points_file(self, tmp_path):
        assert run("build", "--points", str(tmp_path / "absent.json")) == 2

    @pytest.mark.parametrize("command", ["gen", "build", "verify"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_order_below_one_fails_at_once(self, deadline, capsys, command, k):
        assert run(command, "--k", k, "--n", "8", "--seed", "1") == 2
        assert "error: order must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "build", "verify", "census", "experiment"])
    def test_level_one_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "r.json"
        assert run(command, "--k", "2", "--n", "1", "--seed", "1", "--out", str(out)) == 2
        assert "error: N must be at least 2, got 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "verify", "census", "experiment", "decay"])
    def test_level_one_from_points_is_a_usage_error(self, tmp_path, capsys, command):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 2, "points": [0.0, 1.0, 0.5, 0.25, 0.75]}))
        out = tmp_path / "r.json"
        assert run(command, "--points", str(seq_file), "--n", "1", "--out", str(out)) == 2
        assert "error: N must be at least 2, got 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.json"]

    def test_gen_without_order_names_the_flag(self, tmp_path, monkeypatch, capsys):
        # Without --out, gen would write to a default name in the working directory.
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--n", "8") == 2
        assert "error: --k is required without --points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build", "verify", "census", "experiment"])
    def test_level_beyond_the_points_exits_before_the_walk(
        self, tmp_path, monkeypatch, capsys, command
    ):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"k": 2, "points": [0.0, 1.0, 0.5, 0.25, 0.75]}))
        # The walk starts with the level-1 Gram system and refines it once per level.
        built = []
        for name in ("gram_matrix", "refine_gram"):
            monkeypatch.setattr(ortho, name, counted_calls(getattr(ortho, name), built))
        out = tmp_path / "r.json"
        assert run(command, "--points", str(seq_file), "--n", "5", "--out", str(out)) == 2
        assert "error: level 5 needs 6 points, sequence has 5" in capsys.readouterr().err
        assert built == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.json"]


def counted_calls(fn, calls):
    """fn, recording each call's arguments in calls."""

    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


class AsIterator(list):
    """A list the writer receives as a one-pass iterator; the oracle reads it as a list."""


def as_streamed(obj):
    """obj with every AsIterator turned into an iterator, recursively."""
    if isinstance(obj, AsIterator):
        return iter([as_streamed(x) for x in obj])
    if isinstance(obj, (list, tuple)):
        return type(obj)(as_streamed(x) for x in obj)
    if isinstance(obj, dict):
        return {key: as_streamed(value) for key, value in obj.items()}
    return obj


# The writer renders 1e-9 <= |x| < 1e-4 and |x| >= 1e16 apart from the rest;
# these sit on both sides of each edge.
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225e-308, 1e308, 0.1,
    1e-4, math.nextafter(1e-4, 0.0), 1e-5, 1e-9, math.nextafter(1e-9, 0.0),
    1e-10, math.nextafter(1e-10, 0.0), math.nextafter(1e-10, 1.0),
    1e16, math.nextafter(1e16, 0.0), 1.2345678901234568e17, 1e22,
    -1e-07, sys.float_info.max,
]
FINITE_EDGE_FLOATS = [x for x in EDGE_FLOATS if math.isfinite(x)]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
leaves = (
    floats
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.text()
    | st.lists(floats, max_size=8)
)
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(inner, max_size=5).map(AsIterator)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25,
)


class TestCanonicalWriter:
    @seed(8)
    @settings(max_examples=400, deadline=None)
    @given(payload=payloads)
    def test_matches_the_standard_encoder(self, payload):
        assert "".join(cli._canonical(as_streamed(payload))) == canonical_json(payload)

    def test_edge_cases(self):
        payload = {
            "empty": [[], {}, (), AsIterator()],
            "floats": EDGE_FLOATS,
            "finite": FINITE_EDGE_FLOATS,
            "negated": [-x for x in FINITE_EDGE_FLOATS],
            "mixed": [1.5, 2, True, None, "\u00e9\u2603"],
            "nested": {"b": [[0.5, -0.0]], "a": AsIterator([{"z": 1, "y": [1e-300]}])},
        }
        assert "".join(cli._canonical(as_streamed(payload))) == canonical_json(payload)

    def test_atomic_write_takes_chunks(self, tmp_path):
        path = tmp_path / "r.json"
        cli._atomic_write(str(path), cli._canonical({"records": iter([{"a": [0.25, 0.5]}])}))
        assert path.read_text() == canonical_json({"records": [{"a": [0.25, 0.5]}]})

    def test_random_doubles_match_the_standard_encoder(self):
        # Random 64-bit patterns cover every binade and the subnormals.
        bits = np.random.default_rng(9).integers(0, 2**64, size=101_000, dtype=np.uint64)
        values = bits.view(np.float64)
        payload = {"values": values[np.isfinite(values)][:100_000].tolist()}
        assert len(payload["values"]) == 100_000
        assert "".join(cli._canonical(payload)) == canonical_json(payload)

    @pytest.mark.parametrize("values", [EDGE_FLOATS, FINITE_EDGE_FLOATS, [-x for x in FINITE_EDGE_FLOATS]])
    def test_arrays_are_written_as_their_lists(self, values):
        # NaN and the infinities are written item by item, as in a list.
        payload = {"values": np.array(values), "empty": np.array([]), "one": np.array([1e-5])}
        want = {"values": values, "empty": [], "one": [1e-5]}
        assert "".join(cli._canonical(payload)) == canonical_json(want)

    def test_random_double_arrays_match_the_standard_encoder(self):
        bits = np.random.default_rng(9).integers(0, 2**64, size=101_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:100_000]
        assert len(values) == 100_000
        # a strided view as well as a contiguous array
        payload = {"values": values, "every-other": values[::2]}
        want = {"values": values.tolist(), "every-other": values[::2].tolist()}
        assert "".join(cli._canonical(payload)) == canonical_json(want)

    def test_import_loads_neither_numpy_nor_orjson(self):
        # _cap_threads must run before numpy is imported; the writer imports
        # numpy and orjson only when it is called.
        code = "import sys, orthosplines.cli; print(sorted({'numpy', 'orjson'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"


def test_verify_and_experiment_do_not_import_numpy_ma():
    # np.quantile imports numpy.ma through np.unique (about 19 ms per process);
    # analysis.quantile takes the same order statistics with np.partition.
    argvs = [
        ["verify", "--k", "2", "--n", "16", "--seed", "1"],
        ["experiment", "--k", "2", "--n", "16", "--seed", "1", "--trials", "5"],
    ]
    code = (
        "import sys\n"
        "from orthosplines import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "[0, 0] []"


def test_no_subcommand_imports_scipy_linalg(tmp_path):
    # Only scipy's LAPACK extension is loaded, and it is the object
    # scipy.linalg.lapack re-exports once that package is imported.
    seq_file = tmp_path / "seq.json"
    argvs = [
        ["gen", "--k", "2", "--n", "16", "--seed", "1", "--out", str(seq_file)],
        ["build", "--points", str(seq_file), "--out", str(tmp_path / "build.json")],
        ["verify", "--k", "2", "--n", "16", "--seed", "1"],
        ["census", "--k", "2", "--n", "16", "--seed", "1"],
        ["experiment", "--k", "2", "--n", "16", "--seed", "1", "--trials", "5"],
        ["decay", "--k", "2", "--n", "16", "--seed", "1"],
    ]
    code = (
        "import sys\n"
        "from orthosplines import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "import scipy.linalg.lapack\n"
        "from orthosplines import bspline\n"
        "print(bspline.dpbtrf is scipy.linalg.lapack.dpbtrf, bspline.dpbtrs is scipy.linalg.lapack.dpbtrs)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    lines = done.stdout.strip().splitlines()
    assert lines[-2] == "[0, 0, 0, 0, 0, 0] ['scipy.linalg._flapack']"
    assert lines[-1] == "True True"
