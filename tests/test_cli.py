import json
import os
import stat

import pytest

from orthosplines import cli


def run(*argv):
    return cli.main(list(argv))


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
        names = {r["name"] for r in suites}
        assert {
            "orthonormality",
            "checkerboard",
            "diag-bound",
            "boehm-identity",
            "norm-equivalence",
            "tail-decay",
            "level-set-inclusion",
        } <= names
        assert all(r["passed"] for r in suites)


class TestExperiment:
    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "exp.json"
        argv = [
            "experiment",
            "--k", "2", "--n", "16", "--seed", "3",
            "--p", "1.5", "--p", "3.0",
            "--trials", "8",
            "--out", str(out),
        ]
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


class TestCensusAndDecay:
    def test_census_runs(self, tmp_path):
        out = tmp_path / "census.json"
        assert run("census", "--k", "2", "--n", "24", "--seed", "5", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        betas = [c["beta"] for c in payload["census"]]
        assert betas == [0.0, 0.25]
        assert all(c["max_count"] >= 0 for c in payload["census"])

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

    def test_missing_points_file(self, tmp_path):
        assert run("build", "--points", str(tmp_path / "absent.json")) == 2
