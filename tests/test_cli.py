"""Command-line interface: exit codes, artifacts, determinism."""

import csv

import pytest

from dqbsde.cli import main

from conftest import (planted_h2_config, pure_quadratic_config, remark22_config,
                      structured_config, triangular_demo_config, write_config)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def remark_cfg(tmp_path):
    return str(write_config(tmp_path / "remark.cfg", remark22_config(N=20)))


@pytest.fixture
def pq_cfg(tmp_path):
    return str(write_config(tmp_path / "pq.cfg", pure_quadratic_config(N=20)))


class TestExitCodes:
    def test_table(self, tmp_path, remark_cfg):
        out = str(tmp_path / "o")
        bad_cfg = str(write_config(tmp_path / "bad.cfg",
                                   structured_config(**{"generator.1.h": "log("})))
        slow_cfg = str(write_config(tmp_path / "slow.cfg", remark22_config(N=20)))
        cases = [
            (["certify", "--config", remark_cfg, "--out", out], 0),
            (["nope"], 1),                                        # unknown subcommand
            (["solve", "--config", remark_cfg, "--bogus"], 1),    # unknown flag
            (["certify", "--config", str(tmp_path / "missing.cfg"), "--out", out], 2),
            (["certify", "--config", bad_cfg, "--out", out], 2),
            (["solve", "--config", slow_cfg, "--mode", "picard", "--max-iter", "1",
              "--out", out], 3),
            (["check", "--inequality", "log", "--xrange", "9:1:4", "--out", out], 2),
        ]
        for argv, expected in cases:
            assert run(*argv) == expected, argv

    def test_strict_budget_failure(self, tmp_path):
        cfg = remark22_config(N=10)
        cfg["params.C0"] = 2.5  # budget 2.943 exceeds it
        path = str(write_config(tmp_path / "tight.cfg", cfg))
        out = str(tmp_path / "o")
        assert run("certify", "--config", path, "--out", out) == 0
        assert run("certify", "--config", path, "--out", out, "--strict") == 4
        report = (tmp_path / "o" / "certificate.txt").read_text()
        assert "h3Satisfied = false" in report

    def test_nonconvergence_still_writes_trace(self, tmp_path, remark_cfg):
        out = tmp_path / "o"
        assert run("solve", "--config", remark_cfg, "--mode", "picard",
                   "--max-iter", "2", "--out", str(out)) == 3
        report = (out / "report.txt").read_text()
        assert "converged = false" in report
        assert "trace.1 = " in report


class TestCertify:
    def test_report_keys(self, tmp_path, remark_cfg):
        out = tmp_path / "o"
        assert run("certify", "--config", remark_cfg, "--out", str(out)) == 0
        lines = (out / "certificate.txt").read_text().splitlines()
        keys = [ln.split(" = ")[0] for ln in lines]
        assert keys == ["c1", "lambda", "lambdaLog", "ksIntegral", "h3Budget",
                        "h3Satisfied", "bmoBoundLog", "contractionHorizon"]

    def test_falsifier_lines(self, tmp_path, remark_cfg):
        out = tmp_path / "o"
        assert run("certify", "--config", remark_cfg, "--out", str(out),
                   "--falsify", "200") == 0
        report = (out / "certificate.txt").read_text()
        assert "falsifierClean = true" in report

    def test_strict_falsifier_failure(self, tmp_path):
        path = str(write_config(tmp_path / "bad.cfg", planted_h2_config()))
        out = str(tmp_path / "o")
        assert run("certify", "--config", path, "--out", out, "--strict",
                   "--falsify", "500") == 4

    def test_negative_falsify_is_usage_error(self, tmp_path, remark_cfg, capsys):
        out = str(tmp_path / "o")
        assert run("certify", "--config", remark_cfg, "--out", out, "--falsify", "-5") == 1
        assert "--falsify" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path, remark_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("certify", "--config", remark_cfg, "--out", str(out1), "--falsify", "100")
        run("certify", "--config", remark_cfg, "--out", str(out2), "--falsify", "100")
        assert (out1 / "certificate.txt").read_bytes() \
            == (out2 / "certificate.txt").read_bytes()


class TestCheck:
    def test_single_point_matches_direct_value(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("check", "--xrange", "1:1:1", "--yrange", "1:1:1",
                   "--crange", "1:1:1", "--out", str(out)) == 0
        rows = list(csv.DictReader(open(out / "check.csv")))
        assert len(rows) == 1
        assert float(rows[0]["residual"]) == pytest.approx(0.9867597430533607,
                                                           rel=1e-12)
        assert "minResidual" in capsys.readouterr().out

    def test_csv_schema_and_field_count(self, tmp_path):
        out = tmp_path / "o"
        run("check", "--xrange", "1e-2:1e2:5", "--yrange", "1e-2:1e2:5",
            "--crange", "1e-2:1e2:5", "--out", str(out))
        with open(out / "check.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["x", "y", "C", "residual"]
            counts = {len(row) for row in reader}
        assert counts == {4}

    def test_young_variant(self, tmp_path):
        out = tmp_path / "o"
        assert run("check", "--inequality", "young", "--lrange", "1e-1:1e1:5",
                   "--erange", "1e-1:1e1:5", "--zrange", "1e-1:1e1:5",
                   "--out", str(out)) == 0
        with open(out / "check.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["L", "alpha", "eps", "z", "residual"]


class TestSolve:
    def test_solution_csv_schema(self, tmp_path, remark_cfg):
        out = tmp_path / "o"
        assert run("solve", "--config", remark_cfg, "--mode", "stitched",
                   "--horizon", "0.5", "--out", str(out)) == 0
        with open(out / "solution.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["layer", "nodeIndex", "t", "W_1",
                              "Y_1", "Y_2", "Z_11", "Z_21"]
            rows = list(reader)
        assert {len(row) for row in rows} == {8}
        # 21 layers of k+1 nodes each
        assert len(rows) == sum(k + 1 for k in range(21))
        report = (out / "report.txt").read_text()
        assert "supYWithinLambda = true" in report
        assert "chunk.0.startLayer = 20" in report

    def test_zero_generator_report(self, tmp_path):
        cfg = structured_config()  # N=1, T=1, terminal w1
        path = str(write_config(tmp_path / "z.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, "--out", str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "supY = 1.0" in report

    def test_triangular_mode(self, tmp_path):
        path = str(write_config(tmp_path / "t.cfg", triangular_demo_config(N=20)))
        out = tmp_path / "o"
        assert run("solve", "--config", path, "--mode", "triangular",
                   "--out", str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "component.2.outerIterations" in report

    def test_deterministic_bytes(self, tmp_path, remark_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("solve", "--config", remark_cfg, "--mode", "picard", "--out", str(out))
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()


class TestCompare:
    def test_pure_quadratic_oracle(self, tmp_path, pq_cfg):
        out = tmp_path / "o"
        assert run("compare", "--config", pq_cfg, "--oracle", "pure_quadratic",
                   "--tolerance", "0.01", "--out", str(out)) == 0
        report = (out / "compare.txt").read_text()
        assert "withinTolerance = true" in report

    def test_joint_oracle_on_triangular(self, tmp_path):
        path = str(write_config(tmp_path / "t.cfg", triangular_demo_config(N=20)))
        out = tmp_path / "o"
        assert run("compare", "--config", path, "--oracle", "joint",
                   "--mode", "triangular", "--tolerance", "1e-8",
                   "--out", str(out)) == 0

    def test_inapplicable_oracle(self, tmp_path, pq_cfg):
        out = str(tmp_path / "o")
        assert run("compare", "--config", pq_cfg, "--oracle", "linear",
                   "--out", out) == 2


class TestConverge:
    def test_short_n_list_rejected(self, tmp_path, pq_cfg):
        assert run("converge", "--config", pq_cfg, "--n-list", "25,50",
                   "--out", str(tmp_path / "o")) == 2
        assert run("converge", "--config", pq_cfg, "--n-list", "50,25,100",
                   "--out", str(tmp_path / "o")) == 2

    def test_zero_generator_exact(self, tmp_path, capsys):
        cfg = structured_config(**{"terminal.bound": 16.0})
        path = str(write_config(tmp_path / "z.cfg", cfg))
        out = tmp_path / "o"
        assert run("converge", "--config", path, "--n-list", "4,8,16",
                   "--out", str(out)) == 0
        assert "slope = exact" in capsys.readouterr().out
        rows = list(csv.DictReader(open(out / "converge.csv")))
        assert [r["N"] for r in rows] == ["4", "8", "16"]
        assert all(float(r["error"]) == 0.0 for r in rows)

    def test_quadratic_slope(self, tmp_path, pq_cfg, capsys):
        out = tmp_path / "o"
        assert run("converge", "--config", pq_cfg, "--n-list", "25,50,100,200",
                   "--out", str(out)) == 0
        assert "slope = " in capsys.readouterr().out
