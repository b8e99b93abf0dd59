"""Command-line interface: exit codes, artifacts, determinism."""

import csv
import hashlib
import math
import warnings

import numpy as np
import pytest

import dqbsde as q
from dqbsde import certs, cli, csvrows, engine
from dqbsde.cli import main
from dqbsde.model import _KEYS, TimeGrid

from conftest import (contraction_config, make, planted_h2_config, pure_quadratic_config,
                      remark22_config, structured_config, triangular_demo_config, write_config)


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

    @pytest.mark.parametrize("cfg, argv, digest", [
        (planted_h2_config(), ("500", "--seed", "7"),
         "57e1cc11fdaf9befec240de8b8b105dce159bfab58e6343916d28e4020b0f26c"),
        (structured_config(**{"generator.1.h": "log(y1)"}), ("300", "--seed", "2"),
         "87488ffbca6666d37b5cd3fe93bd60d0c6076cfcd9354437499a271f4e445848"),
    ], ids=["planted-h2", "log-y1"])
    def test_falsifier_digest_across_blocks(self, tmp_path, monkeypatch, cfg, argv, digest):
        # Digests recorded with the falsifier that tested every sample at once;
        # blocks of 64 split the run into 8 and 5 blocks.
        monkeypatch.setattr(certs, "_SAMPLE_BLOCK", 64)
        path = str(write_config(tmp_path / "f.cfg", cfg))
        out = tmp_path / "o"
        assert run("certify", "--config", path, "--out", str(out), "--falsify", *argv) == 0
        assert hashlib.sha256((out / "certificate.txt").read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("argv, axis", [
        (("--xrange", "nan:1:5"), "x"), (("--xrange", "1:inf:5"), "x"),
        (("--inequality", "young", "--lrange", "1:nan:3"), "L"),
    ], ids=lambda a: ":".join(a) if isinstance(a, tuple) else a)
    def test_nonfinite_bound_is_config_error(self, tmp_path, capsys, argv, axis):
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("check", *argv, "--out", str(out)) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == f"config error: {axis}: bounds must be finite\n"
        assert not (out / "check.csv").exists()


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

    @pytest.mark.parametrize("mode", ["direct", "picard", "stitched", "triangular"])
    def test_z_truncation_needs_direct_mode(self, tmp_path, capsys, remark_cfg, mode):
        out = tmp_path / "o"
        code = run("solve", "--config", remark_cfg, "--mode", mode, "--z-truncation", "1e-3",
                   "--out", str(out))
        if mode == "direct":
            assert code == 0 and "zClips = 302\n" in (out / "report.txt").read_text()
        else:
            assert code == 1 and not out.exists()
            assert capsys.readouterr().err == "usage error: --z-truncation needs --mode direct\n"

    @pytest.mark.parametrize("mode", ["direct", "picard", "triangular"])
    def test_horizon_needs_stitched_mode(self, tmp_path, capsys, remark_cfg, mode):
        out = tmp_path / "o"
        assert run("solve", "--config", remark_cfg, "--mode", mode, "--horizon", "0.5",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "usage error: --horizon needs --mode stitched\n"
        assert not out.exists()

    def test_triangular_mode(self, tmp_path):
        path = str(write_config(tmp_path / "t.cfg", triangular_demo_config(N=20)))
        out = tmp_path / "o"
        assert run("solve", "--config", path, "--mode", "triangular",
                   "--out", str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "component.2.outerIterations" in report

    @pytest.mark.parametrize("cfg, argv, digest", [
        (remark22_config(N=20), ("--mode", "picard"),
         "94a1115207c2df53940c45b66ff9a67753e49d1b5b4ceba862f7b2e90cefc035"),
        (remark22_config(N=20), ("--mode", "stitched", "--horizon", "0.25"),
         "2228f8f6760f0dc5f12c85a54977f2b966a3f63783a33cbf12125584b9afdb12"),
        (triangular_demo_config(N=12) | {"problem.d": 2, "triangular.lipBeta": 2.0},
         ("--mode", "triangular"),
         "47f6d5a091f507b8168006471c16006612df68e309c64016ef1bf648f6090d40"),
    ], ids=["picard", "stitched", "triangular"])
    def test_solution_digest(self, tmp_path, cfg, argv, digest):
        # Digests recorded with the two-list Picard driver, which held the
        # previous pass whole beside the one it built.
        path = str(write_config(tmp_path / "s.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, *argv, "--out", str(out)) == 0
        assert hashlib.sha256((out / "solution.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("cfg, argv, digest", [
        (remark22_config(N=20), ("--mode", "picard"),
         "5593690d91ef3ff6173b1a40b24124f48633bf8dd2460d5da01c08126ab2b367"),
        # Neither component reads its own y, so each takes one frozen-y
        # iteration on each of its four sub-intervals: iterations = 8.
        (triangular_demo_config(N=12) | {"problem.d": 2, "triangular.lipBeta": 2.0},
         ("--mode", "triangular"),
         "647fbf6ae77abf7ddebf733e0140ff5b3648356562c26448d1707f6a50dc58b0"),
        # Two chunks after halving.0 = 1.0 -> 0.5.
        (pure_quadratic_config(gamma=6.0, N=50),
         ("--mode", "stitched", "--horizon", "adaptive", "--max-iter", "100"),
         "694299fb71abbd3c61e54bb26116d451ce5233d1d8c294e465dc5da4787decfd"),
        (remark22_config(N=20), ("--mode", "direct", "--z-truncation", "1e-3"),
         "9ced32b86efbcfb35db2fab748ee01fa1f088e62477be6fd4eb072632ad30a85"),
    ], ids=["picard", "triangular", "stitched-adaptive", "direct-z-truncation"])
    def test_report_digest(self, tmp_path, cfg, argv, digest):
        # Digests recorded before the solvers wrote their facts into one RunTrace.
        path = str(write_config(tmp_path / "s.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, *argv, "--out", str(out)) == 0
        assert hashlib.sha256((out / "report.txt").read_bytes()).hexdigest() == digest

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


class TestCompareTieRule:
    def test_last_layer_then_first_node(self, tmp_path, remark_cfg, monkeypatch):
        """atLayer is the last layer that reaches the largest difference and
        atNode the first node of that layer that reaches it."""
        _, lat = make(remark22_config(N=20))
        oracle, solved = q.zero_field(lat, 2), q.zero_field(lat, 2)
        for k, node, col, value in [(5, 0, 1, 0.5), (5, 3, 0, -0.5), (8, 2, 0, 0.25),
                                    (12, 7, 1, -0.5), (12, 9, 0, 0.5), (15, 1, 1, 0.125)]:
            solved.y[lat.rows(k).start + node, col] = value
        monkeypatch.setattr(cli.drivers, "oracle_joint_picard", lambda *a, **kw: oracle)
        monkeypatch.setattr(cli.engine, "backward_solve", lambda *a, **kw: solved)
        out = tmp_path / "o"
        assert run("compare", "--config", remark_cfg, "--oracle", "joint", "--mode", "direct",
                   "--tolerance", "1", "--out", str(out)) == 0
        lines = (out / "compare.txt").read_text().splitlines()
        assert {"maxAbsDiff = 0.5", "atLayer = 12", "atNode = 7"} <= set(lines)


class TestConverge:
    def test_short_n_list_rejected(self, tmp_path, pq_cfg):
        assert run("converge", "--config", pq_cfg, "--n-list", "25,50",
                   "--out", str(tmp_path / "o")) == 2
        assert run("converge", "--config", pq_cfg, "--n-list", "50,25,100",
                   "--out", str(tmp_path / "o")) == 2

    def test_entry_below_one_names_the_option(self, tmp_path, capsys, pq_cfg):
        assert run("converge", "--config", pq_cfg, "--n-list", "0,2,4",
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("config error: --n-list must be")

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


# ---------------------------------------------------------------------------
# CSV writers against the cell-by-cell writers they replaced
# ---------------------------------------------------------------------------

def reference_solution_csv(path, field):
    """The cell-by-cell solution.csv writer the block writer must match."""
    n, lattice = field.n, field.lattice
    d = lattice.d
    header = (["layer", "nodeIndex", "t"]
              + [f"W_{j}" for j in range(1, d + 1)]
              + [f"Y_{i}" for i in range(1, n + 1)]
              + [f"Z_{i}{j}" for i in range(1, n + 1) for j in range(1, d + 1)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(lattice.grid.steps + 1):
            W = lattice.brownian(k)
            t_k = lattice.grid.time(k)
            z = field.z[k] if k < lattice.grid.steps else None
            for idx in range(lattice.layer_size(k)):
                row = [str(k), str(idx), repr(float(t_k))]
                row += [repr(float(w)) for w in W[idx]]
                row += [repr(float(v)) for v in field.y[lattice.rows(k)][idx]]
                if z is not None:
                    row += [repr(float(v)) for v in z[idx].reshape(-1)]
                else:
                    row += [""] * (n * d)
                fh.write(",".join(row) + "\n")


def reference_check_rows(scan):
    """The per-element check.csv rows the block writer must match."""
    if isinstance(scan, certs.LogScanResult):
        return ((repr(float(x)), repr(float(y)), repr(float(c)),
                 repr(float(scan.residuals[i, j, l])))
                for i, x in enumerate(scan.xs)
                for j, y in enumerate(scan.ys)
                for l, c in enumerate(scan.cs))
    return ((repr(float(L)), repr(float(a)), repr(float(e)), repr(float(z)),
             repr(float(scan.residuals[ia, il, ie, iz])))
            for ia, a in enumerate(scan.alphas)
            for il, L in enumerate(scan.ls)
            for ie, e in enumerate(scan.es)
            for iz, z in enumerate(scan.zs))


def assert_same_solution_csv(tmp_path, field):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    cli._solution_csv(new, field)
    reference_solution_csv(ref, field)
    assert new.read_bytes() == ref.read_bytes()


SPECIAL_VALUES = (-0.0, 5e-324, 1e300, 1 / 3, 2.0, -1e-300, 0.1, -7.25)


def synthetic_field(lattice, n, offset=0):
    """A field whose Y cells cycle through SPECIAL_VALUES from the offset-th;
    its Z cells are their projections."""
    count = lattice.total_nodes * n
    picks = [SPECIAL_VALUES[(offset + i) % len(SPECIAL_VALUES)] for i in range(count)]
    return engine.SolutionField(np.array(picks, dtype=float).reshape(-1, n), lattice)


class TestSolutionWriter:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_real_field_matches_reference(self, tmp_path, d, n):
        base = pure_quadratic_config(N=6) if n == 1 else remark22_config(N=6)
        cfg = dict(base, **{"problem.d": d, "terminal.1": f"0.25*clamp(w{d},-1,1)"})
        instance, lattice = make(cfg)
        field = q.backward_solve(instance, lattice)
        assert field.n == n and lattice.d == d
        assert_same_solution_csv(tmp_path, field)

    def test_zero_dt_grid(self, tmp_path):
        # T = 0 gives dt = 0: W cells of negative 2u - k are -0.0.
        instance, lattice = make(dict(remark22_config(N=4), **{"problem.T": 0.0}))
        assert lattice.grid.dt == 0.0
        field = q.backward_solve(instance, lattice)
        assert_same_solution_csv(tmp_path, field)
        assert "-0.0" in (tmp_path / "new.csv").read_text()

    @pytest.mark.parametrize("d", [1, 2])
    def test_special_values(self, tmp_path, d):
        lattice = engine.build_lattice(TimeGrid(1.0, 5), d)
        field = synthetic_field(lattice, n=2)
        assert_same_solution_csv(tmp_path, field)
        text = (tmp_path / "new.csv").read_text()
        for token in ("-0.0", "5e-324", "1e+300", "0.3333333333333333", "2.0"):
            assert token in text

    @pytest.mark.parametrize("d", [1, 2])
    def test_layers_around_the_block_size(self, tmp_path, monkeypatch, d):
        # Layer sizes 1, 2 | 3 | 4, 5, 6 (d = 1) and 1, 4, 9, ... (d = 2)
        # fall below, on and above a pass of 3 rows.
        monkeypatch.setattr(csvrows, "PASS", 3 * (1 + d))
        lattice = engine.build_lattice(TimeGrid(0.7, 5), d)
        assert_same_solution_csv(tmp_path, synthetic_field(lattice, n=1, offset=3))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", [2, 4])
    def test_blocks_across_layers(self, tmp_path, monkeypatch, d, n, block):
        # Layer sizes (k+1)**d fall below, on and above a pass of `block`
        # rows, so passes start and end mid-layer, span several layers, run
        # from layer N-1 into the terminal layer and start inside it (empty
        # Z cells).
        monkeypatch.setattr(csvrows, "PASS", block * (n + n * d) + 1)
        lattice = engine.build_lattice(TimeGrid(0.7, 5), d)
        terminal, total = lattice.rows(5).start, lattice.total_nodes
        starts = range(0, total, block)
        assert any(terminal < lo for lo in starts)
        assert any(lo < terminal < lo + block for lo in starts)
        assert_same_solution_csv(tmp_path, synthetic_field(lattice, n=n, offset=block))
        field = q.backward_solve(*make(dict(
            remark22_config(N=5) if n == 2 else pure_quadratic_config(N=5),
            **{"problem.d": d, "problem.T": 0.7, "terminal.1": f"0.25*clamp(w{d},-1,1)"})))
        assert_same_solution_csv(tmp_path, field)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_passes_and_chunks(self, tmp_path, monkeypatch, d, n, rows):
        # PASS one value over `rows` rows of n + n*d cells: each pass holds
        # whole rows and goes out in chunks of a smaller rows matrix, so the
        # chunks' ends fall inside passes and the passes' ends mid-layer and
        # inside the terminal layer.
        cols = n + n * d
        monkeypatch.setattr(csvrows, "PASS", rows * cols + 1)
        chunks = chunk_rows(monkeypatch)
        lattice = engine.build_lattice(TimeGrid(0.7, 5), d)
        assert_same_solution_csv(tmp_path, synthetic_field(lattice, n=n, offset=rows))
        total, terminal = lattice.total_nodes, lattice.rows(5).start
        layer_starts = {lattice.rows(k).start for k in range(6)}
        pass_ends = set(range(rows, total, rows))
        chunk_ends = set(np.cumsum(chunks)[:-1].tolist())
        assert sum(chunks) == total and pass_ends <= chunk_ends
        assert chunk_ends - pass_ends
        assert pass_ends - layer_starts and chunk_ends - pass_ends - layer_starts
        assert any(terminal < end for end in pass_ends)

    def test_production_passes_and_files_back_to_back(self, tmp_path):
        # The remark22 N=200 direct field at the production sizes spans many
        # passes and chunks; a file of nan, inf and -inf cells written just
        # before it leaves no state in the next file's scratch.
        instance, lattice = make(remark22_config(N=200))
        field = q.backward_solve(instance, lattice)
        assert lattice.total_nodes == 20_301 >= 3 * (csvrows.PASS // 4)  # 3 passes at least
        small = engine.build_lattice(TimeGrid(1.0, 3), 1)
        odd = synthetic_field(small, n=2)
        odd.y[::3] = np.nan
        odd.y[1::5] = -np.inf  # Z cells of inf and nan too
        for f, name in ((odd, "odd"), (field, "r22"), (odd, "odd2")):
            (tmp_path / name).mkdir()
            assert_same_solution_csv(tmp_path / name, f)
        assert b",nan," in (tmp_path / "odd" / "new.csv").read_bytes()
        assert (tmp_path / "odd" / "new.csv").read_bytes() == (tmp_path / "odd2" / "new.csv").read_bytes()


def chunk_rows(monkeypatch):
    """Rows of each chunk of text the CSV writers go on to yield."""
    rows = []
    write = cli._write_csv

    def counted(path, header, chunks):
        write(path, header, (rows.append(chunk.count(b"\n")) or chunk for chunk in chunks))

    monkeypatch.setattr(cli, "_write_csv", counted)
    return rows


CHECK_ARGVS = [
    ["--inequality", "log", "--xrange", "1e-6:1e6:13", "--yrange", "1e-3:1e3:7",
     "--crange", "1e-2:1e4:5"],
    ["--inequality", "young"],
    ["--inequality", "young", "--alphas=-0.5,0.3", "--lrange", "1:1:1",
     "--erange", "1e-1:1e1:3", "--zrange", "1e-1:1e1:70"],
]


class TestCheckWriter:
    @pytest.mark.parametrize("argv", CHECK_ARGVS)
    def test_matches_reference_rows(self, tmp_path, argv):
        out = tmp_path / "o"
        assert run("check", *argv, "--out", str(out)) == 0
        ns = cli._build_parser().parse_args(["check", *argv])
        if ns.inequality == "log":
            scan = certs.scan_log_inequality(cli._parse_range(ns.xrange, "x"),
                                             cli._parse_range(ns.yrange, "y"),
                                             cli._parse_range(ns.crange, "c"))
            header = "x,y,C,residual"
        else:
            scan = certs.scan_young_power([float(a) for a in ns.alphas.split(",")],
                                          cli._parse_range(ns.lrange, "l"),
                                          cli._parse_range(ns.erange, "e"),
                                          cli._parse_range(ns.zrange, "z"))
            header = "L,alpha,eps,z,residual"
        want = header + "\n" + "".join(",".join(row) + "\n" for row in reference_check_rows(scan))
        assert (out / "check.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("argv", CHECK_ARGVS)
    def test_blocks_of_seven_rows(self, tmp_path, monkeypatch, argv):
        # Passes of 7 rows that end mid-table, the last one short.
        monkeypatch.setattr(csvrows, "PASS", 7 * (4 if "log" in argv else 5) + 1)
        self.test_matches_reference_rows(tmp_path, argv)

    @pytest.mark.parametrize("argv", CHECK_ARGVS)
    @pytest.mark.parametrize("size", [1, 9, 13])
    def test_passes_of_any_size(self, tmp_path, monkeypatch, argv, size):
        # One row a pass (a pass of fewer values than a row has cells), and
        # passes of 2 or 3 rows whose rows matrix takes 1 or 2 of their rows.
        monkeypatch.setattr(csvrows, "PASS", size)
        chunks = chunk_rows(monkeypatch)
        self.test_matches_reference_rows(tmp_path, argv)
        assert max(chunks) <= max(1, size // (4 if "log" in argv else 5))


class TestMaxIterBelowOne:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ("solve", "--mode", "direct"), ("solve", "--mode", "picard"),
        ("solve", "--mode", "stitched"), ("solve", "--mode", "triangular"),
        ("compare", "--oracle", "joint"), ("compare", "--oracle", "joint", "--mode", "picard"),
        ("compare", "--oracle", "joint", "--mode", "triangular"),
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    def test_usage_error(self, tmp_path, capsys, remark_cfg, argv, value):
        out = tmp_path / "o"
        assert run(*argv, "--config", remark_cfg, "--max-iter", value, "--out", str(out)) == 1
        assert capsys.readouterr().err == "usage error: --max-iter must be >= 1\n"
        assert not out.exists()


class TestFloatOptions:
    BAD = [("--tol", "nan"), ("--tol", "-1"), ("--inner-tol", "nan"), ("--inner-tol", "-0.5")]

    @pytest.mark.parametrize("argv, option, value", [
        (("solve",), "--z-truncation", "-1"), (("solve",), "--z-truncation", "nan"),
        *((("solve",), option, value) for option, value in BAD),
        *((("compare", "--oracle", "joint"), option, value) for option, value in BAD),
        (("compare", "--oracle", "joint"), "--tolerance", "nan"),
        (("compare", "--oracle", "joint"), "--tolerance", "-1"),
    ], ids=lambda a: a[0] if isinstance(a, tuple) else a)
    def test_nan_or_negative_is_usage_error(self, tmp_path, capsys, remark_cfg, argv,
                                            option, value):
        out = tmp_path / "o"
        assert run(*argv, "--config", remark_cfg, option, value, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: {option} must be >= 0\n"
        assert not out.exists()

    def test_infinite_values_allowed(self, tmp_path, remark_cfg):
        plain, clipped = tmp_path / "plain", tmp_path / "clipped"
        assert run("solve", "--config", remark_cfg, "--out", str(plain)) == 0
        assert run("solve", "--config", remark_cfg, "--z-truncation", "inf",
                   "--out", str(clipped)) == 0
        for name in ("report.txt", "solution.csv"):
            assert (plain / name).read_bytes() == (clipped / name).read_bytes()
        assert run("solve", "--config", remark_cfg, "--mode", "picard", "--tol", "inf",
                   "--out", str(tmp_path / "picard")) == 0
        assert run("compare", "--config", remark_cfg, "--oracle", "joint", "--tolerance", "inf",
                   "--out", str(tmp_path / "compare")) == 0


class TestNonFiniteHorizon:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_config_error_without_traceback(self, tmp_path, capsys, remark_cfg, value):
        assert run("solve", "--config", remark_cfg, "--mode", "stitched", "--horizon", value,
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"config error: chunk horizon {value} is not finite\n"


class TestNonNumericFlagValues:
    """A flag value that is not a number is a usage error naming the flag,
    raised before any work."""

    def test_horizon(self, tmp_path, capsys, remark_cfg):
        out = tmp_path / "o"
        assert run("solve", "--config", remark_cfg, "--mode", "stitched", "--horizon", "foo",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "usage error: --horizon: bad number in 'foo'\n"
        assert not out.exists()

    def test_alphas(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("check", "--inequality", "young", "--alphas", "0,x", "--out", str(out)) == 1
        assert capsys.readouterr().err == "usage error: --alphas: bad numbers in '0,x'\n"
        assert not out.exists()


class TestNonFiniteConfig:
    """A NaN or infinite config number is a config error before any work:
    NaN passed the ``x < 0`` range checks, so the falsifier compared every
    sample with a NaN right-hand side and reported none."""

    def test_falsifier_with_nan_constant(self, tmp_path, capsys):
        small = write_config(tmp_path / "small.cfg", remark22_config(N=20) | {"params.K": 0.01})
        assert run("certify", "--config", str(small), "--falsify", "2000", "--strict",
                   "--out", str(tmp_path / "small")) == 4
        assert "violation" in capsys.readouterr().err
        nan = write_config(tmp_path / "nan.cfg", remark22_config(N=20) | {"params.K": "nan"})
        out = tmp_path / "nan"
        assert run("certify", "--config", str(nan), "--falsify", "2000", "--strict",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "config error: params.K must be finite, got nan\n"
        assert not (out / "certificate.txt").exists()

    def test_infinite_horizon(self, tmp_path, capsys):
        path = write_config(tmp_path / "t.cfg", remark22_config(N=20) | {"problem.T": "inf"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("solve", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == "config error: problem.T must be finite, got inf\n"
        assert not (tmp_path / "o").exists()


class TestLargeC0:
    def test_certify_and_solve_past_the_double_range(self, tmp_path, capsys):
        """C0 beyond ~709.09 overflowed 2 e^{C0} + 2: lambdaLog read inf, and
        past ~709.78 certify and solve died with an OverflowError."""
        logs = []
        for c0 in (709.0, 709.08, 709.09, 709.5, 710.0, 1e308):
            path = str(write_config(tmp_path / "c.cfg", remark22_config(N=4) | {"params.C0": c0}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run("certify", "--config", path, "--out", str(tmp_path / "c")) == 0
                assert run("solve", "--config", path, "--out", str(tmp_path / "s")) == 0
            assert capsys.readouterr().err == ""
            text = (tmp_path / "c" / "certificate.txt").read_text()
            cert = dict(line.split(" = ") for line in text.splitlines())
            assert cert["lambda"] == "inf"
            logs.append(float(cert["lambdaLog"]))
        assert all(math.isfinite(v) for v in logs[:-1]) and logs[:-1] == sorted(logs[:-1])
        assert logs[-1] == math.inf


class TestCheckBudget:
    """check counts its scan's cells from the parsed ranges and refuses more
    than --max-nodes before it allocates any of them.  The large grids
    here would need terabytes, so without the check numpy refuses them at
    once rather than filling memory."""

    @pytest.mark.parametrize("argv, cells, budget", [
        (("--xrange", "1:2:1000000000000"), 3_600_000_000_000_000, 2_000_000),
        (("--max-nodes", "215999"), 216_000, 215_999),
        (("--inequality", "young", "--max-nodes", "6911"), 6_912, 6_911),
        (("--inequality", "young", "--alphas", "0.5", "--zrange", "1:2:1000000000000"),
         144_000_000_000_000, 2_000_000),
    ], ids=["huge-x", "log-default", "young-default", "young-z"])
    def test_over_budget(self, tmp_path, capsys, argv, cells, budget):
        out = tmp_path / "o"
        assert run("check", *argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"config error: check scan needs {cells} cells, budget is {budget}\n")
        assert not (out / "check.csv").exists()

    @pytest.mark.parametrize("argv", [("--max-nodes", "216000"),
                                      ("--inequality", "young", "--max-nodes", "6912")],
                             ids=["log", "young"])
    def test_default_grid_at_its_budget(self, tmp_path, argv):
        assert run("check", *argv, "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "check.csv").exists()

    def test_empty_range_keeps_its_message(self, tmp_path, capsys):
        # Two negative counts multiply to a large product; an empty axis is
        # still reported as such.
        assert run("check", "--xrange", "1:2:-3000", "--yrange", "1:2:-3000",
                   "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "config error: x: empty range\n"


class TestMaxNodesBelowOne:
    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("argv", [("solve",), ("check",), ("certify",),
                                      ("compare", "--oracle", "joint"), ("converge",)],
                             ids=lambda argv: argv[0])
    def test_usage_error(self, tmp_path, capsys, remark_cfg, argv, value):
        out = tmp_path / "o"
        assert run(*argv, "--config", remark_cfg, "--max-nodes", value, "--out", str(out)) == 1
        assert capsys.readouterr().err == "usage error: --max-nodes must be >= 1\n"
        assert not out.exists()


class TestCompareMaxIter:
    def test_direct_mode_honours_max_iter(self, tmp_path, remark_cfg, capsys):
        # remark22 needs about five inner y-iterations per layer.
        out = str(tmp_path / "o")
        assert run("compare", "--config", remark_cfg, "--oracle", "joint",
                   "--mode", "direct", "--max-iter", "1", "--out", out) == 3
        assert "solver error" in capsys.readouterr().err
        assert run("compare", "--config", remark_cfg, "--oracle", "joint",
                   "--mode", "direct", "--tolerance", "1e-6", "--out", out) == 0


class TestSignedOptionValues:
    RANGES = ("--xrange", "--yrange", "--crange", "--lrange", "--erange", "--zrange")

    @pytest.mark.parametrize("option", ("--alphas",) + RANGES)
    @pytest.mark.parametrize("value", ["-1:1:5", "-.5,0.3", "-0.5,0.3"])
    def test_value_after_space_parses_like_equals_form(self, option, value):
        spaced = cli._build_parser().parse_args(["check", option, value])
        joined = cli._build_parser().parse_args(["check", f"{option}={value}"])
        assert vars(spaced) == vars(joined)
        assert getattr(spaced, option[2:]) == value

    def test_negative_alphas_both_spellings(self, tmp_path, capsys):
        tail = ["--lrange", "1:1:1", "--erange", "1e-1:1e1:3", "--zrange", "1e-1:1e1:4"]
        outputs = []
        for i, alphas in enumerate((["--alphas", "-0.5,0.3"], ["--alphas=-0.5,0.3"])):
            out = tmp_path / str(i)
            assert run("check", "--inequality", "young", *alphas, *tail, "--out", str(out)) == 0
            outputs.append(((out / "check.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert b"\n1.0,-0.5," in outputs[0][0]

    def test_negative_range_both_spellings(self, tmp_path, capsys):
        # x must be positive: the value now reaches the scan, which rejects it.
        for xrange in (["--xrange", "-1:1:5"], ["--xrange=-1:1:5"]):
            assert run("check", *xrange, "--out", str(tmp_path / "o")) == 2
            assert capsys.readouterr().err == "config error: x: bounds must be positive\n"

    def test_option_like_value_is_still_a_usage_error(self, tmp_path, capsys):
        assert run("check", "--xrange", "-x", "--out", str(tmp_path / "o")) == 1
        assert "expected one argument" in capsys.readouterr().err


class TestTerminalFailure:
    """A terminal formula that fails to evaluate on the lattice is a config
    error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("solve", "--mode", "direct"), ("compare", "--oracle", "pure_quadratic"),
        ("compare", "--oracle", "joint"),
    ], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    def test_config_error(self, tmp_path, capsys, argv):
        path = str(write_config(tmp_path / "t.cfg", pure_quadratic_config(N=4, terminal="log(w1)")))
        assert run(*argv, "--config", path, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "config error: terminal component 1: log of nonpositive value at position 0\n")


class TestSolverFailure:
    """A solver failure mid-solve exits 3 with a partial report.  The stderr
    lines of driver domain errors were recorded with the tree-walking
    evaluator alone, so they pin the message, layer and position through the
    compiled plan."""

    @pytest.mark.parametrize("h, mode, where", [
        ("normy + log(t - 0.3)", "direct", "layer 1: log of nonpositive value at position 8"),
        ("normy + log(t - 0.3)", "picard", "layer 1: log of nonpositive value at position 8"),
        ("normy + log(t - 0.3)", "stitched", "layer 1: log of nonpositive value at position 8"),
        ("2 + log(1.5 - normy)", "direct", "layer 2: log of nonpositive value at position 4"),
        ("2 + log(1.5 - normy)", "picard", "layer 3: log of nonpositive value at position 4"),
    ])
    def test_domain_error_mid_solve(self, tmp_path, capsys, h, mode, where):
        cfg = structured_config(**{"grid.N": 4, "terminal.1": "clamp(w1,-1,1)",
                                   "generator.1.g": "0.5*norm2(z1)", "generator.1.h": h})
        path = str(write_config(tmp_path / "fail.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, "--mode", mode, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"solver error: driver evaluation failed at {where}\n"
        assert (out / "report.txt").read_text() == (
            f"mode = {mode}\nthreads = 1\nconverged = false\n")

    @pytest.mark.parametrize("cfg, mode, argv, message", [
        (triangular_demo_config(N=4) | {"generator.2.k": "y1 + log(t - 0.3)"}, "triangular", (),
         "component 2: driver evaluation failed at layer 1: "
         "log of nonpositive value at position 5"),
        (remark22_config(N=20), "direct", ("--max-iter", "1"),
         "inner y-iteration did not converge at layer 19, node 8 (residual 3.812e-02)"),
    ], ids=["triangular-domain", "inner-nonconvergence"])
    def test_other_solver_errors(self, tmp_path, capsys, cfg, mode, argv, message):
        path = str(write_config(tmp_path / "fail.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, "--mode", mode, *argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"solver error: {message}\n"
        assert (out / "report.txt").read_text() == (
            f"mode = {mode}\nthreads = 1\nconverged = false\n")

    @pytest.mark.parametrize("cfg, argv, message, trace", [
        (pure_quadratic_config(gamma=12.0, N=50), ("--mode", "picard", "--max-iter", "100"),
         "Picard iteration diverging after 3 iterations (change 1.277e+01 vs initial 1.000e+00)",
         ("1.0", "3.086603212022368", "12.770834989807215")),
        (remark22_config(N=20), ("--mode", "picard", "--tol", "1e-12", "--max-iter", "3"),
         "Picard iteration did not converge in 3 iterations (last change 2.784e-01)",
         ("0.25", "0.4792391637058082", "0.2783833420852164")),
        (pure_quadratic_config(gamma=80.0, N=4),
         ("--mode", "stitched", "--horizon", "adaptive", "--max-iter", "50"),
         "chunk of one layer still fails to converge", ()),
        # A fixed-horizon chunk is not halved: its own failure ends the run.
        (remark22_config(N=20),
         ("--mode", "stitched", "--horizon", "0.5", "--tol", "1e-12", "--max-iter", "3"),
         "Picard iteration did not converge in 3 iterations (last change 8.579e-02)",
         ("0.25", "0.2751586650550648", "0.08579214739376068")),
        # The failing sub-interval's changes, carried through the component's error.
        (contraction_config(N=40), ("--mode", "triangular", "--max-iter", "3"),
         "component 1: Picard iteration did not converge in 3 iterations (last change 1.375e-01)",
         ("1.0", "0.5000000000000004", "0.13749999999999973")),
    ], ids=["picard-divergence", "picard-nonconvergence", "adaptive-floor",
            "stitched-fixed-horizon", "triangular-nonconvergence"])
    def test_picard_failures(self, tmp_path, capsys, cfg, argv, message, trace):
        path = str(write_config(tmp_path / "fail.cfg", cfg))
        out = tmp_path / "o"
        assert run("solve", "--config", path, *argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"solver error: {message}\n"
        assert (out / "report.txt").read_text() == (
            f"mode = {argv[1]}\nthreads = 1\nconverged = false\n"
            + "".join(f"trace.{i} = {v}\n" for i, v in enumerate(trace)))

    def test_non_finite_value(self, tmp_path, capsys):
        # 1e308 * dt overflows: the solver's error is the only stderr line.
        cfg = structured_config(**{"grid.N": 2, "problem.T": 4.0, "generator.1.h": "1e308",
                                   "terminal.1": "0", "terminal.bound": 0.0})
        path = str(write_config(tmp_path / "fail.cfg", cfg))
        for mode in ("direct", "picard", "stitched"):
            out = tmp_path / mode
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run("solve", "--config", path, "--mode", mode, "--out", str(out)) == 3
            assert capsys.readouterr().err == "solver error: non-finite value at layer 1, node 0\n"
            assert (out / "report.txt").read_text() == (
                f"mode = {mode}\nthreads = 1\nconverged = false\n")


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53,
             709.78, 710.0]
_EXTREME_KEYS = [(triangular_demo_config if key.startswith("triangular") else remark22_config, key)
                 for key, (form, *_) in _KEYS.items() if form == "number"]


class TestExtremeConfigNumbers:
    """Finite extremes of each numeric config key through ``certify --falsify``
    in process: no exception and no warning escapes ``main``, the exit code is
    0 or 2, and a config error is one stderr line that names its key."""

    @pytest.mark.parametrize("value", _EXTREMES, ids=repr)
    @pytest.mark.parametrize("config, key", _EXTREME_KEYS,
                             ids=lambda p: getattr(p, "__name__", p))
    def test_certify_keeps_its_contract(self, tmp_path, capsys, config, key, value):
        path = write_config(tmp_path / "x.cfg", config(N=4) | {key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("certify", "--config", str(path), "--falsify", "2000",
                       "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert key in err
        else:
            assert err == ""
