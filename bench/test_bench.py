"""Self-test of the benchmark: ``python3 -m pytest -q bench``."""

import importlib
import subprocess
import sys
from pathlib import Path

import child
import run

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests")]


def test_smoke_prints_every_metric_and_matches_goldens():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_check_spans_rejects_a_child_outside_its_parent():
    assert run.check_spans([("cli.main", -1, 0.0, 2.0), ("gendsl.eval_expr", 0, 0.5, 1.0)]) is None
    assert "not inside" in run.check_spans([("cli.main", -1, 0.0, 1.0),
                                            ("gendsl.eval_expr", 0, 0.5, 1.5)])
    assert "never closed" in run.check_spans([("cli.main", -1, 0.0, 1.0), None])


def test_self_time_subtracts_child_spans():
    trace = {"spans": [("engine.picard_range", -1, 0.0, 3.0),
                       ("engine.project", 0, 0.5, 1.5),
                       ("gendsl.eval_expr", 0, 2.0, 2.5)],
             "counters": {"gendsl.eval_calls": 1, "gendsl.eval_rows": 400}}
    metrics = run.layer_metrics(trace)
    assert metrics["engine.picard_range_s"] == 1.5
    assert metrics["engine.project_s"] == 1.0
    assert metrics["gendsl.eval_s"] == 0.5
    assert metrics["gendsl.rows_per_call"] == 400.0


def test_configs_are_what_the_test_builders_write(tmp_path):
    import conftest

    tri3d = conftest.triangular_demo_config(N=40)
    tri3d.update({"problem.d": 3, "triangular.lipBeta": 2.0})
    built = {
        "direct-r22": conftest.remark22_config(N=800),
        "stitched-r22": conftest.remark22_config(N=400),
        "falsify-r22": conftest.remark22_config(N=50),
        "joint-tri3d": tri3d,
    }
    assert sorted(built) == sorted(run.WORKLOADS)
    for name, cfg in built.items():
        written = conftest.write_config(tmp_path / f"{name}.cfg", cfg)
        assert written.read_bytes() == (BENCH / "configs" / f"{name}.cfg").read_bytes(), name


def test_traced_functions_exist():
    for short, names in child.TRACED.items():
        module = importlib.import_module(f"dqbsde.{short}")
        for attr in names:
            holder = module
            for part in attr.split("."):
                holder = getattr(holder, part)
            assert callable(holder), f"{short}.{attr}"
