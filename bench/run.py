"""Benchmark of the dqbsde command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout.  Each repetition runs one subcommand in a
fresh ``python -m dqbsde.cli`` process (closed loop, one client) on a
committed config under ``bench/configs`` and checks every artifact against
its SHA-256 golden in ``bench/goldens.json``; a nonzero exit or a digest
mismatch is a failed run.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from runs under
``bench/child.py trace``.  The last line of stdout is one JSON object;
the lines before it give each metric's median, quartiles and run count
and the host-speed probe.  Raw results and the spans of the last traced
run are kept under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"

# A run must end within 180 s; no repetition starts that would end after this.
HARD_LIMIT_S = 150.0
MIN_SETUP_RUNS = 5
FALSIFY_SAMPLES = {"full": 200_000, "small": 2_000}


@dataclass(frozen=True)
class Workload:
    args: tuple
    builds_lattice: bool
    small_n: int
    seeded: bool = False


# Why each workload is here is recorded in README.md.  stitched-r22 is left
# out of BENCHMARK.json so that its runs fit the measuring time budget.
WORKLOADS = {
    "direct-r22": Workload(("solve", "--mode", "direct"), True, 20),
    "stitched-r22": Workload(("solve", "--mode", "stitched", "--horizon", "0.25"), True, 20),
    "falsify-r22": Workload(("certify", "--falsify"), False, 50, seeded=True),
    "joint-tri3d": Workload(("compare", "--oracle", "joint", "--mode", "triangular"), True, 8),
}

# Per-layer time metrics: self time summed over the spans of these functions.
SELF_TIME = {
    "model.assemble_s": ("model.read_config_file", "model.assemble_problem"),
    "gendsl.eval_s": ("gendsl.eval_expr",),
    "engine.project_s": ("engine.project",),
    "engine.picard_range_s": ("engine.picard_range",),
    "engine.backward_range_s": ("engine.backward_range",),
    "engine.cond_exp_s": ("engine.cond_exp", "engine.log_cond_exp", "engine.estimate_bmo",
                          "engine.sup_norm_y"),
    "engine.terminal_values_s": ("engine.terminal_values",),
    "engine.build_lattice_s": ("engine.build_lattice",),
    "drivers.stitched_s": ("drivers.solve_stitched",),
    "drivers.triangular_s": ("drivers.solve_triangular", "drivers.frozen_y_contraction"),
    "drivers.oracle_s": ("drivers.oracle_joint_picard", "drivers.oracle_pure_quadratic",
                         "drivers.oracle_linear"),
    "certs.sample_s": ("certs._sample_uniforms",),
    "certs.falsify_s": ("certs.falsify_assumptions", "certs._Recorder.eval"),
    "certs.build_certificate_s": ("certs.build_certificate",),
    "cli.solution_csv_s": ("cli._solution_csv",),
    "cli.report_s": ("cli._write_report",),
}

# Counters that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = ("gendsl.eval_calls", "gendsl.eval_rows", "engine.project_nodes",
                "engine.project_bytes", "engine.picard_passes", "engine.inner_iterations",
                "engine.field_bytes", "drivers.chunks", "drivers.halvings",
                "drivers.outer_iterations", "certs.samples", "cli.solution_csv_bytes")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _spawn(cmd, log_path, limit_s):
    """Run cmd to completion; returns (exit code, wall seconds, peak RSS MB).
    A child still running after limit_s is killed and reaped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Round:
    """One invocation of the benchmark: a workload, a seed and an input size."""

    def __init__(self, name, seed, seconds, size):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed % 2 ** 64
        self.seconds = seconds
        self.size = size
        self.start = time.perf_counter()
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.goldens = json.loads((BENCH / "goldens.json").read_text())[size][name]
        self.config = self._config()
        self.reps = []
        self.errors = []

    def _config(self):
        config = BENCH / "configs" / f"{self.name}.cfg"
        if self.size == "full":
            return config
        lines = config.read_text(encoding="utf-8").splitlines(keepends=True)
        small = self.tmp / f"{self.name}.cfg"
        small.write_text("".join(f"grid.N = {self.workload.small_n}\n"
                                 if line.startswith("grid.N =") else line
                                 for line in lines), encoding="utf-8")
        return small

    def elapsed(self):
        return time.perf_counter() - self.start

    def remaining(self):
        return HARD_LIMIT_S - self.elapsed()

    def cli_args(self, out):
        args = list(self.workload.args)
        if self.workload.seeded:
            args += [str(FALSIFY_SAMPLES[self.size]), "--seed", str(self.seed)]
        return args + ["--config", str(self.config), "--out", str(out)]

    def probe(self):
        log = self.tmp / "probe.log"
        code, _, _ = _spawn([sys.executable, str(BENCH / "child.py"), "probe"], log,
                            self.remaining())
        if code != 0:
            raise BenchError(f"host probe failed:\n{log.read_text()}")
        return float(log.read_text().split()[-1])

    def setup_time(self):
        """Wall time of one fresh process doing the set-up every subcommand does."""
        cmd = [sys.executable, str(BENCH / "child.py"), "setup", str(self.config),
               "1" if self.workload.builds_lattice else "0"]
        log = self.tmp / "setup.log"
        code, wall, _ = _spawn(cmd, log, self.remaining())
        imported = log.read_text().strip().splitlines()[-1:] if code == 0 else []
        if imported != [str(ROOT / "src" / "dqbsde" / "__init__.py")]:
            raise BenchError(f"set-up run did not import this checkout's dqbsde:\n"
                             f"{log.read_text()}")
        return wall

    def run_cli(self, traced):
        """One repetition; returns its record, with the parsed trace if traced."""
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans = self.tmp / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "trace", str(spans)]
        else:
            cmd = [sys.executable, "-m", "dqbsde.cli"]
        log = self.tmp / "cli.log"
        code, wall, rss = _spawn(cmd + self.cli_args(out), log, self.remaining())
        rep = {"traced": traced, "exit_code": code, "wall_s": wall, "peak_rss_mb": rss,
               "failure": None}
        if code != 0:
            rep["failure"] = f"exit code {code}: {log.read_text()[-2000:]}"
        else:
            rep["failure"] = self._check_artifacts(out)
        if traced and code == 0:
            rep["trace"] = json.loads(spans.read_text())
            rep["failure"] = rep["failure"] or check_spans(rep["trace"]["spans"])
        self.reps.append(rep)
        if rep["failure"]:
            self.errors.append(rep["failure"])
        return rep

    def _check_artifacts(self, out):
        found = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
        if found != sorted(self.goldens):
            return f"artifacts {found}, expected {sorted(self.goldens)}"
        for name, want in self.goldens.items():
            with open(out / name, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            if digest != want:
                return f"{name}: sha256 {digest} differs from golden {want}"
        return None

    def keep_going(self, done, minimum, per_pass):
        """Whether to start another pass of per_pass seconds."""
        if done < minimum:
            return self.remaining() > per_pass
        return self.elapsed() + per_pass <= min(self.seconds, HARD_LIMIT_S)


def check_spans(spans):
    """Every span closed and inside its parent's interval; None if so."""
    for index, span in enumerate(spans):
        if span is None:
            return f"span {index} was never closed"
        name, parent, start, end = span
        if end < start:
            return f"span {index} ({name}) ends before it starts"
        if parent >= 0:
            p_name, _, p_start, p_end = spans[parent]
            if parent >= index or start < p_start or end > p_end:
                return f"span {index} ({name}) is not inside its parent {parent} ({p_name})"
    return None


def layer_metrics(trace):
    """Per-layer values of one traced run: self times from the spans, counts
    from the counters recorded at the same boundaries."""
    spans = trace["spans"]
    self_time = [end - start for _, _, start, end in spans]
    recorder_evals = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            self_time[parent] -= end - start
            if name == "gendsl.eval_expr" and spans[parent][0] == "certs._Recorder.eval":
                recorder_evals[parent] = recorder_evals.get(parent, 0) + 1
    by_name = {}
    for (name, *_), value in zip(spans, self_time):
        by_name[name] = by_name.get(name, 0.0) + value
    metrics = {metric: sum(by_name.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME.items()}
    counts = trace["counters"]
    metrics.update({name: counts.get(name, 0) for name in EXACT_COUNTS})
    calls = metrics["gendsl.eval_calls"]
    metrics["gendsl.rows_per_call"] = metrics["gendsl.eval_rows"] / calls if calls else 0.0
    project_s = metrics["engine.project_s"]
    metrics["engine.project_gb_per_s"] = (metrics["engine.project_bytes"] / project_s / 1e9
                                          if project_s else 0.0)
    # A batched evaluation that raises is redone one sample at a time.
    fallback = sum(c - 1 for c in recorder_evals.values())
    samples = metrics["certs.samples"]
    metrics["certs.fallback_frac"] = fallback / samples if samples else 0.0
    return metrics


def _summary(name, unit, values):
    q1, q3 = _quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, runs {len(values)})")


def measure(rnd, trace, units):
    """Run the round; returns (metrics, report lines, raw record)."""
    lines = [f"workload {rnd.name}, seed {rnd.seed}, size {rnd.size}, trace {trace}"]
    probes = [rnd.probe()]
    raw = {"workload": rnd.name, "seed": rnd.seed, "size": rnd.size, "trace": trace}
    if not trace:
        # Set-up runs alternate with the CLI runs, so that both sample the
        # host over the whole round rather than one stretch of it.
        setups = []
        while rnd.keep_going(len(rnd.reps), 1, statistics.median(
                [r["wall_s"] + s for r, s in zip(rnd.reps, setups)] or [0.0])):
            rnd.run_cli(traced=False)
            setups.append(rnd.setup_time())
        while len(setups) < MIN_SETUP_RUNS:
            setups.append(rnd.setup_time())
        # A child's ru_maxrss includes the image it was forked from, so the
        # figure is the child's own only while this process stays smaller.
        parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if min(r["peak_rss_mb"] for r in rnd.reps) <= parent_mb:
            rnd.errors.append(f"benchmark process peak RSS {parent_mb:.1f} MB masks "
                              "the child's peak RSS")
        walls = [r["wall_s"] for r in rnd.reps]
        values = {"wall_s": walls, "setup_s": setups,
                  "peak_rss_mb": [r["peak_rss_mb"] for r in rnd.reps]}
        metrics = {name: statistics.median(v) for name, v in values.items()}
        lines += [_summary(name, units[name], v) for name, v in values.items()]
        raw["values"] = values
    else:
        passes = 0
        while rnd.keep_going(passes, 2, sum(r["wall_s"] for r in rnd.reps[-2:]) or 1.0):
            rnd.run_cli(traced=False)
            rnd.run_cli(traced=True)
            passes += 1
        traced = [r for r in rnd.reps if r["traced"] and "trace" in r]
        per_run = [layer_metrics(r["trace"]) for r in traced]
        metrics = {}
        for name in units if per_run else ():
            if name not in per_run[0]:
                continue
            values = [m[name] for m in per_run]
            if name in EXACT_COUNTS:
                if len(set(values)) != 1:
                    rnd.errors.append(f"{name} differs between traced runs: {values}")
                metrics[name] = values[0]
                lines.append(f"{name}: {values[0]} {units[name]} "
                             f"(exact in {len(values)} traced runs)")
            else:
                metrics[name] = statistics.median(values)
                lines.append(_summary(name, units[name], values))
        plain = statistics.median(r["wall_s"] for r in rnd.reps if not r["traced"])
        with_spans = statistics.median(r["wall_s"] for r in rnd.reps if r["traced"])
        metrics["trace_overhead_frac"] = with_spans / plain - 1.0
        lines.append(f"trace_overhead_frac: {metrics['trace_overhead_frac']:.4f} "
                     f"(traced wall {with_spans:.4f} s vs untraced {plain:.4f} s)")
        raw["layer_metrics"] = per_run
        if traced:
            (RESULTS / f"{rnd.name}-spans.json").write_text(json.dumps(traced[-1]["trace"]))
    probes.append(rnd.probe())
    lines.append(f"host probe: {probes[0]:.4f} s before, {probes[1]:.4f} s after "
                 "(recorded only; no metric is rescaled by it)")
    raw.update(probes_s=probes, reps=[{k: v for k, v in r.items() if k != "trace"}
                                      for r in rnd.reps], errors=rnd.errors)
    return metrics, lines, raw


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}, spec


def run_round(name, seed, seconds, trace, size="full"):
    """Measure one round and print its report and result line."""
    for required in (ROOT / "src" / "dqbsde" / "cli.py", BENCH / "goldens.json",
                     BENCH / "configs" / f"{name}.cfg", ROOT / "BENCHMARK.json"):
        if not required.is_file():
            raise BenchError(f"missing {required}; run from the root of a dqbsde checkout")
    units, _ = load_units()
    RESULTS.mkdir(parents=True, exist_ok=True)
    rnd = Round(name, seed, seconds, size)
    try:
        metrics, lines, raw = measure(rnd, trace, units)
    finally:
        shutil.rmtree(rnd.tmp, ignore_errors=True)
    (RESULTS / f"{name}-trace{trace}-seed{rnd.seed}.json").write_text(json.dumps(raw, indent=1))
    failed = sum(1 for r in rnd.reps if r["failure"])
    lines.append(f"error_rate: {failed}/{len(rnd.reps)} = {failed / len(rnd.reps):.4g} ratio")
    lines += [f"error: {e}" for e in rnd.errors]
    result = {
        "correct": not rnd.errors,
        "attempted": len(rnd.reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


def smoke():
    """Self-test on tiny inputs: every metric of BENCHMARK.json is printed
    with its unit, every artifact matches, spans nest, counts repeat."""
    units, spec = load_units()
    wanted = {0: sorted(m["name"] for m in spec["end_to_end"]),
              1: sorted(m["name"] for m in spec["per_layer"])}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("BENCHMARK.json names a workload bench/run.py does not have", file=sys.stderr)
        return 1
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "small"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                timeout=170)
            print(proc.stdout, end="")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{name} trace {trace}: no result line")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: run failed")
            got = result["metrics"]
            if sorted(got) != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)}")
            problems += [f"{name} trace {trace}: {k} unit {v['unit']!r}"
                         for k, v in got.items() if v["unit"] != units.get(k)]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="all: every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: tiny N and sample count, for the self-test")
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            run_round(name, args.seed, args.seconds, args.trace, args.size)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
