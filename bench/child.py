"""Child-process entry points of the benchmark; ``run.py`` spawns each one
in a fresh interpreter so that every measurement starts cold.

    python3 bench/child.py setup CONFIG LATTICE
        Import dqbsde, read and assemble CONFIG and, when LATTICE is 1,
        build its lattice; print the imported package path.  This is the
        work every subcommand does before its first solve or sample.
    python3 bench/child.py probe
        Time a fixed numpy-plus-pure-Python workload and print the seconds.
        It records how fast the host is in this round; nothing rescales a
        metric by it.
    python3 bench/child.py trace SPANS_JSON CLI_ARG...
        Run ``dqbsde.cli.main(CLI_ARG...)`` with the functions of every
        package module wrapped in timing spans, write the spans and counters
        to SPANS_JSON and exit with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

# Functions wrapped in spans, by module.  Each is the entry point of one
# layer's work as seen from its caller; recursive helpers (gendsl._ev) stay
# unwrapped so the overhead is per call of the layer, not per AST node.
TRACED = {
    "model": ("read_config_file", "assemble_problem"),
    "gendsl": ("eval_expr",),
    "engine": ("build_lattice", "terminal_values", "project", "cond_exp", "log_cond_exp",
               "estimate_bmo", "sup_norm_y", "backward_range", "picard_range",
               "backward_solve", "picard_solve"),
    "drivers": ("solve_stitched", "frozen_y_contraction", "solve_triangular",
                "oracle_joint_picard", "oracle_pure_quadratic", "oracle_linear"),
    "certs": ("build_certificate", "falsify_assumptions", "_sample_uniforms",
              "_Recorder.eval"),
    "cli": ("main", "_solution_csv", "_write_report"),
}

def _batch_rows(env) -> int:
    """Rows in one DSL evaluation: the leading batch size of its inputs."""
    rows = 1
    for arr, core in ((env.y, 1), (env.z, 2), (env.w, 1)):
        if arr is not None:
            rows = max(rows, math.prod(arr.shape[:arr.ndim - core]))
    return max(rows, int(getattr(env.t, "size", 1)))


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Spans (name, parent index, start, end) and counters of one run, kept
    in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.held_bytes = 0

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def field_peak(self, live_bytes):
        self.counters["engine.field_bytes"] = max(
            self.counters.get("engine.field_bytes", 0), live_bytes)

    def wrap(self, fn, name):
        hook = name.replace(".", "_")
        on_call = getattr(self, "_before_" + hook, None)
        on_return = getattr(self, "_after_" + hook, None)
        sig = inspect.signature(fn) if on_call or on_return else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            if on_call is not None:
                on_call(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._on_error(name, err)
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, parent, start, end)
            if on_return is not None:
                on_return(bound.arguments, result)
            return result

        return traced

    # Counters, recorded at the same boundaries as the spans.

    def _before_gendsl_eval_expr(self, args):
        self.count("gendsl.eval_calls")
        self.count("gendsl.eval_rows", _batch_rows(args["env"]))

    def _after_engine_project(self, args, result):
        expectation, z = result
        child = args["child_values"]
        self.count("engine.project_nodes", args["lattice"].layer_size(args["k"]))
        self.count("engine.project_bytes",
                   getattr(child, "nbytes", 0) + expectation.nbytes + z.nbytes)

    def _before_engine_backward_range(self, args):
        # Every driver call inside backward_range is one inner y-iteration.
        driver = args["driver"]

        def counted(*a, **kw):
            self.count("engine.inner_iterations")
            return driver(*a, **kw)

        args["driver"] = counted

    def _after_engine_picard_range(self, args, result):
        ys, zs, trace = result
        self.count("engine.picard_passes", len(trace))
        # A pass holds the previous iterate beside the one it builds.
        self.field_peak(self.held_bytes + 2 * (_nbytes(ys) + _nbytes(zs)))

    def _on_error(self, name, err):
        if name == "engine.picard_range":
            self.count("engine.picard_passes", len(getattr(err, "trace", ())))

    def _after_drivers_solve_stitched(self, args, result):
        _, plan = result
        self.count("drivers.chunks", len(plan.chunks))
        self.count("drivers.halvings", len(plan.halvings))
        self._held(args, result)

    def _after_drivers_frozen_y_contraction(self, args, result):
        self.count("drivers.outer_iterations", sum(len(c) for c in result[2].changes))

    def _after_certs_falsify_assumptions(self, args, result):
        self.count("certs.samples", result.sample_count)

    def _after_cli__solution_csv(self, args, result):
        self.count("cli.solution_csv_bytes", os.path.getsize(args["path"]))

    def _held(self, args, result):
        # The CLI command keeps each solver's returned field until it exits.
        field = result[0] if isinstance(result, tuple) else result
        self.held_bytes += _nbytes(field.y) + _nbytes(field.z)
        self.field_peak(self.held_bytes)

    _after_engine_backward_solve = _after_engine_picard_solve = _held
    _after_drivers_solve_triangular = _after_drivers_oracle_joint_picard = _held

    def install(self, package):
        """Replace each traced function by its wrapper wherever a package
        module holds a reference to it, as ``from .x import f`` copies."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for short, names in TRACED.items():
            module = sys.modules[f"{package}.{short}"]
            for attr in names:
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, leaf)
                wrapped = self.wrap(original, f"{short}.{attr}")
                if owner:
                    setattr(holder, leaf, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path, exit_code):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": exit_code, "spans": self.spans,
                       "counters": self.counters}, fh)


def _probe() -> float:
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += (i * i) % 7
    rng = np.random.default_rng(12345)
    a = rng.random((300, 300))
    for _ in range(4):
        a = np.sort(a @ a.T, axis=1) / 300.0
    b = rng.random(1_000_000)
    float(np.sum(np.sqrt(b) * np.sin(b)))
    return time.perf_counter() - start


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        print(repr(_probe()))
        return 0
    import dqbsde

    if mode == "setup":
        config, lattice = rest
        instance = dqbsde.assemble_problem(dqbsde.read_config_file(config))
        if lattice == "1":
            dqbsde.build_lattice(instance.grid, instance.d)
        print(os.path.abspath(dqbsde.__file__))
        return 0
    if mode == "trace":
        import dqbsde.cli

        tracer = Tracer()
        tracer.install("dqbsde")
        code = dqbsde.cli.main(rest[1:])
        tracer.dump(rest[0], code)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
