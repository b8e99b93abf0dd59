"""The benchmark's small lattice inputs reproduce the artifact digests
pinned in bench/goldens.json, so a change to solution.csv, report.txt or
compare.txt bytes fails in the test suite as well as in the benchmark's own
self-test."""

import hashlib
import json
from pathlib import Path

import pytest

from dqbsde.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Subcommand arguments and small grid.N of the lattice workloads in
# bench/run.py WORKLOADS.
SOLVE_WORKLOADS = {
    "direct-r22": (["solve", "--mode", "direct"], 20),
    "stitched-r22": (["solve", "--mode", "stitched", "--horizon", "0.25"], 20),
    "joint-tri3d": (["compare", "--oracle", "joint", "--mode", "triangular"], 8),
}


@pytest.mark.parametrize("name", sorted(SOLVE_WORKLOADS))
def test_small_solve_matches_goldens(tmp_path, name):
    goldens = json.loads((BENCH / "goldens.json").read_text())["small"][name]
    args, small_n = SOLVE_WORKLOADS[name]
    # The substitution bench/run.py makes for its small inputs.
    lines = (BENCH / "configs" / f"{name}.cfg").read_text(encoding="utf-8").splitlines(True)
    config = tmp_path / f"{name}.cfg"
    config.write_text("".join(f"grid.N = {small_n}\n" if line.startswith("grid.N =") else line
                              for line in lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*args, "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(goldens)
    for artifact, digest in goldens.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
