"""The benchmark's traced mode reads the package's return values: each
``bench/child.py`` ``Tracer`` hook runs here in process, through the same
``Tracer.wrap`` a ``--trace 1`` run installs, on the real results of the
functions it wraps, so a change of return shape fails in tier-1 and not
only in the slow benchmark self-test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dqbsde as q
from dqbsde import engine

from conftest import (contraction_config, make, pure_quadratic_config, remark22_config,
                      triangular_demo_config)

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"
TRI_D2 = triangular_demo_config(N=12) | {"problem.d": 2, "triangular.lipBeta": 2.0}


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _field_bytes(lat, n):
    """Bytes of a field's Y and of its derived Z, layer by layer, over every
    lattice node."""
    z_rows = lat.total_nodes - lat.layer_size(lat.grid.steps)
    return 8 * n * (lat.total_nodes + z_rows * lat.d)


def _traced(child, fn, name, *args, **kwargs):
    tracer = child.Tracer()
    result = tracer.wrap(fn, name)(*args, **kwargs)
    assert [span[0] for span in tracer.spans] == [name]
    return result, tracer.counters


def test_every_traced_name_exists(child):
    for short, names in child.TRACED.items():
        module = importlib.import_module(f"dqbsde.{short}")
        for attr in names:
            owner, _, leaf = attr.rpartition(".")
            assert callable(getattr(getattr(module, owner) if owner else module, leaf))


@pytest.mark.parametrize("fn, name", [(q.backward_solve, "engine.backward_solve"),
                                      (q.picard_solve, "engine.picard_solve")],
                         ids=["backward_solve", "picard_solve"])
def test_held_field_of_a_solve(child, fn, name):
    inst, lat = make(remark22_config(N=20))
    _, counters = _traced(child, fn, name, inst, lat)
    assert counters == {"engine.field_bytes": _field_bytes(lat, inst.n)}


def test_solve_triangular(child):
    inst, lat = make(TRI_D2)
    _, counters = _traced(child, q.solve_triangular, "drivers.solve_triangular", inst, lat)
    assert counters == {"engine.field_bytes": _field_bytes(lat, 2)}


def test_oracle_joint_picard(child):
    inst, lat = make(TRI_D2)
    _, counters = _traced(child, q.oracle_joint_picard, "drivers.oracle_joint_picard",
                          inst, lat)
    assert counters == {"engine.field_bytes": _field_bytes(lat, 2)}


def test_solve_stitched_chunks_and_halvings(child):
    inst, lat = make(pure_quadratic_config(gamma=6.0, N=50))
    _, counters = _traced(child, q.solve_stitched, "drivers.solve_stitched",
                          inst, lat, horizon="adaptive", max_iter=100)
    assert counters == {"drivers.chunks": 2, "drivers.halvings": 1,
                        "engine.field_bytes": _field_bytes(lat, 1)}


def test_frozen_y_contraction_outer_iterations(child):
    inst, lat = make(contraction_config(N=40, lip_beta=2.0))
    _, counters = _traced(child, q.frozen_y_contraction, "drivers.frozen_y_contraction",
                          *q.scalar_problem(inst, lat), 2.0, lat)
    assert counters == {"drivers.outer_iterations": 13 + 14 + 14 + 13}


def test_picard_range_passes_and_failure(child):
    inst, lat = make(remark22_config(N=20))
    driver, _ = engine.compile_driver(inst.generator)
    term = engine.terminal_values(inst, lat)
    field_ = engine.zero_field(lat, inst.n)
    (ys, zs, trace), counters = _traced(child, engine.picard_range, "engine.picard_range",
                                        lat, driver, term, 0, lat.grid.steps, out=field_.y)
    assert len(trace) == 27
    assert counters == {"engine.picard_passes": 27,
                        "engine.field_bytes": 2 * _field_bytes(lat, inst.n)}
    tracer = child.Tracer()
    with pytest.raises(engine.PicardNonconvergenceError):
        tracer.wrap(engine.picard_range, "engine.picard_range")(
            lat, driver, term, 0, lat.grid.steps, out=field_.y,
            tol=1e-12, max_iter=3)
    assert tracer.counters == {"engine.picard_passes": 3}
