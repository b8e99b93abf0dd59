"""Shared instance builders, field and tree helpers, and the reference DSL
evaluator of the test suite."""

import numpy as np
import pytest

import dqbsde as q
from dqbsde.gendsl import (Bin, Clamp, EvalError, Func, Neg, Norm, NormY, NormZ, Num, Pow,
                           TVar, WVar, YVar, _children, sum_squares)


def structured_config(**overrides):
    cfg = {
        "problem.n": 1, "problem.d": 1, "problem.T": 1.0, "grid.N": 1,
        "generator.kind": "structured",
        "generator.1.g": "0", "generator.1.h": "0",
        "terminal.1": "w1", "terminal.bound": 1.0,
        "params.gamma": 1.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 3.0,
    }
    cfg.update(overrides)
    return cfg


def pure_quadratic_config(gamma=1.0, N=50, T=1.0, terminal="clamp(w1,-1,1)", bound=1.0):
    return structured_config(**{
        "grid.N": N, "problem.T": T,
        "generator.1.g": f"{gamma / 2.0!r}*norm2(z1)",
        "terminal.1": terminal, "terminal.bound": bound,
        "params.gamma": gamma,
    })


def remark22_config(N=50):
    """Two-component structured instance whose coupling part grows like
    log(|z|+1) off the diagonal; parameters sized so the budget check and
    the sampling falsifier both pass."""
    cfg = {
        "problem.n": 2, "problem.d": 1, "problem.T": 1.0, "grid.N": N,
        "generator.kind": "structured",
        "terminal.bound": 0.25,
        "params.gamma": 2.5, "params.K": 5.0, "params.delta": 0.5, "params.C0": 3.0,
        "params.alpha": "0=1", "params.beta": "0=1", "params.eta": "0=1",
    }
    for i in (1, 2):
        cfg[f"generator.{i}.g"] = f"norm2(z{i})*sin(log(norm(z{i})+1))"
        cfg[f"generator.{i}.h"] = "normy + sin(pow(normz,1.5)) + log(normz+1)"
        cfg[f"terminal.{i}"] = "0.25*clamp(w1,-1,1)"
    return cfg


def triangular_demo_config(N=50, terminal1="clamp(w1,-1,1)", terminal2="0", bound=1.0):
    return {
        "problem.n": 2, "problem.d": 1, "problem.T": 1.0, "grid.N": N,
        "generator.kind": "triangular",
        "generator.1.k": "0.5*norm2(z1)",
        "generator.2.k": "y1 + 0.5*norm2(z2)",
        "terminal.1": terminal1, "terminal.2": terminal2, "terminal.bound": bound,
        "params.gamma": 1.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 3.0,
        "triangular.powerAlpha": 0.0, "triangular.lipBeta": 0.0,
        "triangular.C1": 1.0, "triangular.C2": 1.0, "triangular.C3": 1.0,
    }


def contraction_config(N=40, lip_beta=2.0):
    """Scalar triangular instance with own-component Lipschitz constant 2,
    giving four quarter-length sub-intervals on [0, 1]."""
    return {
        "problem.n": 1, "problem.d": 1, "problem.T": 1.0, "grid.N": N,
        "generator.kind": "triangular",
        "generator.1.k": "2*y1",
        "terminal.1": "clamp(w1,-1,1)", "terminal.bound": 1.0,
        "params.gamma": 1.0, "params.K": 1.0, "params.delta": 0.0, "params.C0": 3.0,
        "triangular.lipBeta": lip_beta, "triangular.C1": 2.0, "triangular.C2": 1.0,
        "triangular.C3": 1.0,
    }


def planted_h2_config():
    """Structured instance whose coupling part grows linearly in |z|, which
    the log-growth condition cannot absorb at large |z|."""
    return structured_config(**{
        "grid.N": 4,
        "generator.1.h": "normz",
        "terminal.1": "0", "terminal.bound": 0.0,
        "params.alpha": "0=1", "params.eta": "0=1",
    })


def make(cfg):
    instance = q.assemble_problem(cfg)
    lattice = q.build_lattice(instance.grid, instance.d)
    return instance, lattice


def write_config(path, cfg):
    lines = [f"{k} = {v}" for k, v in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def field_sup_diff(a, b):
    """Sup over (node, component) of |Y_a - Y_b|."""
    return float(np.abs(a.y - b.y).max()) if a.y.size else 0.0


def shifted(field_, delta):
    """A copy of field_ with delta added to every Y value; its Z is the
    projection of the shifted Y."""
    return q.SolutionField(field_.y + delta, field_.lattice, field_.z_truncation)


def flat_z(field_):
    """Every layer of field_'s Z stacked in flat node order, shape
    (total_nodes - (N+1)^d, n, d)."""
    return np.concatenate([np.empty((0, field_.n, field_.lattice.d)), *field_.z])


def depth(node):
    """Length of the longest root-to-leaf path, counting nodes."""
    kids = _children(node)
    return 1 + (max(depth(k) for k in kids) if kids else 0)


def reference_eval(expr, env):
    """The tree-walking interpreter that ``gendsl.EvalPlan`` replaced, kept
    as the reference: it walks the tree in post-order, checks each node as
    it is made and raises the ``EvalError`` of the first node that fails on
    any row.  Returns a float for scalar input, an ndarray for a batch."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _ev(expr.root, env)
    return float(out) if np.ndim(out) == 0 else out


def _finite(value, node):
    if not np.all(np.isfinite(value)):
        raise EvalError("non-finite result", node.pos)
    return value


def _ev(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Bin):
        a = _ev(node.left, env)
        b = _ev(node.right, env)
        if node.op == "+":
            return _finite(np.add(a, b), node)
        if node.op == "-":
            return _finite(np.subtract(a, b), node)
        if node.op == "*":
            return _finite(np.multiply(a, b), node)
        if np.any(np.equal(b, 0.0)):
            raise EvalError("division by zero", node.pos)
        return _finite(np.divide(a, b), node)
    if isinstance(node, Norm):
        s = sum_squares(_need(env.z, node, "z")[..., node.row.index - 1, :])
        return s if node.squared else np.sqrt(s)
    if isinstance(node, NormZ):
        return np.sqrt(sum_squares(_need(env.z, node, "z"), 2))
    if isinstance(node, NormY):
        return np.sqrt(sum_squares(_need(env.y, node, "y")))
    if isinstance(node, YVar):
        return _need(env.y, node, "y")[..., node.index - 1]
    if isinstance(node, WVar):
        return _need(env.w, node, "w")[..., node.index - 1]
    if isinstance(node, TVar):
        return env.t
    if isinstance(node, Neg):
        return np.negative(_ev(node.arg, env))
    if isinstance(node, Func):
        x = _ev(node.arg, env)
        name = node.name
        if name == "log":
            if np.any(np.less_equal(x, 0.0)):
                raise EvalError("log of nonpositive value", node.pos)
            return np.log(x)
        if name == "sqrt":
            if np.any(np.less(x, 0.0)):
                raise EvalError("sqrt of negative value", node.pos)
            return np.sqrt(x)
        if name == "exp":
            return _finite(np.exp(x), node)
        if name == "sin":
            return np.sin(x)
        if name == "cos":
            return np.cos(x)
        if name == "abs":
            return np.abs(x)
        return np.sign(x)
    if isinstance(node, Pow):
        base = _ev(node.base, env)
        expo = _ev(node.exponent, env)
        if np.any(np.less(base, 0.0)) and not np.all(np.equal(expo, np.floor(expo))):
            raise EvalError("pow of negative base with non-integer exponent", node.pos)
        return _finite(np.power(base, expo), node)
    if isinstance(node, Clamp):
        return np.minimum(np.maximum(_ev(node.arg, env), _ev(node.lo, env)), _ev(node.hi, env))
    raise TypeError(f"unknown node {node!r}")


def _need(value, node, what):
    if value is None:
        raise EvalError(f"{what} not available in this context", node.pos)
    return value


@pytest.fixture
def remark22_instance():
    return make(remark22_config())


@pytest.fixture
def triangular_demo_instance():
    return make(triangular_demo_config())
