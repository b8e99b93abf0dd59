"""Expression language: tokenizer, parser, evaluator, plans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqbsde.gendsl as g
from dqbsde.engine import compile_driver
from dqbsde.gendsl import (Bin, Clamp, EvalEnv, EvalError, EvalPlan, Expr, Func, Neg, Norm,
                           NormY, NormZ, Num, ParseError, TVar, YVar, ZRow,
                           check_triangular_deps, eval_expr, parse_expr, pretty, scan_refs,
                           sum_squares)

from conftest import depth, make, pure_quadratic_config, reference_eval, remark22_config

REMARK_TEXT = "norm2(z1)*sin(log(norm(z1)+1)) + normy + sin(pow(normz,1.5)) + log(normz+1)"


def env(t=0.0, y=None, z=None, w=None):
    return EvalEnv(t=t, y=y, z=z, w=w)


class TestParse:
    def test_simple_product_structure(self):
        e = parse_expr("0.5*norm2(z1)", 1, 2)
        assert isinstance(e.root, Bin) and e.root.op == "*"
        assert e.root == Bin("*", Num(0.5), Norm(ZRow(1), squared=True))
        assert depth(e.root) == 3

    def test_unclosed_call_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("log(", 1, 1)
        assert exc.value.position == 4

    def test_remark_component_parses(self):
        e = parse_expr(REMARK_TEXT, 2, 1)
        refs = scan_refs(e.root)
        assert refs.uses_normz and refs.uses_normy
        assert refs.z_indices == frozenset({1})

    def test_error_position_inside_input_and_token_matches(self):
        bad = ["1 + * 2", "sin(1", "norm(y1)", "pow(1)", "q3", "z1 + 1", "2..5"]
        for text in bad:
            with pytest.raises(ParseError) as exc:
                parse_expr(text, 3, 2)
            err = exc.value
            assert 0 <= err.position <= len(text)
            if err.token:
                assert text[err.position:err.position + len(err.token)] == err.token

    def test_context_rules(self):
        with pytest.raises(ParseError):
            parse_expr("y1", 1, 1, context=g.TERMINAL)
        with pytest.raises(ParseError):
            parse_expr("norm(z1)", 1, 1, context=g.TERMINAL)
        with pytest.raises(ParseError):
            parse_expr("w1", 1, 1, context=g.GENERATOR)
        parse_expr("w2 + t", 1, 2, context=g.TERMINAL)

    def test_index_ranges(self):
        with pytest.raises(ParseError):
            parse_expr("y3", 2, 1)
        with pytest.raises(ParseError):
            parse_expr("norm(z2)", 1, 4)
        with pytest.raises(ParseError):
            parse_expr("w3", 1, 2, context=g.TERMINAL)
        with pytest.raises(ParseError):
            parse_expr("y0", 2, 1)

    def test_bare_z_row_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("z1*2", 1, 1)
        assert "norm" in exc.value.message

    def test_negative_literal_folding(self):
        e = parse_expr("-3.5", 1, 1)
        assert e.root == Num(-3.5)
        e = parse_expr("2*-3.0", 1, 1)
        assert e.root == Bin("*", Num(2.0), Num(-3.0))


class TestEval:
    def test_own_row_quadratic(self):
        e = parse_expr("0.5*norm2(z1)", 1, 2)
        assert eval_expr(e, env(y=np.zeros(1), z=np.array([[3.0, 4.0]]))) == 12.5

    def test_log_shift_at_zero(self):
        e = parse_expr("log(normz+1)", 1, 2)
        assert eval_expr(e, env(y=np.zeros(1), z=np.zeros((1, 2)))) == 0.0

    def test_remark_component_vanishes_at_origin(self):
        e = parse_expr(REMARK_TEXT, 2, 1)
        assert eval_expr(e, env(y=np.zeros(2), z=np.zeros((2, 1)))) == 0.0

    def test_domain_errors_carry_position(self):
        cases = [
            ("log(0-1)", {}),
            ("1/(t-0)", {"t": 0.0}),
            ("sqrt(0-2)", {}),
            ("pow(0-2,0.5)", {}),
        ]
        for text, kw in cases:
            e = parse_expr(text, 1, 1)
            with pytest.raises(EvalError) as exc:
                eval_expr(e, env(**kw))
            assert 0 <= exc.value.position < len(text)

    def test_integer_power_of_negative_base(self):
        e = parse_expr("pow(0-2,2)", 1, 1)
        assert eval_expr(e, env()) == 4.0

    def test_non_finite_detected(self):
        e = parse_expr("exp(exp(exp(t)))", 1, 1)
        with pytest.raises(EvalError):
            eval_expr(e, env(t=10.0))

    def test_sign_conventions(self):
        e = parse_expr("sign(t)", 1, 1)
        assert eval_expr(e, env(t=0.0)) == 0.0
        assert eval_expr(e, env(t=-2.0)) == -1.0

    def test_clamp(self):
        e = parse_expr("clamp(t,-1,1)", 1, 1)
        assert eval_expr(e, env(t=3.0)) == 1.0
        assert eval_expr(e, env(t=-3.0)) == -1.0
        assert eval_expr(e, env(t=0.25)) == 0.25

    def test_batched_matches_scalar(self):
        e = parse_expr(REMARK_TEXT, 2, 1)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(40, 2))
        z = rng.normal(size=(40, 2, 1))
        batch = eval_expr(e, env(y=y, z=z))
        single = np.array([eval_expr(e, env(y=y[j], z=z[j])) for j in range(40)])
        assert np.array_equal(batch, single)

    def test_purity_bit_identical(self):
        e = parse_expr(REMARK_TEXT, 2, 1)
        rng = np.random.default_rng(4)
        y = rng.normal(size=(16, 2))
        z = rng.normal(size=(16, 2, 1))
        a = eval_expr(e, env(y=y, z=z))
        b = eval_expr(e, env(y=y, z=z))
        assert a.tobytes() == b.tobytes()

    def test_precedence_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c = (float(v) for v in rng.normal(size=3))
            e = parse_expr(f"{a!r}+{b!r}*{c!r}", 1, 1)
            assert eval_expr(e, env()) == a + b * c

    @pytest.mark.parametrize("text, want", [
        ("y1 + log(0-1)", ("y not available in this context", 0)),
        ("log(0-1) + y1", ("log of nonpositive value", 0)),
        ("t + norm(z2)*normy", ("z not available in this context", 4)),
    ])
    def test_missing_input_fails_in_walk_order(self, text, want):
        e = parse_expr(text, 2, 2)
        for evaluate in (eval_expr, reference_eval):
            with pytest.raises(EvalError) as exc:
                evaluate(e, env(t=1.0))
            assert (exc.value.message, exc.value.position) == want

    def test_terminal_formula_over_w(self):
        e = parse_expr("clamp(w1,-1,1) + log(w2)", 1, 2, context=g.TERMINAL)
        w = np.array([[0.5, 2.0], [-3.0, 1.0]])
        assert bits(eval_expr(e, env(t=1.0, w=w))) == bits(reference_eval(e, env(t=1.0, w=w)))
        with pytest.raises(EvalError) as exc:
            eval_expr(e, env(t=1.0, w=w[:, ::-1]))
        assert (exc.value.message, exc.value.position) == ("log of nonpositive value", 17)

    def test_env_dimension_mismatch(self):
        e = parse_expr("normy", 2, 1)
        with pytest.raises(ValueError):
            eval_expr(e, env(y=np.zeros(3), z=np.zeros((3, 1))))


CORPUS = [
    "0.5*norm2(z1)",
    REMARK_TEXT,
    "y1 + 0.5*norm2(z2)",
    "-3.5*t + clamp(y2,-1,1)/2",
    "pow(normz,1.5) - sin(cos(exp(t)))",
    "1e-3*abs(y1) + sqrt(norm(z1)+1)",
    "-(y1+y2)*-2.0",
    "t/(1+t)/(2+t) - t*t*t",
    "sign(y1)*log(normy+1)",
    "0",
    "0.85*norm2(z1)",
    "0.85*norm2(z2)",
    "-1.5*y1 + 0.25",
    "-1.5*y2 + 0.25",
    "norm2(z1)*sin(log(norm(z1)+1))",
    "normy + sin(pow(normz,1.5)) + log(normz+1)",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_round_trip(self, text):
        e = parse_expr(text, 2, 2)
        printed = pretty(e)
        again = parse_expr(printed, 2, 2)
        assert again.root == e.root


def _ast_strategy(n=2, d=2):
    finite = st.floats(min_value=-50, max_value=50, allow_nan=False,
                       allow_infinity=False)
    leaves = st.one_of(
        finite.map(lambda v: Num(float(v))),
        st.just(TVar()),
        st.integers(1, n).map(YVar),
        st.just(NormZ()),
        st.just(NormY()),
        st.tuples(st.integers(1, n), st.booleans()).map(
            lambda p: Norm(ZRow(p[0]), squared=p[1])),
    )

    def extend(children):
        def neg(a):
            return Num(-a.value) if isinstance(a, Num) else Neg(a)
        return st.one_of(
            children.map(neg),
            st.tuples(st.sampled_from(g.UNARY_FUNCS), children).map(
                lambda p: Func(p[0], p[1])),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda p: Bin(p[0], p[1], p[2])),
            st.tuples(children, children).map(lambda p: g.Pow(p[0], p[1])),
            st.tuples(children, children, children).map(
                lambda p: Clamp(p[0], p[1], p[2])),
        )

    return st.recursive(leaves, extend, max_leaves=16)


class TestRandomRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_ast_strategy())
    def test_pretty_reparses_identically(self, node):
        printed = pretty(node)
        again = parse_expr(printed, 2, 2)
        assert again.root == node


class TestTriangularDeps:
    def test_forward_reference_caught(self):
        k = (
            parse_expr("0.5*norm2(z1)", 3, 1),
            parse_expr("norm2(z3)", 3, 1),
            parse_expr("y1", 3, 1),
        )
        gen = g.GeneratorModel(g.TRIANGULAR, 3, 1, k=k)
        violations = check_triangular_deps(gen)
        assert [(v.component, v.name) for v in violations] == [(2, "z3")]

    def test_whole_state_norms_only_in_last_component(self):
        k = (parse_expr("normz", 2, 1), parse_expr("normy", 2, 1))
        gen = g.GeneratorModel(g.TRIANGULAR, 2, 1, k=k)
        assert [(v.component, v.name) for v in check_triangular_deps(gen)] \
            == [(1, "normz")]

    def test_structured_rejected(self):
        gen = make(pure_quadratic_config())[0].generator
        with pytest.raises(ValueError, match="not triangular"):
            check_triangular_deps(gen)


def bits(value):
    a = np.asarray(value, dtype=float)
    return a.shape, a.view(np.uint64).tolist()


def interpreted(root, env, n=2, d=2, shape=None):
    """("ok", bits) or ("error", message, position) from the reference
    interpreter; with a shape, a value is broadcast to it."""
    try:
        value = reference_eval(Expr(root, n, d, g.GENERATOR, ""), env)
        return ("ok", bits(value if shape is None else np.broadcast_to(value, shape)))
    except EvalError as err:
        return ("error", err.message, err.position)


def reference_driver(gen):
    """The driver as it was before plans: every component interpreted, all
    at values time, and nothing staged."""
    def driver(k, t, z):
        def values(y):
            env = EvalEnv(t=t, y=y, z=z)
            m = y.shape[0]
            cols = []
            for i in range(gen.n):
                if gen.kind == g.STRUCTURED:
                    v = (np.asarray(reference_eval(gen.g[i], env))
                         + np.asarray(reference_eval(gen.h[i], env)))
                else:
                    v = np.asarray(reference_eval(gen.k[i], env))
                cols.append(np.broadcast_to(np.asarray(v, dtype=float), (m,)))
            return np.stack(cols, axis=-1)
        return values
    return driver


def plan_outcome(plan, t, y, z, w=None):
    try:
        return [("ok", bits(v)) for v in plan.evaluate(t, y, z, w)]
    except EvalError as err:
        return ("error", err.message, err.position)


def driver_outcome(stage, y):
    """("ok", bits) or ("error", message, position) of a driver stage at y."""
    try:
        with np.errstate(all="ignore"):
            return ("ok", bits(stage(y)))
    except EvalError as err:
        return ("error", err.message, err.position)


def structured(g_roots, h_roots, n=2, d=2):
    def exprs(roots):
        return tuple(Expr(r, n, d, g.GENERATOR, "") for r in roots)
    return g.GeneratorModel(g.STRUCTURED, n, d, g=exprs(g_roots), h=exprs(h_roots))


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                    st.floats(min_value=-50, max_value=50, allow_nan=False,
                              allow_infinity=False))


@st.composite
def _batch(draw, n=2, d=2):
    m = draw(st.integers(1, 4))
    y = np.array(draw(st.lists(_VALUES, min_size=m * n, max_size=m * n))).reshape(m, n)
    z = np.array(draw(st.lists(_VALUES, min_size=m * n * d,
                               max_size=m * n * d))).reshape(m, n, d)
    return draw(_VALUES), y, z


class TestSumSquares:
    @pytest.mark.parametrize("m", [None, 1, 7, 801, 68921])
    def test_matches_np_sum(self, m):
        rng = np.random.default_rng(5)
        lead = () if m is None else (m,)
        tails = [(k,) for k in range(1, 17)] + [(1, 1), (2, 1), (2, 3), (3, 2), (1, 7), (3, 3)]
        for tail in tails:
            a = rng.normal(size=lead + tail) * np.exp(4.0 * rng.normal(size=lead + tail))
            axes = len(tail)
            want = np.sum(a * a, axis=tuple(range(-axes, 0)))
            assert bits(sum_squares(a, axes)) == bits(want), tail

    @pytest.mark.parametrize("m", [None, 1, 7, 801, 68921])
    def test_strided_rows(self, m):
        rng = np.random.default_rng(6)
        for n, d in ((2, 1), (2, 3), (3, 3), (2, 9)):
            z = rng.normal(size=((n, d) if m is None else (m, n, d)))
            for i in range(n):
                row = z[..., i, :]
                assert bits(sum_squares(row)) == bits(np.sum(row * row, axis=-1))

    def test_empty_tail_and_empty_batch(self):
        assert bits(sum_squares(np.zeros((3, 0)))) == bits(np.zeros(3))
        assert bits(sum_squares(np.zeros((0, 2)))) == bits(np.zeros(0))
        assert bits(sum_squares(np.zeros((0, 2, 1)), 2)) == bits(np.zeros(0))


class TestPlan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ast_strategy(), min_size=1, max_size=3), _batch(), st.booleans())
    def test_plan_matches_interpreter(self, roots, batch, scalar):
        t, y, z = batch
        if scalar:
            y, z = y[0], z[0]
        roots = roots + [Bin("+", roots[0], roots[-1])]
        env = EvalEnv(t=t, y=y, z=z)
        want = [interpreted(r, env) for r in roots]
        errors = [w for w in want if w[0] == "error"]
        # A batch gives the first root's error, or every root's bits.
        assert plan_outcome(EvalPlan(roots), t, y, z) == (errors[0] if errors else want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ast_strategy(), min_size=1, max_size=3), _batch())
    def test_rows_match_interpreter_per_row(self, roots, batch):
        t, y, z = batch
        m = y.shape[0]
        ts = np.full(m, t)
        values, failed = EvalPlan(roots).rows(ts, y, z, m)
        failed = dict(failed)
        for j in range(m):
            # The row alone as a batch of one.
            row = slice(j, j + 1)
            env = EvalEnv(t=ts[row], y=y[row], z=z[row])
            want = [interpreted(r, env, shape=(1,)) for r in roots]
            errors = [w for w in want if w[0] == "error"]
            if errors:
                err = failed.pop(j)
                assert ("error", err.message, err.position) == errors[0]
                assert all(np.isnan(v[j]) for v in values)
            else:
                assert [("ok", bits(v[row])) for v in values] == want
        assert not failed

    @settings(max_examples=200, deadline=None)
    @given(_ast_strategy(), _ast_strategy(), _batch())
    def test_driver_matches_reference(self, a, b, batch):
        t, y, z = batch
        gen = structured([a, b], [b, Bin("*", a, b)])
        want = driver_outcome(reference_driver(gen)(0, t, z), y)
        stage = compile_driver(gen)[0](0, t, z)  # raises nothing; an EvalError is the stage's
        assert driver_outcome(stage, y) == want
        # The same stage with a new y, and the first y again.
        y2 = y[::-1].copy()
        assert driver_outcome(stage, y2) == driver_outcome(reference_driver(gen)(0, t, z), y2)
        assert driver_outcome(stage, y) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ast_strategy(), min_size=1, max_size=3))
    def test_reads_y_iff_some_root_reads_y(self, roots):
        refs = [scan_refs(r) for r in roots]
        assert EvalPlan(roots).reads_y == any(r.y_indices or r.uses_normy for r in refs)

    def test_signed_zero_literals_stay_apart(self):
        roots = [Num(0.0), Num(-0.0), Bin("*", Num(-0.0), TVar()), Bin("*", Num(0.0), TVar())]
        env = EvalEnv(t=2.0, y=np.zeros(2), z=np.zeros((2, 2)))
        got = EvalPlan(roots).run(2.0, env.y, env.z)
        assert [("ok", bits(v)) for v in got] == [interpreted(r, env) for r in roots]
        assert [bool(np.signbit(v)) for v in got] == [False, True, True, False]

    def test_subexpressions_are_shared_across_roots(self):
        gen = make(remark22_config())[0].generator
        roots = [Bin("+", gi.root, hi.root) for gi, hi in zip(gen.g, gen.h)]
        plan = EvalPlan(roots)
        # Two own-row parts of 6 ops each, one shared h of 10 ops, two sums.
        assert len(plan._ops) == 2 * 6 + 10 + 2
        stage_y = [op[0] for op in plan._y]
        assert len(stage_y) == 2 + 2 + 2  # normy, two adds in h, g + h twice

    def test_stage_y_keeps_only_what_it_reads(self):
        gen = make(remark22_config())[0].generator
        plan = EvalPlan([Bin("+", gi.root, hi.root) for gi, hi in zip(gen.g, gen.h)])
        z = np.arange(1.0, 7.0).reshape(3, 2, 1) / 7.0
        tz = plan.stage_tz(0.5, z)
        live = [v for v in tz[3:] if isinstance(v, np.ndarray)]
        assert len(live) == 4  # g1, g2 and the two normz terms of h
        assert all(v.base is live[0].base and v.shape == (3,) for v in live)
        env = EvalEnv(t=0.5, y=np.ones((3, 2)), z=z)
        got = plan.stage_y(tz, env.y)
        for i in range(2):
            want = (np.asarray(reference_eval(gen.g[i], env))
                    + np.asarray(reference_eval(gen.h[i], env)))
            assert bits(got[i]) == bits(want)
        # Rows of 1 KiB and up are not numpy-cached, so they stay separate.
        big = plan.stage_tz(0.5, np.ones((128, 2, 1)))
        assert all(v.base is None for v in big[3:] if isinstance(v, np.ndarray))

    def pinned(self, text, t=0.0, y=None, z=None):
        """Fast-run result (or None) and the interpreter's outcome, which the
        driver and the plan's checked run must both give."""
        n, d = 2, 2
        y = np.zeros((2, n)) if y is None else np.asarray(y, dtype=float)
        z = np.zeros((2, n, d)) if z is None else np.asarray(z, dtype=float)
        expr = parse_expr(text, n, d)
        gen = g.GeneratorModel(g.TRIANGULAR, n, d, k=(expr, parse_expr("0", n, d)))
        want = driver_outcome(reference_driver(gen)(0, t, z), y)
        assert driver_outcome(compile_driver(gen)[0](0, t, z), y) == want
        plan = EvalPlan([expr.root])
        alone = interpreted(expr.root, EvalEnv(t=t, y=y, z=z))
        assert plan_outcome(plan, t, y, z) == (alone if alone[0] == "error" else [alone])
        return plan.run(t, y, z), want

    @pytest.mark.parametrize("n", [1, 3, 17])
    @pytest.mark.parametrize("x, lo, hi", list(itertools.product((0.0, -0.0), repeat=3)))
    def test_clamp_of_signed_zeros_scalar_and_batch_agree(self, x, lo, hi, n):
        # clamp(x, lo, hi) of zeros gives a scalar's zero in every row of a
        # batch of any length, whichever of x and the bounds are batched.
        expr = parse_expr("clamp(t,y1,y2)", 2, 1)
        scalar = bits(eval_expr(expr, env(t=x, y=np.array([lo, hi]))))[1]
        for t, y in [(np.full(n, x), np.array([lo, hi])), (x, np.tile([lo, hi], (n, 1))),
                     (np.full(n, x), np.tile([lo, hi], (n, 1)))]:
            got = np.broadcast_to(eval_expr(expr, env(t=t, y=y)), (n,))
            assert bits(got) == ((n,), [scalar] * n)

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_clamp_of_signed_zero_with_batch_bounds(self, n):
        # clamp(-0.0, -0.0, 0.0) gives +0.0, in every row of a batch and in
        # a batch of one, which is how the solvers and the falsifier evaluate.
        t = -np.arange(n, dtype=float)
        t[n // 2] = -0.0
        plan = EvalPlan([parse_expr("clamp(t,t,0)", 1, 1).root])
        got = plan.run(t, np.zeros((n, 1)), np.zeros((n, 1, 1)))[0]
        assert bits(got) == bits(np.where(t == 0.0, 0.0, t))
        y = np.full((n, 1), -0.0)
        got = eval_expr(parse_expr("clamp(y1,y1,0)", 1, 1), env(y=y, z=np.zeros((n, 1, 1))))
        assert bits(got) == bits(np.zeros(n))

    def test_pow_guard_is_batch_level(self):
        got, want = self.pinned("pow(y1,y2)", y=[[-1.0, 2.0], [2.0, 0.5]])
        assert got is None
        assert want == ("error", "pow of negative base with non-integer exponent", 0)
        # No single row fails it.
        values, failed = EvalPlan([parse_expr("pow(y1,y2)", 2, 2).root]).rows(
            0.0, np.array([[-1.0, 2.0], [2.0, 0.5]]), np.zeros((2, 2, 2)), 2)
        assert failed == [] and bits(values[0]) == bits([1.0, 2.0 ** 0.5])

    @pytest.mark.parametrize("y1", [1.0, 0.0, -0.0])
    def test_division_by_zero(self, y1):
        got, want = self.pinned("t + y1/y2", y=[[y1, 0.0], [1.0, 2.0]])
        assert got is None and want == ("error", "division by zero", 6)

    def test_log_of_zero(self):
        got, want = self.pinned("log(y1)", y=[[1.0, 0.0], [0.0, 0.0]])
        assert got is None and want == ("error", "log of nonpositive value", 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_non_finite_z_masked_by_clamp(self, bad):
        z = np.ones((2, 2, 2))
        z[1, 0, 1] = bad
        got, want = self.pinned("clamp(normz,0,1) + norm2(z2)", z=z)
        assert got is None and want == ("ok", bits([[3.0, 0.0], [3.0, 0.0]]))

    def test_nan_z_passes_clamp(self):
        z = np.ones((2, 2, 2))
        z[1, 0, 1] = np.nan
        got, want = self.pinned("clamp(normz,0,1) + norm2(z2)", z=z)
        assert got is None and want == ("error", "non-finite result", 17)

    def test_non_finite_literal(self):
        got, want = self.pinned("1e999 + t")
        assert got is None and want == ("error", "non-finite result", 6)

    def test_overflow_falls_back(self):
        got, want = self.pinned("exp(y1)", y=[[1000.0, 0.0], [0.0, 0.0]])
        assert got is None and want == ("error", "non-finite result", 0)

    def test_plan_runs_remark22(self):
        rng = np.random.default_rng(8)
        y, z = rng.normal(size=(5, 2)), rng.normal(size=(5, 2, 1))
        expr = parse_expr(REMARK_TEXT, 2, 1)
        got = EvalPlan([expr.root]).run(0.3, y, z)
        assert got is not None
        assert bits(got[0]) == bits(reference_eval(expr, EvalEnv(t=0.3, y=y, z=z)))
