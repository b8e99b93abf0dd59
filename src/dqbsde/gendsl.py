"""Expression language for generator and terminal-condition formulas.

Tokenizer + recursive-descent parser + evaluator for a small fixed
vocabulary: the time variable ``t``, solution components ``y1..yn``,
Brownian rows ``z1..zn`` (usable only inside ``norm``/``norm2``),
terminal inputs ``w1..wd``, elementary functions, and the norm
accessors ``norm(zi)``, ``norm2(zi)``, ``normz`` (Frobenius norm of the
full matrix) and ``normy`` (Euclidean norm of the y vector).

Grammar (standard precedence, ``pow``/``clamp``/``norm`` are calls)::

    expr  := term  (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | atom
    atom  := NUMBER | 't' | 'y'K | 'w'K | 'normz' | 'normy'
           | FUNC '(' expr ')'            FUNC in sin cos exp log abs sign sqrt
           | 'pow' '(' expr ',' expr ')'
           | 'clamp' '(' expr ',' expr ',' expr ')'
           | ('norm' | 'norm2') '(' 'z'K ')'
           | '(' expr ')'

``log`` is the natural logarithm.  Evaluation is elementwise over numpy
arrays, so one AST serves both scalar probing and whole-lattice-layer
batches.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

GENERATOR = "generator"
TERMINAL = "terminal"

UNARY_FUNCS = ("sin", "cos", "exp", "log", "abs", "sign", "sqrt")
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA"}

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"^([yzw])([1-9][0-9]*)$")


class ParseError(Exception):
    """Syntax or vocabulary error, located by character offset."""

    def __init__(self, message: str, position: int, token: str = ""):
        super().__init__(f"{message} at position {position}" + (f" ({token!r})" if token else ""))
        self.message = message
        self.position = position
        self.token = token


class EvalError(Exception):
    """Domain or finiteness error during evaluation, located at an AST node."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# AST nodes.  ``pos`` is excluded from equality so that pretty-printed and
# reparsed trees compare structurally identical.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class TVar:
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class YVar:
    index: int  # 1-based
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class WVar:
    index: int  # 1-based
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class ZRow:
    index: int  # 1-based; only valid as the argument of norm/norm2
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Norm:
    row: ZRow
    squared: bool
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class NormZ:
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class NormY:
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Node"
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"
    pos: int = field(compare=False, repr=False, default=0)


@dataclass(frozen=True)
class Clamp:
    arg: "Node"
    lo: "Node"
    hi: "Node"
    pos: int = field(compare=False, repr=False, default=0)


Node = Union[Num, TVar, YVar, WVar, ZRow, Norm, NormZ, NormY, Neg, Func, Bin, Pow, Clamp]


@dataclass(frozen=True)
class Expr:
    """A parsed expression together with its declared dimensions."""

    root: Node
    n: int
    d: int
    context: str
    source: str


def _children(node: Node) -> tuple:
    if isinstance(node, (Neg, Func)):
        return (node.arg,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    if isinstance(node, Clamp):
        return (node.arg, node.lo, node.hi)
    if isinstance(node, Norm):
        return (node.row,)
    return ()


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT OP LPAREN RPAREN COMMA EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, L = 0, len(text)
    while i < L:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/(),":
            tokens.append(_Token(_PUNCT.get(c, "OP"), c, i))
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(_Token("NUM", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ParseError("unexpected character", i, c)
    tokens.append(_Token("EOF", "", L))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, n: int, d: int, context: str):
        self.text = text
        self.n = n
        self.d = d
        self.context = context
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos, tok.text)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError("unexpected trailing input", tok.pos, tok.text)
        return node

    def expr(self) -> Node:
        return self.binary("+-", self.term)

    def term(self) -> Node:
        return self.binary("*/", self.unary)

    def binary(self, ops: str, operand) -> Node:
        """operand ((op in ops) operand)*, folded to the left."""
        node = operand()
        while self.peek().kind == "OP" and self.peek().text in ops:
            op = self.advance()
            rhs = operand()
            node = Bin(op.text, node, rhs, pos=op.pos)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            arg = self.unary()
            if isinstance(arg, Num):  # fold so literals round-trip through pretty()
                return Num(-arg.value, pos=tok.pos)
            return Neg(arg, pos=tok.pos)
        return self.atom()

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            return self.ident()
        raise ParseError("expected expression", tok.pos, tok.text)

    def ident(self) -> Node:
        tok = self.advance()
        name = tok.text
        if name == "t":
            return TVar(pos=tok.pos)
        if name == "normz":
            self._require_generator(tok)
            return NormZ(pos=tok.pos)
        if name == "normy":
            self._require_generator(tok)
            return NormY(pos=tok.pos)
        if name in UNARY_FUNCS:
            return Func(name, *self.call_args(1), pos=tok.pos)
        if name == "pow":
            return Pow(*self.call_args(2), pos=tok.pos)
        if name == "clamp":
            return Clamp(*self.call_args(3), pos=tok.pos)
        if name in ("norm", "norm2"):
            self.expect("LPAREN", "'('")
            row = self.zrow()
            self.expect("RPAREN", "')'")
            return Norm(row, squared=(name == "norm2"), pos=tok.pos)
        m = _VAR_RE.match(name)
        if m:
            kind, idx = m.group(1), int(m.group(2))
            if kind == "y":
                self._require_generator(tok)
                if idx > self.n:
                    raise ParseError(f"y index out of range (n={self.n})", tok.pos, name)
                return YVar(idx, pos=tok.pos)
            if kind == "w":
                if self.context != TERMINAL:
                    raise ParseError("w variables are terminal-only", tok.pos, name)
                if idx > self.d:
                    raise ParseError(f"w index out of range (d={self.d})", tok.pos, name)
                return WVar(idx, pos=tok.pos)
            raise ParseError("z row reference outside norm()/norm2()", tok.pos, name)
        raise ParseError("unknown identifier", tok.pos, name)

    def call_args(self, count: int) -> list:
        """'(' expr (',' expr){count-1} ')'"""
        self.expect("LPAREN", "'('")
        args = [self.expr()]
        for _ in range(count - 1):
            self.expect("COMMA", "','")
            args.append(self.expr())
        self.expect("RPAREN", "')'")
        return args

    def zrow(self) -> ZRow:
        tok = self.expect("IDENT", "z row reference")
        m = _VAR_RE.match(tok.text)
        if not m or m.group(1) != "z":
            raise ParseError("expected z row reference", tok.pos, tok.text)
        self._require_generator(tok)
        idx = int(m.group(2))
        if idx > self.n:
            raise ParseError(f"z index out of range (n={self.n})", tok.pos, tok.text)
        return ZRow(idx, pos=tok.pos)

    def _require_generator(self, tok: _Token) -> None:
        if self.context != GENERATOR:
            raise ParseError("y/z variables are generator-only", tok.pos, tok.text)


def parse_expr(text: str, n: int, d: int, context: str = GENERATOR) -> Expr:
    """Parse ``text`` against dimensions (n, d); raises ParseError."""
    if context not in (GENERATOR, TERMINAL):
        raise ValueError(f"unknown context {context!r}")
    root = _Parser(text, n, d, context).parse()
    return Expr(root=root, n=n, d=d, context=context, source=text)


# ---------------------------------------------------------------------------
# Pretty printer.  Output reparses to a structurally identical tree.
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 9


def pretty(expr: Union[Expr, Node]) -> str:
    node = expr.root if isinstance(expr, Expr) else expr
    return _pp(node, 0)


def _pp(node: Node, min_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TVar):
        return "t"
    if isinstance(node, YVar):
        return f"y{node.index}"
    if isinstance(node, WVar):
        return f"w{node.index}"
    if isinstance(node, NormZ):
        return "normz"
    if isinstance(node, NormY):
        return "normy"
    if isinstance(node, Norm):
        return f"{'norm2' if node.squared else 'norm'}(z{node.row.index})"
    if isinstance(node, Func):
        return f"{node.name}({_pp(node.arg, 0)})"
    if isinstance(node, Pow):
        return f"pow({_pp(node.base, 0)},{_pp(node.exponent, 0)})"
    if isinstance(node, Clamp):
        return f"clamp({_pp(node.arg, 0)},{_pp(node.lo, 0)},{_pp(node.hi, 0)})"
    if isinstance(node, Neg):
        s = "-" + _pp(node.arg, _PREC_NEG + 1)
        return f"({s})" if min_prec > _PREC_NEG else s
    if isinstance(node, Bin):
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        s = _pp(node.left, prec) + node.op + _pp(node.right, prec + 1)
        return f"({s})" if min_prec > prec else s
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

@dataclass
class EvalEnv:
    """Evaluation point(s).

    ``y``/``z``/``w`` may carry leading batch axes: y (..., n),
    z (..., n, d), w (..., d); ``t`` is a scalar or (...,) array.
    """

    t: Union[float, np.ndarray] = 0.0
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("y", "z", "w"):
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))


def eval_expr(expr: Expr, env: EvalEnv):
    """Evaluate; returns a float for scalar input, ndarray for batched input.

    Runs a one-root ``EvalPlan``; raises the ``EvalError`` of the first
    node, in post-order, that fails on any row.
    Pure function of (expr, env): no state, safe to call concurrently.
    """
    _check_dims(expr, env)
    out = EvalPlan([expr.root]).evaluate(env.t, env.y, env.z, env.w)[0]
    if np.ndim(out) == 0:
        return float(out)
    return out


def _check_dims(expr: Expr, env: EvalEnv) -> None:
    if expr.context == GENERATOR:
        if env.y is not None and env.y.shape[-1:] != (expr.n,):
            raise ValueError(f"env.y last axis must have length n={expr.n}")
        if env.z is not None and env.z.shape[-2:] != (expr.n, expr.d):
            raise ValueError(f"env.z must end in shape (n,d)=({expr.n},{expr.d})")
    else:
        if env.w is not None and env.w.shape[-1:] != (expr.d,):
            raise ValueError(f"env.w last axis must have length d={expr.d}")


def sum_squares(a: np.ndarray, axes: int = 1):
    """Sum of ``a*a`` over the trailing ``axes`` axes, with the bits of
    ``np.sum(a*a, axis=(-axes, ..., -1))``.

    Below 8 summed terms numpy adds them one after another in C order, so
    adding the squared columns in that order gives the same bits without
    numpy's slow reduction over a short trailing axis.  From 8 terms up its
    pairwise summation regroups the terms, so those go to ``np.sum``.
    """
    terms = math.prod(a.shape[a.ndim - axes:])
    if not 0 < terms < 8:
        return np.sum(a * a, axis=tuple(range(-axes, 0)))
    cols = a.reshape(a.shape[:a.ndim - axes] + (terms,))
    acc = cols[..., 0] * cols[..., 0]
    for j in range(1, cols.shape[-1]):
        acc = acc + cols[..., j] * cols[..., j]
    return acc


def norm(a: np.ndarray, axes: int = 1):
    """Euclidean norm over the trailing ``axes`` axes: the square root of
    ``sum_squares``, so with the bits of ``np.sqrt(np.sum(a*a, axis=...))``."""
    return np.sqrt(sum_squares(a, axes))


# ---------------------------------------------------------------------------
# Compiled evaluation plans
# ---------------------------------------------------------------------------

def _negative_base(base, expo) -> bool:
    # The guard is batch-level: a negative base anywhere and a
    # non-integral exponent anywhere, not necessarily in the same row.
    return bool(np.any(np.less(base, 0.0)) and not np.all(np.equal(expo, np.floor(expo))))


# clamp as numpy documents clip, whose own loops vary a tie of zeros' sign.
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
        "neg": np.negative, "pow": np.power,
        "clamp": lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
        "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
        "abs": np.abs, "sign": np.sign, "sqrt": np.sqrt}

# The reference checks: a domain check on the arguments, as a row mask,
# with its message, then a non-finite result.  The other ops and the leaves
# are unchecked.  A norm's sqrt shares the "sqrt" key, but its argument, a
# sum of squares, never fails the check.
_DOMAIN = {"/": (lambda a, b: np.equal(b, 0.0), "division by zero"),
           "log": (lambda x: np.less_equal(x, 0.0), "log of nonpositive value"),
           "sqrt": (lambda x: np.less(x, 0.0), "sqrt of negative value"),
           "pow": (lambda b, e: np.less(b, 0.0) & np.not_equal(e, np.floor(e)),
                   "pow of negative base with non-integer exponent")}
_NONFINITE = frozenset(("+", "-", "*", "/", "exp", "pow"))
_LEAVES = frozenset(("num", "t", "y", "w", "norm2", "squares"))
_PASS = 1 << 62  # failure key of a row that passed

_T, _Z, _Y, _W = 0, 1, 2, 3  # input slots
_NUMPY_CACHED_BYTES = 1024  # numpy caches freed data buffers below this size


class EvalPlan:
    """Formulas compiled once into flat numpy ops over integer slots: the
    package's one evaluator.

    Structurally equal subtrees share one slot across all roots; ``Num`` is
    keyed on ``repr`` so 0.0 and -0.0 stay apart.  Slots are numbered in the
    order of their first occurrence in a post-order walk over the roots in
    order: the order in which a tree walk that checks each node as it makes
    it (the reference evaluator of the tests) meets them.

    The fast run splits the ops in two stages: ``stage_tz`` runs those that
    read no y, ``stage_y`` the rest, so a caller holding z fixed runs the
    first stage once; ``reads_y`` tells whether ``stage_y`` has any op, that
    is whether some root reads a y component or normy.  Each stage drops a
    slot after its last reader; what ``stage_tz`` returns keeps only the
    slots that ``stage_y`` reads and the outputs.  When those kept arrays are
    smaller than ``_NUMPY_CACHED_BYTES``, each is copied, as it is made, into
    a row of one block: numpy keeps up to seven freed buffers of each such
    size, and every lattice layer has new sizes, so one small buffer per kept
    value would stay allocated for every layer.  The fast run checks no
    domain: it runs under one errstate that raises on overflow, invalid and
    divide, and gives up (returns None) on any such error, on a non-finite
    leaf or on the batch-level ``pow`` guard.  When it finishes, every check
    passes.

    The checked run runs the ops in walk order under errstate(all="ignore")
    and applies the reference checks as row masks.  A row gets what that
    tree walk gives on the row alone (``rows``); a batch gets the
    ``EvalError`` of its earliest failing op, or of a ``pow`` whose
    batch-level guard fails although no single row does (``evaluate``).
    """

    def __init__(self, roots: Sequence[Node]):
        self._keys = {}
        self._init = [None, None, None, None]
        self._ops = []    # (out, name, fn, args) in walk order
        self._where = {}  # op slot -> (name, args, position of its first occurrence)
        self._y_slots = {_Y}
        self.outputs = tuple(self._visit(r) for r in roots)
        self._inputs = {a for _, _, _, args in self._ops for a in args if a <= _W}
        self._walk = _with_releases(self._ops, set(self.outputs))
        tz_ops = [op for op in self._ops if op[0] not in self._y_slots]
        y_ops = [op for op in self._ops if op[0] in self._y_slots]
        self.reads_y = bool(y_ops)
        keep = set(self.outputs).union(*(op[-1] for op in y_ops))
        self._tz = _with_releases(tz_ops, keep)
        self._y = _with_releases(y_ops, set(self.outputs))
        self._rows = {slot: r for r, slot in enumerate(op[0] for op in tz_ops if op[0] in keep)}

    def _slot(self, key, pos, fn=None, args=(), value=None):
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = len(self._init)
            self._init.append(value)
            if fn is not None:
                self._ops.append((slot, key[0], fn, args))
                self._where[slot] = (key[0], args, pos)
                if self._y_slots.intersection(args):
                    self._y_slots.add(slot)
        return slot

    def _visit(self, node: Node) -> int:
        pos = node.pos
        if isinstance(node, Num):
            if math.isfinite(node.value):
                return self._slot(("num", repr(node.value)), pos, value=node.value)
            return self._slot(("num", repr(node.value)), pos, lambda v=node.value: v)
        if isinstance(node, TVar):
            return self._slot(("t",), pos, lambda t: t, (_T,))
        if isinstance(node, (YVar, WVar)):
            name, src = ("y", _Y) if isinstance(node, YVar) else ("w", _W)
            j = node.index - 1
            return self._slot((name, j), pos, lambda x: x[..., j], (src,))
        if isinstance(node, Norm):
            j = node.row.index - 1
            s = self._slot(("norm2", j), pos, lambda z: sum_squares(z[..., j, :]), (_Z,))
            return s if node.squared else self._slot(("sqrt", s), pos, np.sqrt, (s,))
        if isinstance(node, (NormZ, NormY)):
            src, axes = (_Z, 2) if isinstance(node, NormZ) else (_Y, 1)
            s = self._slot(("squares", src), pos, lambda x: sum_squares(x, axes), (src,))
            return self._slot(("sqrt", s), pos, np.sqrt, (s,))
        if isinstance(node, Neg):
            name, kids = "neg", (node.arg,)
        elif isinstance(node, Func):
            name, kids = node.name, (node.arg,)
        elif isinstance(node, Bin):
            name, kids = node.op, (node.left, node.right)
        elif isinstance(node, Pow):
            name, kids = "pow", (node.base, node.exponent)
        elif isinstance(node, Clamp):
            name, kids = "clamp", (node.arg, node.lo, node.hi)
        else:
            raise TypeError(f"cannot compile node {node!r}")
        args = tuple(self._visit(k) for k in kids)
        return self._slot((name,) + args, pos, _OPS[name], args)

    def stage_tz(self, t, z, w=None) -> Optional[list]:
        """Slot values after the fast run of the ops that read no y, or None
        if it gave up.  t is a float or an array of the batch shape, z a
        (..., n, d) array, w a (..., d) array or None."""
        v = list(self._init)
        v[_T], v[_Z], v[_W] = t, z, w
        batch = np.shape(z)[:-2] if z is not None else np.shape(w)[:-1]
        block = (np.empty((len(self._rows),) + batch)
                 if 8 * math.prod(batch) < _NUMPY_CACHED_BYTES else None)
        if not _run(self._tz, v, self._rows, block):
            return None
        v[_T] = v[_Z] = v[_W] = None
        return v

    def stage_y(self, tz: list, y) -> Optional[list]:
        """The outputs from ``stage_tz``'s values and y, or None if the fast
        run gave up; y is a (..., n) array.  ``tz`` itself is left unchanged."""
        v = list(tz)
        v[_Y] = y
        if not _run(self._y, v):
            return None
        return [v[o] for o in self.outputs]

    def run(self, t, y, z, w=None) -> Optional[list]:
        """The fast run, both stages at once."""
        tz = self.stage_tz(t, z, w)
        return None if tz is None else self.stage_y(tz, y)

    def evaluate(self, t, y, z, w=None) -> list:
        """The outputs over the whole batch: the fast run or, when it gives
        up, the checked run, which raises the ``EvalError``.  Only here may
        an input that an op reads be None; that op then fails."""
        inputs = (t, z, y, w)
        out = (None if any(inputs[i] is None for i in self._inputs)
               else self.run(t, y, z, w))
        if out is None:
            out, first, batch = self._check(t, y, z, w)
            key = min(int(np.min(first, initial=_PASS)), batch)
            if key < _PASS:
                raise self._error(key)
        return out

    def rows(self, t, y, z, m: int) -> tuple:
        """The checked run over m rows: each output as an (m,) array with NaN
        on the rows that fail, and [(row, EvalError)] for those rows in order."""
        out, first, _ = self._check(t, y, z, None)
        first = np.broadcast_to(first, (m,))
        bad = np.nonzero(first < _PASS)[0]
        values = [np.broadcast_to(np.asarray(v, dtype=float), (m,)).copy() for v in out]
        for v in values:
            v[bad] = np.nan
        keys = first[bad].tolist()
        errors = {k: self._error(k) for k in set(keys)}
        return values, [(j, errors[k]) for j, k in zip(bad.tolist(), keys)]

    def _check(self, t, y, z, w) -> tuple:
        """(outputs, first, batch): ``first`` holds per row the key 2*slot + c
        of the row's first failing op in walk order (c = 1 for a non-finite
        result, else 0; ``_PASS`` if the row passed), ``batch`` the key of
        the first ``pow`` whose batch-level guard fails."""
        v = list(self._init)
        v[_T], v[_Z], v[_Y], v[_W] = t, z, y, w
        first = batch = _PASS
        with np.errstate(all="ignore"):
            for out, name, fn, args, dead in self._walk:
                x = [v[a] for a in args]
                if any(a is None for a in x):  # an input the caller did not give
                    v[out] = np.nan
                    first = np.minimum(first, 2 * out)
                    continue
                v[out] = fn(*x)
                if name in _DOMAIN:
                    first = np.minimum(first, np.where(_DOMAIN[name][0](*x), 2 * out, _PASS))
                if name in _NONFINITE:
                    first = np.minimum(first, np.where(np.isfinite(v[out]), _PASS, 2 * out + 1))
                if name == "pow" and batch == _PASS and _negative_base(*x):
                    batch = 2 * out
                for slot in dead:
                    v[slot] = None
        return [v[o] for o in self.outputs], first, batch

    def _error(self, key: int) -> EvalError:
        slot, nonfinite = divmod(int(key), 2)
        name, args, pos = self._where[slot]
        if nonfinite:
            return EvalError("non-finite result", pos)
        if name in _DOMAIN:
            return EvalError(_DOMAIN[name][1], pos)
        return EvalError(f"{'tzyw'[args[0]]} not available in this context", pos)


def _with_releases(ops: list, keep: set) -> list:
    """Each op (out, name, fn, args) extended by ``dead``, the op slots whose
    last reader in ``ops`` it is, leaving out ``keep`` and the input slots."""
    last = {}
    for i, op in enumerate(ops):
        for a in op[-1]:
            last[a] = i
    dead = [[] for _ in ops]
    for slot, i in last.items():
        if slot > _W and slot not in keep:
            dead[i].append(slot)
    return [op + (tuple(d),) for op, d in zip(ops, dead)]


def _run(ops: list, v: list, rows: Optional[dict] = None, block=None) -> bool:
    """The fast run of ``ops`` over the slot values ``v``; with a ``block``, an
    op whose slot has a row in ``rows`` and whose value has a row's shape moves
    there."""
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        try:
            for out, name, fn, args, dead in ops:
                x = [v[a] for a in args]
                if name == "pow" and _negative_base(*x):
                    return False
                v[out] = fn(*x)
                if name in _LEAVES and not np.isfinite(v[out]).all():
                    return False
                if block is not None and out in rows and np.shape(v[out]) == block.shape[1:]:
                    block[rows[out]] = v[out]
                    v[out] = block[rows[out]]
                for slot in dead:
                    v[slot] = None
        except FloatingPointError:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference scanning (used for the triangular dependency rule and for
# restricting the own-row part of structured generators)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefSet:
    y_indices: frozenset
    z_indices: frozenset
    uses_normz: bool
    uses_normy: bool


def scan_refs(node: Node) -> RefSet:
    nodes, stack = [], [node]
    while stack:
        nodes.append(stack.pop())
        stack.extend(_children(nodes[-1]))
    kinds = {type(nd) for nd in nodes}
    return RefSet(frozenset(nd.index for nd in nodes if isinstance(nd, YVar)),
                  frozenset(nd.index for nd in nodes if isinstance(nd, ZRow)),
                  NormZ in kinds, NormY in kinds)


# ---------------------------------------------------------------------------
# Generator models
# ---------------------------------------------------------------------------

STRUCTURED = "structured"
TRIANGULAR = "triangular"


@dataclass(frozen=True)
class GeneratorModel:
    """Parsed per-component drivers.

    ``structured`` components split into an own-row part ``g[i]`` and a
    coupling part ``h[i]``; ``triangular`` components carry a single
    expression ``k[i]``.
    """

    kind: str
    n: int
    d: int
    g: Optional[tuple] = None
    h: Optional[tuple] = None
    k: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == STRUCTURED:
            if self.g is None or self.h is None or len(self.g) != self.n or len(self.h) != self.n:
                raise ValueError("structured generator needs n g- and h-expressions")
        elif self.kind == TRIANGULAR:
            if self.k is None or len(self.k) != self.n:
                raise ValueError("triangular generator needs n k-expressions")
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")


@dataclass(frozen=True)
class DepViolation:
    component: int  # 1-based
    name: str       # offending variable, e.g. "z3" or "normz"


def check_triangular_deps(gen: GeneratorModel) -> list[DepViolation]:
    """Scan a triangular generator for out-of-order references.

    Component i may reference only y1..yi and z rows 1..i; the
    whole-state accessors normy/normz count as referencing everything,
    so they are admissible only in the last component.
    """
    if gen.kind != TRIANGULAR:
        raise ValueError("not triangular")
    violations = []
    for i, expr in enumerate(gen.k, start=1):
        refs = scan_refs(expr.root)
        for j in sorted(refs.y_indices):
            if j > i:
                violations.append(DepViolation(i, f"y{j}"))
        for j in sorted(refs.z_indices):
            if j > i:
                violations.append(DepViolation(i, f"z{j}"))
        if i < gen.n:
            if refs.uses_normy:
                violations.append(DepViolation(i, "normy"))
            if refs.uses_normz:
                violations.append(DepViolation(i, "normz"))
    return violations
