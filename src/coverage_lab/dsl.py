"""Recursive-descent parser, printer and evaluator for analytic region
predicates.

Grammar (lowest to highest precedence)::

    expr       := or
    or         := and ("or" and)*
    and        := not ("and" not)*
    not        := "not" not | comparison
    comparison := sum (("<" | "<=" | ">" | ">=" | "==") sum)?
    sum        := term (("+" | "-") term)*
    term       := unary (("*" | "/") unary)*
    unary      := "-" unary | atom
    atom       := NUMBER | VAR | "true" | "false"
                | FUNC "(" expr ")" | "(" expr ")"

Variables are x1..xn. Functions: sin, cos, exp, abs (radians for trig).
Numeric literals must be finite. Comparisons appear only above arithmetic
subtrees; boolean operators only above comparisons. Arithmetic follows IEEE
semantics, but a point with a non-finite coordinate, and any non-finite
intermediate, raises EvalError instead of silently comparing.

One table, _LEVELS, lists the levels from "or" to unary minus. It drives
both the parser, which reads one level per step, and unparse, which
parenthesizes a child whose level is looser than its place needs.

A Predicate compiles its tree once, when it is made, into one tree of
closures, and each evaluation runs it with the divide, invalid and overflow
flags raising, whatever the caller's error state. A batch with a non-finite
coordinate raises EvalError before any closure runs. Literals are finite
and negation keeps a value finite, so on a finite batch the first
non-finite intermediate comes from arithmetic or a call on finite operands,
which raises one of those flags, and they are raised with nothing else.
The closures apply the same ufuncs to the same values as a node-by-node
walk of the tree, so results are bit-identical to it; tests/test_dsl.py
keeps that walk as the reference.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

from .errors import (ArityError, DimensionError, DimensionMismatch,
                     DslSyntaxError, DslTypeError, EvalError, UnknownIdentifier)

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

CMP_OPS = ("<=", ">=", "==", "<", ">")
BOOL_OPS = ("and", "or")


# --- AST -------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Num:
    value: float


@dataclasses.dataclass(frozen=True)
class Var:
    index: int  # 1-based: x1 .. xn


@dataclasses.dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclasses.dataclass(frozen=True)
class Arith:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclasses.dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclasses.dataclass(frozen=True)
class Cmp:
    op: str  # < <= > >= ==
    left: "Expr"
    right: "Expr"


@dataclasses.dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclasses.dataclass(frozen=True)
class BoolOp:
    op: str  # and | or
    left: "Expr"
    right: "Expr"


@dataclasses.dataclass(frozen=True)
class BoolLit:
    value: bool


Expr = Num | Var | Neg | Arith | Call | Cmp | Not | BoolOp | BoolLit


def is_boolean(e: Expr) -> bool:
    return isinstance(e, (Cmp, Not, BoolOp, BoolLit))


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|==|[<>+\-*/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise DslSyntaxError(f"unexpected character {text[off]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# --- parser ----------------------------------------------------------------

# One row per precedence level, loosest first: its operators, the node it
# builds, whether its operands are boolean, and its form. A "left" level
# chains its operator left-associatively, a "single" level applies it at
# most once, and a "prefix" level nests it. Atoms bind tighter than every
# level; the tightest level is a prefix one.
_LEVELS = (
    (("or",), BoolOp, True, "left"),
    (("and",), BoolOp, True, "left"),
    (("not",), Not, True, "prefix"),
    (CMP_OPS, Cmp, False, "single"),
    (("+", "-"), Arith, False, "left"),
    (("*", "/"), Arith, False, "left"),
    (("-",), Neg, False, "prefix"),
)
_ATOM = len(_LEVELS)


class _Parser:
    def __init__(self, text: str, dimension: int):
        if not text.strip():
            raise DslSyntaxError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.i = 0
        self.dimension = dimension

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise DslSyntaxError(f"expected {op!r}, got {val or 'end of input'!r}", off)
        return self.next()

    def parse(self) -> Expr:
        e = self.parse_level(0)
        kind, val, off = self.peek()
        if kind != "eof":
            raise DslSyntaxError(f"trailing input {val!r}", off)
        return e

    def parse_level(self, i: int) -> Expr:
        """An expression at precedence level i of _LEVELS or tighter. Each
        level costs one frame, so that nesting depth meets the recursion
        limit where one method per level would."""
        ops, node, boolean, form = _LEVELS[i]
        if form == "prefix":
            if not self._at(*ops):
                return self.parse_level(i + 1) if i + 1 < _ATOM else self.parse_atom()
            _, _, off = self.next()
            e = self.parse_level(i)
            self._require(boolean, off, e)
            return node(e)
        e = self.parse_level(i + 1)
        while self._at(*ops):
            _, op, off = self.next()
            r = self.parse_level(i + 1)
            self._require(boolean, off, e, r)
            e = node(op, e, r)
            if form == "single":
                break
        return e

    def parse_atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise DslSyntaxError(f"numeric literal {val} is not finite", off)
            return Num(value)
        if kind == "op" and val == "(":
            e = self.parse_level(0)
            self.expect_op(")")
            return e
        if kind == "name":
            if val == "true":
                return BoolLit(True)
            if val == "false":
                return BoolLit(False)
            if val in ("and", "or", "not"):
                raise DslSyntaxError(f"unexpected keyword {val!r}", off)
            if val in FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_level(0)]
                while self._at(","):
                    self.next()
                    args.append(self.parse_level(0))
                self.expect_op(")")
                if len(args) != 1:
                    raise ArityError(f"{val} takes 1 argument, got {len(args)}")
                self._require(False, off, args[0])
                return Call(val, args[0])
            m = re.fullmatch(r"x(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.dimension:
                    raise DimensionError(
                        f"variable x{idx} exceeds declared dimension {self.dimension}")
                return Var(idx)
            raise UnknownIdentifier(f"unknown identifier {val!r}")
        raise DslSyntaxError(f"unexpected token {val or 'end of input'!r}", off)

    def _at(self, *ops) -> bool:
        # no number, name or end of input is spelled like an operator or keyword
        return self.peek()[1] in ops

    @staticmethod
    def _require(boolean: bool, off: int, *operands):
        for e in operands:
            if is_boolean(e) != boolean:
                kind = "boolean" if boolean else "arithmetic"
                raise DslTypeError(f"{kind} operand expected (at byte {off})")


def parse(text: str, dimension: int) -> Expr:
    """Parse an expression over x1..x<dimension>."""
    return _Parser(text, dimension).parse()


# --- printer ---------------------------------------------------------------

def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> int:
    """The index in _LEVELS of the level that builds e; _ATOM for an atom."""
    for i, (ops, node, _, form) in enumerate(_LEVELS):
        if isinstance(e, node) and (form == "prefix" or e.op in ops):
            return i
    return _ATOM


def unparse(e: Expr) -> str:
    """Render e so that parse(unparse(e)) is structurally equal to e."""

    def wrap(child, minimum):
        s = unparse(child)
        return f"({s})" if _level(child) < minimum else s

    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Call):
        return f"{e.func}({unparse(e.arg)})"
    i = _level(e)
    if i == _ATOM:
        raise TypeError(f"not an expression node: {e!r}")
    ops, _, _, form = _LEVELS[i]
    if form != "prefix":
        # a left operand may share a "left" level; a right one, and both of
        # a "single" level, bind tighter
        return f"{wrap(e.left, i + (form == 'single'))} {e.op} {wrap(e.right, i + 1)}"
    inner = wrap(e.operand, i)
    if ops == ("not",):
        return f"not {inner}"
    # avoid "--x" gluing into one token stream ambiguity
    return f"-({inner})" if inner.startswith("-") else f"-{inner}"


# --- evaluation ------------------------------------------------------------

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "<": np.less, "<=": np.less_equal, ">": np.greater,
           ">=": np.greater_equal, "==": np.equal,
           "and": np.bitwise_and, "or": np.bitwise_or}
# The error state evaluation runs under, whatever the caller's: the flags
# that only a non-finite result raises stop it, and underflow, which leaves
# a finite value, is ignored.
_RAISE = {"divide": "raise", "invalid": "raise", "over": "raise", "under": "ignore"}


def _full(v):
    return lambda X: np.full(X.shape[0], v)


def _binary(op, l, r):
    """op on two compiled operands. A constant operand enters as a float64
    scalar; of two constants, the left one as a full array."""
    if not callable(l):
        if callable(r):
            return lambda X: op(l, r(X))
        l = _full(l)
    if callable(r):
        return lambda X: op(l(X), r(X))
    return lambda X: op(l(X), r)


def _compile(e: Expr):
    """Compile e into a closure from a batch X of shape (m, n) to an (m,)
    array. A numeric literal and its negations compile to their float64
    value, which enters arithmetic and comparisons as a scalar (IEEE rounding
    makes that bit-identical to a full array) and calls as a full array.
    The closures check nothing: Predicate runs them under _RAISE."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        i = e.index - 1
        return lambda X: X[:, i]
    if isinstance(e, BoolLit):
        return _full(e.value)
    if isinstance(e, Neg):
        f = _compile(e.operand)
        return (lambda X: -f(X)) if callable(f) else -f
    if isinstance(e, Not):
        f = _compile(e.operand)
        return lambda X: ~f(X)
    if isinstance(e, Call):
        func, f = FUNCTIONS[e.func], _compile(e.arg)
        if not callable(f):
            f = _full(f)
        return lambda X: func(f(X))
    if isinstance(e, (Arith, Cmp, BoolOp)):
        return _binary(_BINARY[e.op], _compile(e.left), _compile(e.right))
    raise TypeError(f"not an expression node: {e!r}")


@dataclasses.dataclass(frozen=True)
class Predicate:
    """A boolean-rooted expression over points in R^dimension. Evaluation
    raises EvalError on a point with a non-finite coordinate and where an
    intermediate value is not finite."""

    expr: Expr
    dimension: int
    _compiled: object = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not is_boolean(self.expr):
            raise DslTypeError("predicate root must be a boolean expression")
        object.__setattr__(self, "_compiled", _compile(self.expr))

    def _run(self, X: np.ndarray) -> np.ndarray:
        if not np.isfinite(X).all():
            raise EvalError("point has a non-finite coordinate (NaN or Inf)")
        try:
            with np.errstate(**_RAISE):
                return self._compiled(X)
        except FloatingPointError:
            raise EvalError("non-finite intermediate value (NaN or Inf)") from None

    def evaluate(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"point has dimension {x.shape}, predicate expects {self.dimension}")
        return bool(self._run(x[None, :])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"batch has shape {X.shape}, predicate expects (m, {self.dimension})")
        return self._run(X)

    @property
    def source(self) -> str:
        return unparse(self.expr)
