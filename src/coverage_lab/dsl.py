"""Recursive-descent parser and evaluator for analytic region predicates.

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
Comparisons appear only above arithmetic subtrees; boolean operators only
above comparisons. Arithmetic follows IEEE semantics, but any non-finite
intermediate raises EvalError instead of silently comparing.
"""

from __future__ import annotations

import dataclasses
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
        e = self.parse_or()
        kind, val, off = self.peek()
        if kind != "eof":
            raise DslSyntaxError(f"trailing input {val!r}", off)
        return e

    def parse_or(self) -> Expr:
        e = self.parse_and()
        while self._at_name("or"):
            _, _, off = self.next()
            r = self.parse_and()
            self._require_bool(e, off)
            self._require_bool(r, off)
            e = BoolOp("or", e, r)
        return e

    def parse_and(self) -> Expr:
        e = self.parse_not()
        while self._at_name("and"):
            _, _, off = self.next()
            r = self.parse_not()
            self._require_bool(e, off)
            self._require_bool(r, off)
            e = BoolOp("and", e, r)
        return e

    def parse_not(self) -> Expr:
        if self._at_name("not"):
            _, _, off = self.next()
            e = self.parse_not()
            self._require_bool(e, off)
            return Not(e)
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        e = self.parse_sum()
        kind, val, off = self.peek()
        if kind == "op" and val in CMP_OPS:
            self.next()
            r = self.parse_sum()
            self._require_num(e, off)
            self._require_num(r, off)
            return Cmp(val, e, r)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.next()
                r = self.parse_term()
                self._require_num(e, off)
                self._require_num(r, off)
                e = Arith(val, e, r)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.next()
                r = self.parse_unary()
                self._require_num(e, off)
                self._require_num(r, off)
                e = Arith(val, e, r)
            else:
                return e

    def parse_unary(self) -> Expr:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            e = self.parse_unary()
            self._require_num(e, off)
            return Neg(e)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "op" and val == "(":
            e = self.parse_or()
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
                args = [self.parse_or()]
                while self._at_op(","):
                    self.next()
                    args.append(self.parse_or())
                self.expect_op(")")
                if len(args) != 1:
                    raise ArityError(f"{val} takes 1 argument, got {len(args)}")
                self._require_num(args[0], off)
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

    def _at_name(self, name):
        kind, val, _ = self.peek()
        return kind == "name" and val == name

    def _at_op(self, op):
        kind, val, _ = self.peek()
        return kind == "op" and val == op

    @staticmethod
    def _require_bool(e, off):
        if not is_boolean(e):
            raise DslTypeError(f"boolean operand expected (at byte {off})")

    @staticmethod
    def _require_num(e, off):
        if is_boolean(e):
            raise DslTypeError(f"arithmetic operand expected (at byte {off})")


def parse(text: str, dimension: int) -> Expr:
    """Parse an expression over x1..x<dimension>."""
    return _Parser(text, dimension).parse()


# --- printer ---------------------------------------------------------------

_LEVEL = {"or": 1, "and": 2, "not": 3, "cmp": 4, "add": 5, "mul": 6, "neg": 7, "atom": 8}


def _level(e: Expr) -> int:
    if isinstance(e, BoolOp):
        return _LEVEL[e.op]
    if isinstance(e, Not):
        return _LEVEL["not"]
    if isinstance(e, Cmp):
        return _LEVEL["cmp"]
    if isinstance(e, Arith):
        return _LEVEL["add"] if e.op in "+-" else _LEVEL["mul"]
    if isinstance(e, Neg):
        return _LEVEL["neg"]
    return _LEVEL["atom"]


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


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
    if isinstance(e, Neg):
        inner = unparse(e.operand)
        if _level(e.operand) < _LEVEL["neg"]:
            inner = f"({inner})"
        # avoid "--x" gluing into one token stream ambiguity
        return f"-{inner}" if not inner.startswith("-") else f"-({unparse(e.operand)})"
    if isinstance(e, Call):
        return f"{e.func}({unparse(e.arg)})"
    if isinstance(e, Arith):
        lvl = _level(e)
        return f"{wrap(e.left, lvl)} {e.op} {wrap(e.right, lvl + 1)}"
    if isinstance(e, Cmp):
        lvl = _LEVEL["cmp"]
        return f"{wrap(e.left, lvl + 1)} {e.op} {wrap(e.right, lvl + 1)}"
    if isinstance(e, Not):
        return f"not {wrap(e.operand, _LEVEL['not'])}"
    if isinstance(e, BoolOp):
        lvl = _level(e)
        return f"{wrap(e.left, lvl)} {e.op} {wrap(e.right, lvl + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation ------------------------------------------------------------

def _eval(e: Expr, X: np.ndarray):
    """Evaluate over a batch of points X with shape (m, n).

    Numeric nodes yield float arrays of shape (m,), boolean nodes bool
    arrays. Non-finite arithmetic intermediates raise EvalError.
    """
    if isinstance(e, Num):
        return np.full(X.shape[0], e.value)
    if isinstance(e, Var):
        return X[:, e.index - 1]
    if isinstance(e, BoolLit):
        return np.full(X.shape[0], e.value, dtype=bool)
    if isinstance(e, Neg):
        return -_eval(e.operand, X)
    if isinstance(e, Call):
        with np.errstate(over="ignore", invalid="ignore"):
            v = FUNCTIONS[e.func](_eval(e.arg, X))
        _check_finite(v)
        return v
    if isinstance(e, Arith):
        l = _eval(e.left, X)
        r = _eval(e.right, X)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if e.op == "+":
                v = l + r
            elif e.op == "-":
                v = l - r
            elif e.op == "*":
                v = l * r
            else:
                v = l / r
        _check_finite(v)
        return v
    if isinstance(e, Cmp):
        l = _eval(e.left, X)
        r = _eval(e.right, X)
        if e.op == "<":
            return l < r
        if e.op == "<=":
            return l <= r
        if e.op == ">":
            return l > r
        if e.op == ">=":
            return l >= r
        return l == r
    if isinstance(e, Not):
        return ~_eval(e.operand, X)
    if isinstance(e, BoolOp):
        l = _eval(e.left, X)
        r = _eval(e.right, X)
        return (l & r) if e.op == "and" else (l | r)
    raise TypeError(f"not an expression node: {e!r}")


def _check_finite(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise EvalError("non-finite intermediate value (NaN or Inf)")


@dataclasses.dataclass(frozen=True)
class Predicate:
    """A boolean-rooted expression over points in R^dimension."""

    expr: Expr
    dimension: int

    def __post_init__(self):
        if not is_boolean(self.expr):
            raise DslTypeError("predicate root must be a boolean expression")

    def evaluate(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"point has dimension {x.shape}, predicate expects {self.dimension}")
        return bool(_eval(self.expr, x[None, :])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"batch has shape {X.shape}, predicate expects (m, {self.dimension})")
        return _eval(self.expr, X)

    @property
    def source(self) -> str:
        return unparse(self.expr)
