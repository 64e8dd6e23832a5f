"""Unit tests for the predicate expression language."""

import numpy as np
import pytest

from coverage_lab import dsl
from coverage_lab.errors import (ArityError, DimensionError, DimensionMismatch,
                                 DslSyntaxError, DslTypeError, EvalError,
                                 UnknownIdentifier)


def parse2(text):
    return dsl.parse(text, 2)


# --- parsing ----------------------------------------------------------------

def test_parse_simple_comparison():
    e = parse2("x1 < 3")
    assert e == dsl.Cmp("<", dsl.Var(1), dsl.Num(3.0))


def test_parse_precedence_arith():
    e = parse2("1 + 2 * x1 < 7")
    assert e == dsl.Cmp("<", dsl.Arith("+", dsl.Num(1.0),
                                       dsl.Arith("*", dsl.Num(2.0), dsl.Var(1))),
                        dsl.Num(7.0))


def test_parse_precedence_bool():
    e = parse2("x1 < 1 or x1 > 2 and x2 < 0")
    assert isinstance(e, dsl.BoolOp) and e.op == "or"
    assert isinstance(e.right, dsl.BoolOp) and e.right.op == "and"


def test_parse_not_binds_tighter_than_and():
    e = parse2("not x1 < 1 and x2 < 0")
    assert isinstance(e, dsl.BoolOp) and e.op == "and"
    assert isinstance(e.left, dsl.Not)


def test_parse_functions_and_unary_minus():
    e = parse2("-sin(x1) <= abs(x2)")
    assert e == dsl.Cmp("<=", dsl.Neg(dsl.Call("sin", dsl.Var(1))),
                        dsl.Call("abs", dsl.Var(2)))


def test_parse_bool_literals():
    assert parse2("true") == dsl.BoolLit(True)
    assert parse2("false") == dsl.BoolLit(False)


def test_parse_errors():
    with pytest.raises(DslSyntaxError):
        parse2("x1 < ")
    with pytest.raises(DslSyntaxError):
        parse2("")
    with pytest.raises(DslSyntaxError):
        parse2("x1 < 1 $")
    with pytest.raises(DslSyntaxError):
        parse2("(x1 < 1")
    with pytest.raises(UnknownIdentifier):
        parse2("y < 1")
    with pytest.raises(DimensionError):
        parse2("x3 < 1")
    with pytest.raises(ArityError):
        parse2("sin(x1, x2) < 1")


def test_parse_error_carries_offset():
    with pytest.raises(DslSyntaxError) as exc:
        parse2("x1 < 1 ^ 2")
    assert exc.value.offset == 7
    assert "byte 7" in str(exc.value)


def test_type_errors():
    with pytest.raises(DslTypeError):
        parse2("x1 + (x2 < 1) < 2")  # boolean used arithmetically
    with pytest.raises(DslTypeError):
        parse2("x1 and x2 < 1")  # numeric used as boolean
    with pytest.raises(DslTypeError):
        parse2("not x1 < 1 + true")


def test_predicate_requires_boolean_root():
    with pytest.raises(DslTypeError):
        dsl.Predicate(dsl.Arith("+", dsl.Var(1), dsl.Num(1.0)), 2)


# --- evaluation -------------------------------------------------------------

def test_evaluate_scalar_and_batch_agree():
    p = dsl.Predicate(parse2("10 * sin(0.1 * x1) < x2"), 2)
    rng = np.random.default_rng(3)
    X = rng.uniform(-20, 20, (300, 2))
    batch = p.evaluate_many(X)
    assert all(batch[i] == p.evaluate(X[i]) for i in range(len(X)))


def test_evaluate_matches_numpy_reference():
    p = dsl.Predicate(parse2("exp(x1 / 4) - abs(x2) >= 1"), 2)
    X = np.array([[0.0, 0.0], [4.0, 1.5], [4.0, 1.8], [-8.0, 0.0]])
    want = np.exp(X[:, 0] / 4) - np.abs(X[:, 1]) >= 1
    assert np.array_equal(p.evaluate_many(X), want)


def test_evaluate_dimension_checks():
    p = dsl.Predicate(parse2("x1 < x2"), 2)
    with pytest.raises(DimensionMismatch):
        p.evaluate([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        p.evaluate_many(np.zeros((4, 3)))


def test_evaluate_nonfinite_raises():
    p = dsl.Predicate(dsl.parse("1 / x1 < 1", 1), 1)
    with pytest.raises(EvalError):
        p.evaluate([0.0])
    q = dsl.Predicate(dsl.parse("exp(x1) < 1", 1), 1)
    with pytest.raises(EvalError):
        q.evaluate([1e6])


def test_constant_predicates_have_batch_shape():
    X = np.random.default_rng(1).normal(size=(5, 2))
    for text, want in (("1 < 2", True), ("true", True), ("not (2 * 3 > 7)", True),
                       ("false or 1 > 2", False)):
        p = dsl.Predicate(parse2(text), 2)
        got = p.evaluate_many(X)
        assert got.dtype == bool and got.shape == (5,) and bool(got.all()) is want
        assert p.evaluate_many(X[:0]).shape == (0,)
        assert p.evaluate(X[0]) is want


def test_parse_rejects_nonfinite_literal():
    for text, offset in (("x1 < 1e999", 5), ("1e309 > x1", 0),
                         ("x1 < 2 * 9e400", 9)):
        with pytest.raises(DslSyntaxError) as exc:
            parse2(text)
        assert exc.value.offset == offset and "not finite" in str(exc.value)
    assert parse2("x1 < 1e308") == dsl.Cmp("<", dsl.Var(1), dsl.Num(1e308))


# --- compiled evaluation against a tree walk --------------------------------

def _walk(e, X):
    """Reference evaluator: one numpy operation per node, constants as full
    arrays, and a finite check after every arithmetic node and call."""
    if isinstance(e, dsl.Num):
        return np.full(X.shape[0], e.value)
    if isinstance(e, dsl.Var):
        return X[:, e.index - 1]
    if isinstance(e, dsl.BoolLit):
        return np.full(X.shape[0], e.value, dtype=bool)
    if isinstance(e, dsl.Neg):
        return -_walk(e.operand, X)
    if isinstance(e, dsl.Call):
        with np.errstate(over="ignore", invalid="ignore"):
            v = dsl.FUNCTIONS[e.func](_walk(e.arg, X))
        _walk_check_finite(v)
        return v
    if isinstance(e, dsl.Arith):
        l = _walk(e.left, X)
        r = _walk(e.right, X)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if e.op == "+":
                v = l + r
            elif e.op == "-":
                v = l - r
            elif e.op == "*":
                v = l * r
            else:
                v = l / r
        _walk_check_finite(v)
        return v
    if isinstance(e, dsl.Cmp):
        l = _walk(e.left, X)
        r = _walk(e.right, X)
        if e.op == "<":
            return l < r
        if e.op == "<=":
            return l <= r
        if e.op == ">":
            return l > r
        if e.op == ">=":
            return l >= r
        return l == r
    if isinstance(e, dsl.Not):
        return ~_walk(e.operand, X)
    if isinstance(e, dsl.BoolOp):
        l = _walk(e.left, X)
        r = _walk(e.right, X)
        return (l & r) if e.op == "and" else (l | r)
    raise TypeError(f"not an expression node: {e!r}")


def _walk_check_finite(v):
    if not np.all(np.isfinite(v)):
        raise EvalError("non-finite intermediate value (NaN or Inf)")


def _outcome(f, *args):
    try:
        return f(*args)
    except EvalError:
        return EvalError


_LITERALS = (0.0, 0.1, 1.0, 3.0, 10.0, 800.0, 1e300)


def _eval_num_expr(rng, depth, variables=True):
    if depth <= 0 or rng.random() < 0.25:
        if not variables or rng.random() < 0.4:
            return dsl.Num(float(rng.choice(_LITERALS)))
        return dsl.Var(int(rng.integers(1, 4)))
    roll = rng.random()
    if variables and roll < 0.15:
        return _eval_num_expr(rng, depth, variables=False)
    if roll < 0.6:
        return dsl.Arith(str(rng.choice(["+", "-", "*", "/"])),
                         _eval_num_expr(rng, depth - 1, variables),
                         _eval_num_expr(rng, depth - 1, variables))
    if roll < 0.75:
        return dsl.Neg(_eval_num_expr(rng, depth - 1, variables))
    return dsl.Call(str(rng.choice(["sin", "cos", "exp", "abs"])),
                    _eval_num_expr(rng, depth - 1, variables))


def _eval_bool_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.1:
            return dsl.BoolLit(bool(rng.random() < 0.5))
        return dsl.Cmp(str(rng.choice(["<", "<=", ">", ">=", "=="])),
                       _eval_num_expr(rng, 3), _eval_num_expr(rng, 3))
    if rng.random() < 0.3:
        return dsl.Not(_eval_bool_expr(rng, depth - 1))
    return dsl.BoolOp(str(rng.choice(["and", "or"])),
                      _eval_bool_expr(rng, depth - 1), _eval_bool_expr(rng, depth - 1))


def _eval_batches(rng):
    """Batches of 3-D points: tame ones, and ones with zeros (x/0, 0/0),
    large values (overflow in exp and in products), and inf and NaN."""
    tame = rng.normal(0, 2, (12, 3))
    zeros = np.where(rng.random((12, 3)) < 0.4, 0.0, tame)
    large = np.where(rng.random((12, 3)) < 0.3,
                     rng.choice([-1e300, -800.0, 800.0, 1e300], (12, 3)), tame)
    special = np.where(rng.random((12, 3)) < 0.15,
                       rng.choice([-np.inf, np.inf, np.nan], (12, 3)), tame)
    return tame, zeros, large, special


def _constant(e):
    return isinstance(e, dsl.Num) or (isinstance(e, dsl.Neg) and _constant(e.operand))


def _nodes(e):
    yield e
    for child in ("operand", "arg", "left", "right"):
        if hasattr(e, child):
            yield from _nodes(getattr(e, child))


def test_compiled_evaluation_matches_tree_walk():
    rng = np.random.default_rng(6)
    fixed = ["1 / exp(x1) < 1", "exp(x1) * 0 < 1", "x1 / x1 == 1", "0 / 0 < x1",
             "1e300 * 1e300 > x1", "exp(800) > x1", "sin(1 / 0) < 2",
             "-(x1 - x1) / 0 <= -x2", "abs(x2) / abs(x3) >= 0 or not x1 < 1e300"]
    trees = [dsl.parse(t, 3) for t in fixed]
    trees += [_eval_bool_expr(rng, 3) for _ in range(600)]
    seen, raised, answered = set(), 0, 0
    for e in trees:
        for node in _nodes(e):
            seen.add((type(node).__name__, getattr(node, "op", getattr(node, "func", None))))
            if isinstance(node, (dsl.Arith, dsl.Cmp)) and _constant(node.left) \
                    and _constant(node.right):
                seen.add(("constant operands", type(node).__name__))
            if isinstance(node, dsl.Call) and _constant(node.arg):
                seen.add(("constant argument", "Call"))
        p = dsl.Predicate(e, 3)
        for X in _eval_batches(rng):
            want, got = _outcome(_walk, e, X), _outcome(p.evaluate_many, X)
            if want is EvalError:
                raised += 1
                assert got is EvalError, dsl.unparse(e)
                continue
            answered += 1
            assert isinstance(got, np.ndarray) and got.dtype == bool, dsl.unparse(e)
            assert got.shape == (X.shape[0],) and np.array_equal(got, want), dsl.unparse(e)
            one = _outcome(_walk, e, X[:1])
            assert _outcome(p.evaluate, X[0]) == (one if one is EvalError else bool(one[0]))
    kinds = {("Num", None), ("Var", None), ("Neg", None), ("Not", None),
             ("BoolLit", None), ("constant argument", "Call"),
             ("constant operands", "Arith"), ("constant operands", "Cmp")}
    kinds |= {("Arith", op) for op in "+-*/"} | {("Call", f) for f in dsl.FUNCTIONS}
    kinds |= {("Cmp", op) for op in dsl.CMP_OPS} | {("BoolOp", op) for op in dsl.BOOL_OPS}
    assert kinds <= seen, kinds - seen
    assert raised >= 200 and answered >= 1000, (raised, answered)


# --- unparse round-trip -----------------------------------------------------

def _random_num_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            # literals are nonnegative: a leading minus parses as Neg(Num)
            return dsl.Num(float(np.round(rng.uniform(0, 9), 3)))
        return dsl.Var(int(rng.integers(1, 4)))
    roll = rng.random()
    if roll < 0.55:
        return dsl.Arith(str(rng.choice(["+", "-", "*", "/"])),
                         _random_num_expr(rng, depth - 1),
                         _random_num_expr(rng, depth - 1))
    if roll < 0.8:
        return dsl.Neg(_random_num_expr(rng, depth - 1))
    return dsl.Call(str(rng.choice(["sin", "cos", "exp", "abs"])),
                    _random_num_expr(rng, depth - 1))


def _random_bool_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.1:
            return dsl.BoolLit(bool(rng.random() < 0.5))
        return dsl.Cmp(str(rng.choice(["<", "<=", ">", ">=", "=="])),
                       _random_num_expr(rng, 2), _random_num_expr(rng, 2))
    roll = rng.random()
    if roll < 0.3:
        return dsl.Not(_random_bool_expr(rng, depth - 1))
    return dsl.BoolOp(str(rng.choice(["and", "or"])),
                      _random_bool_expr(rng, depth - 1),
                      _random_bool_expr(rng, depth - 1))


def test_unparse_parse_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        e = _random_bool_expr(rng, 3)
        text = dsl.unparse(e)
        again = dsl.parse(text, 3)
        assert again == e, f"round trip broke on: {text}"


def test_unparse_known_forms():
    cases = ["x1 < 3", "-x1 <= x2", "x1 * (x2 + 1) > 0",
             "not (x1 < 1 or x2 < 1)", "sin(x1 + x2) == 0"]
    for text in cases:
        e = dsl.parse(text, 2)
        assert dsl.parse(dsl.unparse(e), 2) == e
