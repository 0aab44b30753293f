"""A tiny total expression language for defining nets.

Configs declare gauges, generalized numbers and coefficient families as text
expressions over the variables ``eps`` (the net parameter), ``n`` (the
coefficient index), ``rho`` (the value of the active gauge at ``eps``) and
``x`` (the argument of a function net).  The grammar is deliberately closed:
decimal literals, ``+ - * / ^`` with unary minus, and the functions ``log``,
``exp``, ``sqrt``, ``abs``, ``factorial``, ``floor``, ``min``, ``max``.

``^`` is right-associative and binds tighter than unary minus, so
``-x^2 == -(x^2)`` and ``2^-3`` parses.  Parsing round-trips through the
canonical printer: ``parse(print(parse(s)))`` equals ``parse(s)``.

Evaluation is one tree walk with two modes, sharing every domain guard.
``eval_mpf`` computes at a requested mantissa precision.  ``eval_exact``
returns a ``Fraction`` when the expression is rational in its inputs (no
``log``/``exp``/``sqrt``, integer exponents, results below the bigint
guards) and ``None`` otherwise.  ``evaluate`` gives the exact value when
there is one and the mpf value otherwise, so series algebra can stay exact;
coefficients in ``n`` alone, point nets and config tables use it.  Gauges,
grid points, function nets, hypernaturals and coefficients that vary with
the grid point stay in mpf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple, Union

import mpmath
from mpmath import mpf

from .numerics import Num, as_mpf, working_precision

VARIABLES = ("eps", "n", "rho", "x")
FUNCTIONS = ("log", "exp", "sqrt", "abs", "factorial", "floor", "min", "max")
#: Largest argument for which factorial stays an exact integer.
_EXACT_FACTORIAL_LIMIT = 10_000
#: Largest integer exponent the exact power path will expand.
_EXACT_POWER_LIMIT = 16_384
ARITY = {"log": 1, "exp": 1, "sqrt": 1, "abs": 1, "factorial": 1, "floor": 1,
         "min": 2, "max": 2}


class ParseError(Exception):
    """Syntax error with byte offset and the token set that was expected."""

    def __init__(self, offset: int, expected, message: str):
        self.offset = offset
        self.expected = tuple(expected)
        super().__init__("%s at offset %d (expected %s)"
                         % (message, offset, " | ".join(self.expected) or "?"))


class EvalError(Exception):
    """Domain error during evaluation, naming the offending subexpression."""

    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__("%s in %r" % (message, to_text(subexpr)))


@dataclass(frozen=True)
class Lit:
    text: str  # normalized decimal lexeme, reprinted verbatim

    def fraction(self) -> Fraction:
        return self._fraction

    @cached_property
    def _fraction(self) -> Fraction:
        """The exact value, parsed from ``text`` once per literal."""
        return _decimal_fraction(self.text)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: Tuple["Expr", ...]


Expr = Union[Lit, Var, Neg, Bin, Call]


def _decimal_fraction(text: str) -> Fraction:
    mantissa, _, exp = text.lower().partition("e")
    shift = int(exp) if exp else 0
    if "." in mantissa:
        whole, frac = mantissa.split(".")
        shift -= len(frac)
        mantissa = (whole or "0") + frac
    value = Fraction(int(mantissa))
    return value * Fraction(10) ** shift


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_OPS = "+-*/^(),"


def _tokenize(source: str):
    """Yield (kind, text, offset) triples; kinds: num, ident, op, end."""
    tokens = []
    i, size = 0, len(source)
    while i < size:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit() or (c == "." and i + 1 < size and source[i + 1].isdigit()):
            i += 1
            seen_dot = c == "."
            while i < size and (source[i].isdigit() or (source[i] == "." and not seen_dot)):
                seen_dot = seen_dot or source[i] == "."
                i += 1
            if i < size and source[i] in "eE":
                j = i + 1
                if j < size and source[j] in "+-":
                    j += 1
                if j < size and source[j].isdigit():
                    i = j + 1
                    while i < size and source[i].isdigit():
                        i += 1
            tokens.append(("num", source[start:i], start))
            continue
        if c.isalpha() or c == "_":
            i += 1
            while i < size and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("ident", source[start:i], start))
            continue
        if c in _OPS:
            tokens.append(("op", c, start))
            i += 1
            continue
        raise ParseError(start, ["number", "identifier", "operator"],
                         "unexpected character %r" % c)
    tokens.append(("end", "", size))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent; ^ right-assoc > unary minus > * / > + -)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        kind, value, offset = self.peek()
        if kind == "op" and value == text:
            return self.take()
        raise ParseError(offset, [repr(text)], "got %r" % (value or "end of input"))

    def parse_sum(self) -> Expr:
        node = self.parse_product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = Bin(value, node, self.parse_product())
            else:
                return node

    def parse_product(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = Bin(value, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            # exponent re-enters at unary level: right associativity + 2^-3
            return Bin("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, value, offset = self.take()
        if kind == "num":
            return Lit(_normalize_literal(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS:
                    raise ParseError(offset, FUNCTIONS, "unknown function %r" % value)
                self.take()
                args = [self.parse_sum()]
                while True:
                    k2, v2, o2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.take()
                        args.append(self.parse_sum())
                    elif k2 == "op" and v2 == ")":
                        self.take()
                        break
                    else:
                        raise ParseError(o2, ["','", "')'"], "got %r" % (v2 or "end of input"))
                if len(args) != ARITY[value]:
                    raise ParseError(offset, ["%d argument(s)" % ARITY[value]],
                                     "%s takes %d argument(s), got %d"
                                     % (value, ARITY[value], len(args)))
                return Call(value, tuple(args))
            if value not in VARIABLES:
                raise ParseError(offset, VARIABLES, "unknown variable %r" % value)
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        raise ParseError(offset, ["number", "identifier", "'('", "'-'"],
                         "got %r" % (value or "end of input"))


def _normalize_literal(text: str) -> str:
    kind = text.lower()
    if "e" not in kind and "." not in kind:
        return str(int(text))  # strips leading zeros
    return kind


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST; raises :class:`ParseError` on bad input."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_sum()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, ["end of input"], "trailing input %r" % value)
    return node


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_LEVEL_SUM, _LEVEL_PROD, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, (Lit, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return {"+": _LEVEL_SUM, "-": _LEVEL_SUM,
            "*": _LEVEL_PROD, "/": _LEVEL_PROD,
            "^": _LEVEL_POW}[node.op]


def _wrap(node: Expr, minimum: int) -> str:
    text = to_text(node)
    return "(" + text + ")" if _level(node) < minimum else text


def to_text(node: Expr) -> str:
    """Canonical rendering; ``parse(to_text(e))`` is structurally ``e``."""
    if isinstance(node, Lit):
        return node.text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return "%s(%s)" % (node.fn, ", ".join(to_text(a) for a in node.args))
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _LEVEL_UNARY)
    if node.op in "+-":
        return "%s %s %s" % (_wrap(node.left, _LEVEL_SUM), node.op,
                             _wrap(node.right, _LEVEL_PROD))
    if node.op in "*/":
        return "%s%s%s" % (_wrap(node.left, _LEVEL_PROD), node.op,
                           _wrap(node.right, _LEVEL_UNARY))
    # power: parenthesize any non-atomic exponent for readability
    return "%s^%s" % (_wrap(node.left, _LEVEL_ATOM),
                      _wrap(node.right, _LEVEL_ATOM))


def free_vars(node: Expr) -> frozenset:
    if isinstance(node, Lit):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return free_vars(node.arg)
    if isinstance(node, Bin):
        return free_vars(node.left) | free_vars(node.right)
    return frozenset().union(*(free_vars(a) for a in node.args)) if node.args else frozenset()


def substitute(node: Expr, name: str, replacement: Expr) -> Expr:
    """Structural substitution of a variable (used by coefficient shifts)."""
    if isinstance(node, Var):
        return replacement if node.name == name else node
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, name, replacement))
    if isinstance(node, Bin):
        return Bin(node.op, substitute(node.left, name, replacement),
                   substitute(node.right, name, replacement))
    if isinstance(node, Call):
        return Call(node.fn, tuple(substitute(a, name, replacement) for a in node.args))
    return node


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_bound(node: Expr, env: dict):
    missing = free_vars(node) - set(env)
    if missing:
        raise EvalError("unbound variable(s) %s" % ", ".join(sorted(missing)), node)


def eval_mpf(node: Expr, env: dict, bits: int) -> mpf:
    """Evaluate at ``bits`` of mantissa; env binds a subset of eps/n/rho/x."""
    _check_bound(node, env)
    with working_precision(bits):
        return _eval(node, env, bits)


def eval_exact(node: Expr, env: dict) -> Optional[Fraction]:
    """Exact evaluation over rationals; None when the value is not rational.

    Supports literals, + - * /, integer powers, factorial, abs, floor,
    min/max.  ``log``/``exp``/``sqrt``, fractional exponents, inexact inputs
    and results past the bigint guards return None.
    """
    _check_bound(node, env)
    try:
        return _eval(node, env, None)
    except _Inexact:
        return None


def evaluate(node: Expr, env: dict, bits: int) -> Num:
    """The exact value when it is rational, otherwise the mpf value."""
    exact = eval_exact(node, env)
    return exact if exact is not None else eval_mpf(node, env, bits)


class _Inexact(Exception):
    """Exact mode reached a value outside the rationals."""


def _floor(value, exact: bool):
    return Fraction(math.floor(value)) if exact else mpmath.floor(value)


def _eval(node: Expr, env: dict, bits: Optional[int]):
    """The one evaluation walk: exact over the rationals when ``bits`` is
    None, raising :class:`_Inexact` where a value leaves them, otherwise in
    mpf at ``bits``.  Every domain guard is shared by both modes."""
    exact = bits is None
    if isinstance(node, Lit):
        value = node.fraction()
        return value if exact else as_mpf(value, bits)
    if isinstance(node, Var):
        value = env[node.name]
        if not exact:
            return as_mpf(value, bits)
        if not isinstance(value, (int, Fraction)):
            raise _Inexact()
        return Fraction(value)
    if isinstance(node, Neg):
        return -_eval(node.arg, env, bits)
    if isinstance(node, Bin):
        left = _eval(node.left, env, bits)
        right = _eval(node.right, env, bits)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0:
                raise EvalError("division by zero", node)
            return left / right
        if exact and right.denominator != 1:
            raise _Inexact()
        if left == 0 and right < 0:
            raise EvalError("zero base with negative exponent", node)
        if exact:
            # huge exact powers would be megabyte bigints; defer to mpf
            if abs(right) > _EXACT_POWER_LIMIT and abs(left) not in (0, 1):
                raise _Inexact()
            return left ** int(right)
        if left < 0 and right != mpmath.floor(right):
            raise EvalError("negative base with non-integer exponent", node)
        return left ** right
    fn = node.fn
    if exact and fn in ("log", "exp", "sqrt"):
        raise _Inexact()
    args = [_eval(a, env, bits) for a in node.args]
    if fn == "log":
        if args[0] <= 0:
            raise EvalError("log of non-positive value", node)
        return mpmath.log(args[0])
    if fn == "exp":
        return mpmath.exp(args[0])
    if fn == "sqrt":
        if args[0] < 0:
            raise EvalError("sqrt of negative value", node)
        return mpmath.sqrt(args[0])
    if fn == "abs":
        return abs(args[0])
    if fn == "factorial":
        value = args[0]
        if value != _floor(value, exact):
            raise EvalError("factorial of non-integer", node)
        if value < 0:
            raise EvalError("factorial of negative integer", node)
        if value > _EXACT_FACTORIAL_LIMIT:
            if exact:
                raise _Inexact()  # defer huge factorials to the mpf path
            return mpmath.factorial(int(value))
        return (Fraction if exact else mpf)(math.factorial(int(value)))
    if fn == "floor":
        return _floor(args[0], exact)
    if fn == "min":
        return min(args)
    return max(args)
