"""Recursive-descent parser for the expression grammar.

Expressions:
    phi[0,0,1]        jet variable (index length = session dimension)
    phi               shorthand for the order-zero jet
    m, kappa          declared constant symbols
    U(phi), U'(phi)   function symbols; primes count derivative order
    d1(e) .. dn(e)    total derivatives
    laplacian(e)      sum of the second total derivatives
    i                 imaginary unit
    3, 1/2            rationals
    + - * ^ ( )       ring operations, natural powers up to MAX_EXPONENT,
                      expansions up to MAX_TERMS terms, nesting up to
                      MAX_DEPTH levels

Kernels:
    delta, d1 delta, d1^2 d2 delta, i*delta + 2*d1 delta, ...
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .jets import FieldExpr, mi_zero
from .kernels import Kernel
from .rationals import GRat, I, ONE

if TYPE_CHECKING:
    from .session import SessionConfig


class ParseError(ValueError):
    """Syntax or symbol-resolution failure; carries the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<sym>[-+*^/()\[\],])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The largest n accepted in e^n and in a kernel's d1^n.  A power is expanded
# by repeated multiplication, so without a bound a short input such as
# phi^99999 would run without end.
MAX_EXPONENT = 100

# The most terms a product, a power or a total derivative may expand to,
# bounded before it is formed: n*m for an n-term times an m-term factor,
# C(n+k-1, k) for the k-th power of an n-term sum, n times the most distinct
# atoms of a term for a total derivative of an n-term expression.  Under the
# exponent bound alone a short power of a long sum, such as
# (phi+pi+phi[1]+pi[1])^100, would still run without end, and so would
# nested total derivatives such as d1(d1(...d1(phi^40)...)).
MAX_TERMS = 10_000

# The deepest nesting of '(' accepted: grouping parentheses, d1(...),
# laplacian(...) and function arguments.  Each level recurses through the
# grammar's functions, so without a bound some 230 nested parentheses
# would exhaust Python's recursion limit.
MAX_DEPTH = 100

_DERIV = re.compile(r"^d([1-9][0-9]*)$")


def _natural(text: str, pos: int) -> int:
    """A digit string as an int; int() refuses one of more than Python's
    4,300-digit limit, and that is a parse error here."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("number is too long", pos) from None


class _Parser:
    """Reads only the session's system, constants and functions."""

    def __init__(self, text: str, cfg: SessionConfig):
        self.text = text
        self.cfg = cfg
        self.dim = cfg.system.dim
        self.tokens = _tokenize(text)
        self.i = 0
        _check_depth(self.tokens)

    # -- token plumbing -----------------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    # -- expression grammar -------------------------------------------------

    def parse_sum(self, term=None):
        """A signed sum of the terms ``term`` reads: products by default,
        kernel terms for a kernel."""
        term = term or self.parse_product
        negate = self.peek()[1] in ("+", "-") and self.next()[1] == "-"
        result = term()
        if negate:
            result = -result
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            right = term()
            result = result - right if op == "-" else result + right
        return result

    def parse_product(self) -> FieldExpr:
        result = self.parse_power()
        while self.peek()[1] == "*":
            pos = self.next()[2]
            factor = self.parse_power()
            _bound(len(result.terms) * len(factor.terms), pos)
            result = result * factor
        return result

    def parse_power(self) -> FieldExpr:
        base = self.parse_primary()
        if self.peek()[1] == "^":
            pos = self.next()[2]
            k = self.exponent()
            n = len(base.terms)
            _bound(comb(n + k - 1, k) if n else 0, pos)
            return base ** k
        return base

    def exponent(self) -> int:
        """The natural number after a '^', at most MAX_EXPONENT."""
        kind, text, pos = self.next()
        if kind != "num":
            raise ParseError("exponent must be a natural number", pos)
        # compare digit counts first: int() refuses very long digit strings
        if len(text.lstrip("0")) > len(str(MAX_EXPONENT)) \
                or int(text) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos)
        return int(text)

    def parse_primary(self) -> FieldExpr:
        kind, text, pos = self.next()
        dim = self.dim
        if text == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if kind == "num":
            value = Fraction(_natural(text, pos))
            if self.peek()[1] == "/":
                self.next()
                k2, t2, p2 = self.next()
                if k2 != "num":
                    raise ParseError("denominator must be a natural number", p2)
                den = _natural(t2, p2)
                if not den:
                    raise ParseError("denominator must be nonzero", p2)
                value /= den
            return FieldExpr.const(GRat(value), dim)
        if kind == "name":
            return self.parse_name(text, pos)
        raise ParseError(f"unexpected token {text!r}", pos)

    def parse_name(self, name: str, pos: int) -> FieldExpr:
        dim = self.dim
        if name == "i":
            return FieldExpr.const(I, dim)
        deriv = _DERIV.match(name)
        if deriv and self.peek()[1] == "(":
            direction = self.direction(deriv, pos)
            self.next()
            inner = self.parse_sum()
            self.expect(")")
            return _derivative(inner, direction, pos)
        if name == "laplacian" and self.peek()[1] == "(":
            self.next()
            inner = self.parse_sum()
            self.expect(")")
            result = FieldExpr.zero(dim)
            for direction in range(1, dim + 1):
                result = result + _derivative(
                    _derivative(inner, direction, pos), direction, pos)
            return result
        order = len(name) - len(name.rstrip("'"))
        base = name.rstrip("'")
        if base in self.cfg.functions or (order > 0 and self.peek()[1] == "("):
            if self.peek()[1] != "(":
                raise ParseError(f"function symbol {base!r} needs an argument", pos)
            self.next()
            k2, arg, p2 = self.next()
            if k2 != "name" or arg not in self.cfg.system.sort_names():
                raise ParseError(f"function argument must be a field sort, "
                                 f"found {arg!r}", p2)
            self.expect(")")
            vanishes = self.cfg.functions.get(base, True)
            return FieldExpr.function(base, arg, dim, order, vanishes)
        if order:
            raise ParseError(f"primes are only valid on function symbols", pos)
        if name in self.cfg.system.sort_names():
            if self.peek()[1] == "[":
                self.next()
                index = self.parse_index()
                return FieldExpr.jet(name, index, dim)
            return FieldExpr.jet(name, mi_zero(dim), dim)
        if name in self.cfg.constants:
            return FieldExpr.const_symbol(name, dim)
        raise ParseError(f"unknown symbol {name!r}", pos)

    def direction(self, deriv, pos: int) -> int:
        """The n of a matched ``d<n>`` name, refused beyond the dimension."""
        direction = _natural(deriv.group(1), pos)
        if not 1 <= direction <= self.dim:
            raise ParseError(f"derivative direction {direction} exceeds "
                             f"dimension {self.dim}", pos)
        return direction

    def parse_index(self):
        entries = []
        while True:
            kind, text, pos = self.next()
            if kind != "num":
                raise ParseError("multi-index entries must be naturals", pos)
            entries.append(_natural(text, pos))
            kind, text, pos = self.next()
            if text == "]":
                break
            if text != ",":
                raise ParseError("expected ',' or ']' in multi-index", pos)
        if len(entries) != self.dim:
            raise ParseError(f"multi-index length {len(entries)} != session "
                             f"dimension {self.dim}", pos)
        return tuple(entries)

    # -- kernel grammar -----------------------------------------------------

    def parse_kernel_term(self) -> Kernel:
        dim = self.dim
        coeff = ONE
        gamma = list(mi_zero(dim))
        while True:
            kind, text, pos = self.peek()
            deriv = _DERIV.match(text) if kind == "name" else None
            if deriv and self.tokens[self.i + 1][1] != "(":
                self.next()
                direction = self.direction(deriv, pos)
                power = 1
                if self.peek()[1] == "^":
                    self.next()
                    power = self.exponent()
                gamma[direction - 1] += power
                continue
            if text == "delta":
                self.next()
                return Kernel.derivative_delta(dim, tuple(gamma), coeff)
            if kind == "end":
                raise ParseError("kernel term must end in 'delta'", pos)
            # anything else is a scalar factor
            scalar = self.parse_power()
            value = _as_scalar(scalar, pos)
            coeff = coeff * value
            if self.peek()[1] == "*":
                self.next()


def _check_depth(tokens):
    """Refuse input nested deeper than MAX_DEPTH, before any recursion:
    the grammar recurses only after a '(' token."""
    depth = 0
    for _kind, text, pos in tokens:
        if text == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise ParseError(f"nesting exceeds {MAX_DEPTH} levels", pos)
        elif text == ")":
            depth -= 1


def _bound(terms: int, pos: int):
    """Refuse an expansion whose term-count bound exceeds MAX_TERMS."""
    if terms > MAX_TERMS:
        raise ParseError(f"expansion exceeds {MAX_TERMS} terms", pos)


def _derivative(expr: FieldExpr, direction: int, pos: int) -> FieldExpr:
    """A total derivative, refused when its term-count bound exceeds
    MAX_TERMS: each term gives at most one term per distinct atom."""
    atoms = max((len(set(mon)) for mon in expr.terms), default=0)
    _bound(len(expr.terms) * atoms, pos)
    return expr.total_derivative(direction)


def _as_scalar(expr: FieldExpr, pos: int) -> GRat:
    if expr.is_zero():
        return GRat(0)
    if set(expr.terms) != {()}:
        raise ParseError("kernel coefficients must be scalars", pos)
    return expr.terms[()]


def parse_expr(text: str, cfg: SessionConfig) -> FieldExpr:
    p = _Parser(text, cfg)
    result = p.parse_sum()
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    return result


def parse_kernel(text: str, cfg: SessionConfig) -> Kernel:
    p = _Parser(text, cfg)
    result = p.parse_sum(p.parse_kernel_term)
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    return result

