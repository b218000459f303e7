"""Parsing and evaluation of the analytic expression language.

The language covers the closed forms used for curves and marching-scale
functions: real literals, the constant ``pi``, named variables, the
operators ``+ - * / ^`` and a fixed set of functions.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'? power
    power  := atom ('^' power)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-q^2``
reads as ``-(q^2)``.  Parsed trees are immutable and evaluation is pure, so
expressions can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from .jets import FUNCTIONS, MATH_ERRORS, ArrayRules, Jet3, ScalarRules

Node = Union["Num", "Const", "Var", "Neg", "BinOp", "Call"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Call:
    func: str
    arg: Node


@dataclass(frozen=True)
class Expression:
    """A parsed expression tree plus the set of variables it references."""

    root: Node
    free_vars: frozenset[str]


CONSTANTS = {"pi": math.pi}


# -- lexer / parser ----------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(source, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allowed_vars: frozenset[str]):
        self._tokens = tokens
        self._i = 0
        self._allowed = allowed_vars
        self.seen_vars: set[str] = set()

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "end":
            self._i += 1
        return tok

    def _match_op(self, chars: str) -> _Token | None:
        tok = self._peek()
        if tok.kind == "op" and tok.text in chars:
            return self._advance()
        return None

    def parse(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            tok = self._match_op("+-")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self._term())

    def _term(self) -> Node:
        node = self._factor()
        while True:
            tok = self._match_op("*/")
            if tok is None:
                return node
            node = BinOp(tok.text, node, self._factor())

    def _factor(self) -> Node:
        if self._match_op("-"):
            return Neg(self._power())
        return self._power()

    def _power(self) -> Node:
        node = self._atom()
        if self._match_op("^"):
            return BinOp("^", node, self._power())
        return node

    def _atom(self) -> Node:
        tok = self._advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.pos)
                self._advance()
                arg = self._expr()
                if self._match_op(")") is None:
                    raise ParseError("expected ')'", self._peek().pos)
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if tok.text not in self._allowed:
                raise UnknownVariableError(tok.text, tok.pos)
            self.seen_vars.add(tok.text)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            if self._match_op(")") is None:
                raise ParseError("expected ')'", self._peek().pos)
            return node
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a number, name, or '(', got {got}", tok.pos)


def parse_expression(source: str, allowed_vars=()) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Variables must come from ``allowed_vars``; anything else raises
    :class:`UnknownVariableError`.  Parsing is deterministic and
    ``parse(format(parse(s)))`` is structurally identical to ``parse(s)``.
    """
    parser = _Parser(_lex(source), frozenset(allowed_vars))
    root = parser.parse()
    return Expression(root=root, free_vars=frozenset(parser.seen_vars))


# -- printing ----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt(node: Node) -> str:
    if isinstance(node, Num):
        return _format_number(node.value)
    if isinstance(node, (Const, Var)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg)})"
    if isinstance(node, Neg):
        inner = _fmt(node.operand)
        if _precedence(node.operand) < _PREC_POW:
            return f"-({inner})"
        return f"-{inner}"
    assert isinstance(node, BinOp)
    lp, rp = _precedence(node.left), _precedence(node.right)
    left, right = _fmt(node.left), _fmt(node.right)
    if node.op == "^":
        # Left operand of ^ must be an atom; the right side may chain ^ but
        # not start with unary minus.
        if lp < _PREC_ATOM:
            left = f"({left})"
        if rp < _PREC_POW:
            right = f"({right})"
    else:
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        if lp < prec:
            left = f"({left})"
        if rp <= prec:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def format_expression(expr: Expression | Node) -> str:
    """Render an expression to source text that re-parses to an identical tree."""
    node = expr.root if isinstance(expr, Expression) else expr
    return _fmt(node)


def number_node(value: float) -> Node:
    """Literal node for ``value``; negatives become ``Neg`` so the printed
    form re-parses to the same tree."""
    if value < 0:
        return Neg(Num(-float(value)))
    return Num(float(value))


# -- evaluation --------------------------------------------------------------


def _eval(node: Node, active: str | None, point, fixed, rules) -> Jet3:
    """Jet of ``node`` in the variable ``active`` at ``point``; other
    variables come from ``fixed`` (a mapping or None) as reals or jets.
    ``rules`` gives the variable, division, power and function rules:
    :class:`ScalarRules` raise, an :class:`ArrayRules` masks the failing
    points of an array ``point``.  With ``active=None`` every jet is
    constant."""
    kind = type(node)
    if kind is Num:
        return Jet3(node.value)
    if kind is Var:
        if node.name == active:
            return rules.variable(point)
        try:
            value = fixed[node.name]
        except (KeyError, TypeError):  # TypeError: no bindings (None)
            raise UnknownVariableError(node.name) from None
        return value if isinstance(value, Jet3) else Jet3(float(value))
    if kind is BinOp:
        left = _eval(node.left, active, point, fixed, rules)
        right = _eval(node.right, active, point, fixed, rules)
    elif kind is Call:
        arg = _eval(node.arg, active, point, fixed, rules)
    elif kind is Neg:
        return -_eval(node.operand, active, point, fixed, rules)
    else:
        return Jet3(CONSTANTS[node.name])
    try:
        if kind is Call:
            return rules.call(node.func, arg)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return rules.div(left, right)
        return rules.pow(left, right)
    except DomainError as e:
        if e.where is None:
            e.where = _fmt(node)
        raise
    except MATH_ERRORS as e:
        raise DomainError(str(e), _fmt(node)) from None


def evaluate(expr: Expression, bindings=None) -> float:
    """Real value of ``expr``; every free variable must be bound."""
    return _eval(expr.root, None, 0.0, bindings, ScalarRules).v0


def evaluate_jet3(expr: Expression, active_var: str, point, fixed=None):
    """Value and first three derivatives with respect to ``active_var`` at ``point``.

    Other free variables are looked up in ``fixed`` (reals or jets).  The
    result carries no truncation error beyond floating point.

    With a 1-D array of points the result is ``(jet, ok)``: the jet fields
    are arrays over the points, and ``ok`` is False where the scalar call
    would raise a :class:`DomainError` (its fields are NaN there).  Every
    other entry equals the scalar call at that point bit for bit.
    """
    if type(point) is float or not isinstance(point, np.ndarray):
        return _eval(expr.root, active_var, point, fixed, ScalarRules)
    points = point.astype(float)
    rules = ArrayRules(points.size)
    with np.errstate(all="ignore"):
        jet = _eval(expr.root, active_var, points, fixed, rules)
    bad = rules.bad
    return Jet3(*(np.where(bad, math.nan, v) for v in (jet.v0, jet.v1, jet.v2, jet.v3))), ~bad
