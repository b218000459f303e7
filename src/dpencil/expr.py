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
reads as ``-(q^2)``.  Operators and function calls may nest at most
:data:`MAX_DEPTH` deep, and parentheses too; deeper input is a
:class:`ParseError`, so every accepted expression parses, evaluates and
prints within Python's default recursion limit.

Every largest variable-free subtree of two or more nodes is evaluated once,
when the :class:`Expression` is built, and the walk evaluates that folded
tree (constant folding, as in Aho, Lam, Sethi & Ullman, *Compilers*).  A
subtree whose evaluation raises is kept as it is, so it raises with the same
message at every evaluation.  Parsed and folded trees are immutable,
evaluation reads the folded jets without copying them (jets are never
mutated in place) and is pure, so expressions can be shared freely between
threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from .jets import FUNCTIONS, MATH_ERRORS, ArrayRules, Jet3, ScalarRules

Node = Union["Num", "Const", "Var", "Neg", "BinOp", "Call", "Folded"]

MAX_DEPTH = 100
"""Deepest nesting of operators and calls, and of parentheses, accepted by
the parser: well within the default recursion limit of the walks (one frame
per level) and of the parser (five frames per parenthesis)."""


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
class Folded:
    """A variable-free subtree ``node`` together with its jet."""

    jet: Jet3
    node: Node


@dataclass(frozen=True)
class Expression:
    """A parsed expression tree plus the set of variables it references.

    ``folded`` is ``root`` with its variable-free subtrees folded; it is
    what evaluation walks.  Printing, equality and hashing use ``root``.
    """

    root: Node
    free_vars: frozenset[str]
    folded: Node = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        folded = _fold(self.root)
        object.__setattr__(self, "folded", _fold_constant(self.root) if folded is None else folded)


CONSTANTS = {"pi": math.pi}


# -- lexer / parser ----------------------------------------------------------

# One alternative per token kind, tried in this order: number, name,
# operator, and any other non-space character (an error).  Whitespace
# matches none of them and is skipped.
_TOKEN_RE = re.compile(
    r"(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|([-+*/^()])"
    r"|(\S)"
)
_KINDS = (None, "num", "ident", "op")


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    depth = 0  # open parentheses
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastindex, m.group()
        if kind == 4:
            raise ParseError(f"unexpected character {text!r}", m.start())
        if text == "(":
            depth += 1
            if depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", m.start())
        elif text == ")":
            depth -= 1
        tokens.append(_Token._make((_KINDS[kind], text, m.start())))
    tokens.append(_Token("end", "", len(source)))
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
        tok = self._tokens[self._i]
        if tok.kind == "op" and tok.text in chars:
            self._i += 1
            return tok
        return None

    # Each rule returns its node and the node's depth (a leaf is 1).

    def parse(self) -> Node:
        node, _ = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> tuple[Node, int]:
        return self._chain("+-", self._term)

    def _term(self) -> tuple[Node, int]:
        return self._chain("*/", self._factor)

    def _chain(self, ops: str, operand) -> tuple[Node, int]:
        # operand (op operand)*, folded from the left.
        node, depth = operand()
        while (tok := self._match_op(ops)) is not None:
            right, right_depth = operand()
            node, depth = BinOp(tok.text, node, right), _deeper(depth, right_depth, tok)
        return node, depth

    def _factor(self) -> tuple[Node, int]:
        tok = self._match_op("-")
        if tok is None:
            return self._power()
        node, depth = self._power()
        return Neg(node), _deeper(depth, 0, tok)

    def _power(self) -> tuple[Node, int]:
        # atom ('^' atom)*, folded from the right: ^ is right-associative.
        node, depth = self._atom()
        tok = self._match_op("^")
        if tok is None:
            return node, depth
        operands, carets = [(node, depth)], []
        while tok is not None:
            carets.append(tok)
            operands.append(self._atom())
            tok = self._match_op("^")
        node, depth = operands.pop()
        while carets:
            left, left_depth = operands.pop()
            node, depth = BinOp("^", left, node), _deeper(left_depth, depth, carets.pop())
        return node, depth

    def _atom(self) -> tuple[Node, int]:
        tok = self._advance()
        if tok.kind == "num":
            value = float(tok.text)
            if math.isinf(value):
                raise ParseError(f"number {tok.text!r} overflows", tok.pos)
            return Num(value), 1
        if tok.kind == "ident":
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(tok.text, tok.pos)
                self._advance()
                arg, depth = self._expr()
                if self._match_op(")") is None:
                    raise ParseError("expected ')'", self._peek().pos)
                return Call(tok.text, arg), _deeper(depth, 0, tok)
            if tok.text in CONSTANTS:
                return Const(tok.text), 1
            if tok.text not in self._allowed:
                raise UnknownVariableError(tok.text, tok.pos)
            self.seen_vars.add(tok.text)
            return Var(tok.text), 1
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            if self._match_op(")") is None:
                raise ParseError("expected ')'", self._peek().pos)
            return node
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected a number, name, or '(', got {got}", tok.pos)


def _deeper(depth: int, other: int, tok: _Token) -> int:
    """Depth of a node built at ``tok`` over children this deep."""
    if depth < other:
        depth = other
    if depth >= MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH}", tok.pos)
    return depth + 1


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
    if isinstance(node, Folded):
        node = node.node
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
    if isinstance(node, Folded):
        node = node.node
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
    ``rules`` gives the variable, product, division, power and function
    rules: :class:`ScalarRules` raise, an :class:`ArrayRules` masks the
    failing points of an array ``point``.  With ``active=None`` every jet
    is constant."""
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
    elif kind is Folded:
        return node.jet  # shared: jets are never mutated in place
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
            return rules.mul(left, right)
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
    return _eval(expr.folded, None, 0.0, bindings, ScalarRules).v0


def evaluate_jet3(expr: Expression, active_var: str, point, fixed=None):
    """Value and first three derivatives with respect to ``active_var`` at ``point``.

    Other free variables are looked up in ``fixed`` (reals or jets).  The
    result carries no truncation error beyond floating point.

    With a 1-D array of points the result is ``(jet, ok)``: the jet fields
    are arrays over the points, and ``ok`` is False where the scalar call
    would raise a :class:`DomainError` (its fields are NaN there).  Every
    other entry equals the scalar call at that point bit for bit.  Each
    field is an array of shape ``(n,)`` that the caller owns: never
    ``point`` or a field of a jet in ``fixed``.
    """
    if type(point) is float or not isinstance(point, np.ndarray):
        jet = _eval(expr.folded, active_var, point, fixed, ScalarRules)
        if type(expr.folded) is Folded:  # a fresh jet, not the stored one
            return Jet3(jet.v0, jet.v1, jet.v2, jet.v3)
        return jet
    points = point.astype(float)
    rules = ArrayRules(points.size)
    with np.errstate(all="ignore"):
        jet = _eval(expr.folded, active_var, points, fixed, rules)
    bad = rules.bad
    fields = (jet.v0, jet.v1, jet.v2, jet.v3)
    if bad.any():
        return Jet3(*(np.where(bad, math.nan, v) for v in fields)), ~bad
    # Nothing to mask: keep the walk's own arrays; copy scalar fields, and
    # the fields of a ``fixed`` jet that the walk handed through.
    n = points.size
    if fixed:
        theirs = [v for j in fixed.values() if isinstance(j, Jet3)
                  for v in (j.v0, j.v1, j.v2, j.v3) if isinstance(v, np.ndarray)]
        fields = [np.full(n, v, dtype=float)
                  if any(np.may_share_memory(v, a) for a in theirs) else v for v in fields]
    return Jet3(*(v if type(v) is np.ndarray else np.full(n, v, dtype=float)
                  for v in fields)), ~bad


# -- constant folding ----------------------------------------------------------


def _fold(node: Node) -> Node | None:
    """``node`` with its largest variable-free subtrees folded, or None if
    it has no variable (the caller then folds it in one piece)."""
    kind = type(node)
    if kind is BinOp:
        left, right = _fold(node.left), _fold(node.right)
        if left is None and right is None:
            return None
        return BinOp(node.op, _fold_constant(node.left) if left is None else left,
                     _fold_constant(node.right) if right is None else right)
    if kind is Call:
        arg = _fold(node.arg)
        return None if arg is None else Call(node.func, arg)
    if kind is Neg:
        operand = _fold(node.operand)
        return None if operand is None else Neg(operand)
    return node if kind is Var else None


def _fold_constant(node: Node) -> Node:
    """A :class:`Folded` leaf for the variable-free ``node``.  A lone
    literal stays as it is; where the evaluation raises, only the subtrees
    below are folded, so the walk raises there as the unfolded one would.
    Under :class:`ArrayRules` such a subtree already runs through the
    scalar rules, so the stored jet holds the bits of either walk."""
    kind = type(node)
    if kind is Num or kind is Const:
        return node
    try:
        return Folded(_eval(node, None, 0.0, None, ScalarRules), node)
    except DomainError:
        pass
    if kind is BinOp:
        return BinOp(node.op, _fold_constant(node.left), _fold_constant(node.right))
    if kind is Call:
        return Call(node.func, _fold_constant(node.arg))
    return Neg(_fold_constant(node.operand))
