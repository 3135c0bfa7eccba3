"""The recursive-descent grammar and the lexer that the explicit-stack
operator-precedence parser in ``ultraexp.expr`` replaced, kept only as a
test oracle.

``Parser`` keeps the current cursor helpers and ``_parse_attrs`` and puts
back the old token list and the four mutually recursive grammar methods
(about four interpreter frames per parenthesis), so expressions nested
deeper than about 250 levels need the recursion limit raised first.
``parse_expr`` and ``parse_equation`` are the library's entries on it;
``parse_config`` runs the configuration DSL of ``ultraexp.prsearch`` on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ultraexp import expr, prsearch
from ultraexp.expr import (
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    ParseError,
    Prod,
    Sum,
    UExpr,
    Var,
    _byte_offset,
    _unify_attrs,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "nat" | "ident" | "op" | "eof"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>==|>=|[+*^(){},:;>])"
)


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(
                f"unexpected character {text[i]!r}", _byte_offset(text, i)
            )
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


_CALLS = {"E1": 2, "E2": 2, "log": 2, "pow": 2, "Omega": 1, "F": 1, "G": 1, "H": 1}


class Parser(expr._Parser):
    """``expr._Parser`` on the old token list and recursive grammar."""

    def __init__(self, text: str, arith_only: bool = False):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arith_only = arith_only

    # grammar --------------------------------------------------------------
    def parse_sum(self) -> UExpr:
        node = self.parse_prod()
        while self.eat_op("+"):
            node = Sum(node, self.parse_prod())
        return node

    def parse_prod(self) -> UExpr:
        node = self.parse_pow()
        while self.eat_op("*"):
            node = Prod(node, self.parse_pow())
        return node

    def parse_pow(self) -> UExpr:
        base = self.parse_unary()
        if self.eat_op("^"):
            return Exp1(base, self.parse_pow())  # right-associative
        return base

    def parse_unary(self) -> UExpr:
        t = self.peek()
        if t.kind == "nat":
            return Nat(self.require_nat())
        if t.kind == "ident":
            if (
                not self.arith_only
                and t.text in _CALLS
                and self.toks[self.i + 1].kind == "op"
                and self.toks[self.i + 1].text == "("
            ):
                return self._parse_call()
            self.next()
            if not self.arith_only and self.at_op(":"):
                return Var(t.text, self._parse_attrs())
            return Var(t.text)
        if self.eat_op("("):
            node = self.parse_sum()
            self.require_op(")")
            return node
        self.fail(("natural number", "identifier", "'('"))

    def _parse_call(self) -> UExpr:
        name = self.next().text
        self.require_op("(")
        if _CALLS[name] == 1:
            arg = self.parse_sum()
            self.require_op(")")
            return Lift(LiftFn(name), arg)
        if name in ("log", "pow"):
            t = self.peek()
            base = self.require_nat()
            if base < 2:
                raise ParseError(
                    f"{name} base must be >= 2", _byte_offset(self.text, t.pos)
                )
            self.require_op(",")
            arg = self.parse_sum()
            self.require_op(")")
            return Lift(LiftFn(name, base), arg)
        a = self.parse_sum()
        self.require_op(",")
        b = self.parse_sum()
        self.require_op(")")
        return Exp1(a, b) if name == "E1" else Exp2(a, b)


def parse_expr(text: str) -> UExpr:
    p = Parser(text)
    e = p.parse_sum()
    p.require_end()
    return _unify_attrs(e)[0]


def parse_equation(text: str) -> tuple[UExpr, UExpr]:
    p = Parser(text)
    lhs = p.parse_sum()
    p.require_op("==")
    rhs = p.parse_sum()
    p.require_end()
    return _unify_attrs(lhs, rhs)


def parse_config(text: str) -> prsearch.ConfigTemplate:
    """``prsearch.parse_config`` with this module's parser in place of the
    library's for the length of the call."""
    saved = prsearch._Parser
    prsearch._Parser = Parser
    try:
        return prsearch.parse_config(text)
    finally:
        prsearch._Parser = saved
