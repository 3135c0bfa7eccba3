"""Expression trees over the two ultrafilter exponentiations.

An expression denotes an element of the Stone-Cech semiring of the naturals:
atoms are positive integer literals (principal ultrafilters) and named
variables, combined with noncommutative sum and product, the two
exponentiations (base-first ``Exp1`` and exponent-first ``Exp2``), and lifts
of classical arithmetic maps (exact base-b logarithm, base-b power, the
prime-divisor counters).  Trees are immutable and structural equality is
definitional: no constructor reassociates or commutes anything.

On variable-free trees ``eval_principal`` gives the exact integer meaning,
where ``Exp1(n, m) = n**m`` and ``Exp2(n, m) = m**n``.
"""

from __future__ import annotations

import collections
import functools
import operator
import re
from dataclasses import dataclass

from . import numth

DEFAULT_CAP = 1 << 64


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
        self.expected = expected


class EvalError(ValueError):
    """Domain error during principal evaluation (variable present, log of a
    non-power, prime-divisor map at 1, factorization range)."""


class CapExceeded(ArithmeticError):
    """An intermediate value went above the evaluation cap."""


# ---------------------------------------------------------------------------
# attribute flags

_ATTR_SHORT = {
    "nonprincipal": "nonprincipal",
    "add_idempotent": "add_idem",
    "mul_idempotent": "mul_idem",
    "min_ideal_closure": "min_ideal",
    "vdw_witness": "vdw",
    "esw_member": "esw",
    "all_divisible": "all_div",
}
_ATTR_LOOKUP = {s: f for f, s in _ATTR_SHORT.items()} | {f: f for f in _ATTR_SHORT}


@dataclass(frozen=True)
class AttrSet:
    """Semantic flags a variable is promised to satisfy.

    Construction closes under the two implications: an additive or
    multiplicative idempotent is nonprincipal, and membership in the closure
    of the minimal ideal implies the van der Waerden witness property.
    """

    nonprincipal: bool = False
    add_idempotent: bool = False
    mul_idempotent: bool = False
    min_ideal_closure: bool = False
    vdw_witness: bool = False
    esw_member: bool = False
    all_divisible: bool = False

    def __post_init__(self):
        if (self.add_idempotent or self.mul_idempotent) and not self.nonprincipal:
            object.__setattr__(self, "nonprincipal", True)
        if self.min_ideal_closure and not self.vdw_witness:
            object.__setattr__(self, "vdw_witness", True)

    def __bool__(self) -> bool:
        return self != EMPTY_ATTRS

    def names(self) -> tuple[str, ...]:
        # _ATTR_SHORT lists the fields in declaration order
        return tuple(s for f, s in _ATTR_SHORT.items() if getattr(self, f))

    def union(self, other: "AttrSet") -> "AttrSet":
        return AttrSet(**{f: getattr(self, f) or getattr(other, f) for f in _ATTR_SHORT})


EMPTY_ATTRS = AttrSet()


# ---------------------------------------------------------------------------
# nodes

class _Expr:
    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True, slots=True)
class Nat(_Expr):
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("naturals start at 1")


@dataclass(frozen=True, slots=True)
class Var(_Expr):
    name: str
    attrs: AttrSet = EMPTY_ATTRS


@dataclass(frozen=True, slots=True)
class Sum(_Expr):
    left: "UExpr"
    right: "UExpr"


@dataclass(frozen=True, slots=True)
class Prod(_Expr):
    left: "UExpr"
    right: "UExpr"


@dataclass(frozen=True, slots=True)
class Exp1(_Expr):
    base: "UExpr"
    exp: "UExpr"


@dataclass(frozen=True, slots=True)
class Exp2(_Expr):
    first: "UExpr"
    second: "UExpr"


_LIFT_KINDS = ("log", "pow", "Omega", "F", "G", "H")


@dataclass(frozen=True)
class LiftFn:
    kind: str
    base: int | None = None

    def __post_init__(self):
        if self.kind not in _LIFT_KINDS:
            raise ValueError(f"unknown lift {self.kind!r}")
        if self.kind in ("log", "pow"):
            if self.base is None or self.base < 2:
                raise ValueError(f"{self.kind} needs an integer base >= 2")
        elif self.base is not None:
            raise ValueError(f"{self.kind} takes no base")


@dataclass(frozen=True, slots=True)
class Lift(_Expr):
    fn: LiftFn
    arg: "UExpr"


UExpr = Nat | Var | Sum | Prod | Exp1 | Exp2 | Lift


# ---------------------------------------------------------------------------
# children and rebuilding: the one place that knows each node's children

def _children(e: UExpr) -> tuple[UExpr, ...]:
    # type tests rather than a match: this runs on every node visit
    t = type(e)
    if t is Sum or t is Prod:
        return (e.left, e.right)
    if t is Exp1:
        return (e.base, e.exp)
    if t is Exp2:
        return (e.first, e.second)
    if t is Lift:
        return (e.arg,)
    return ()


def _with_children(e: UExpr, cs) -> UExpr:
    """e with its children replaced by cs; e itself when nothing changed."""
    if all(map(operator.is_, _children(e), cs)):
        return e
    if type(e) is Lift:
        return Lift(e.fn, *cs)
    return type(e)(*cs)


def _operands(e: UExpr) -> tuple[UExpr, ...]:
    # the children with an exponentiation's base before its exponent: the
    # order in which evaluation meets, and reports, the first error
    return (e.second, e.first) if type(e) is Exp2 else _children(e)


def _bottom_up(e: UExpr, step, ctx=None, children=_children):
    """The result of ``step(node, results, ctx)`` at e, where ``results``
    holds the step's results at the node's children, in ``children`` order.
    Post-order over an explicit stack; a shared subtree is folded twice."""
    done: list = []  # results of the subtrees whose parent is not done yet
    todo: list = [e]  # nodes to open, and (node, child count) to close
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            x, n = x
            results = done[-n:]
            del done[-n:]
            done.append(step(x, results, ctx))
            continue
        kids = children(x)
        if kids:
            todo.append((x, len(kids)))
            todo += reversed(kids)
        else:
            done.append(step(x, (), ctx))
    return done[0]


def _same(a: UExpr, b: UExpr) -> bool:
    """Structural equality over an explicit stack; the dataclass ``==``
    recurses about three interpreter frames per tree level."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        ys = _children(y)
        # x rebuilt on y's children compares only the fields that are no child
        if type(x) is not type(y) or _with_children(x, ys) != y:
            return False
        todo.extend(zip(_children(x), ys))
    return True


# ---------------------------------------------------------------------------
# printing: one layout per node type gives every string and every offset

# the loosest precedence level at which a node prints without parentheses;
# child levels run from 0 to 3, so the other node types never take them
_BARE = {Sum: 0, Prod: 1, Exp1: 2}


def _layout(e: UExpr) -> tuple[str, str, str, tuple[int, ...]]:
    """(prefix, separator, suffix, child levels): e's text is the prefix, its
    children's texts joined by the separator, then the suffix.  A child is
    parenthesized when its level is above its type's ``_BARE`` level."""
    t = type(e)
    if t is Sum:
        return "", " + ", "", (0, 1)
    if t is Prod:
        return "", " * ", "", (1, 2)
    if t is Exp1:
        return "", " ^ ", "", (3, 2)
    if t is Exp2:
        return "E2(", ", ", ")", (0, 0)
    if t is Lift:
        fn = e.fn
        return f"{fn.kind}(" if fn.base is None else f"{fn.kind}({fn.base}, ", "", ")", (0,)
    if t is Nat:
        return str(e.value), "", "", ()
    if t is Var:
        return f"{e.name}:{{{','.join(e.attrs.names())}}}" if e.attrs else e.name, "", "", ()
    raise TypeError(f"not an expression: {e!r}")


def format_expr(e: UExpr) -> str:
    """Render with minimal parentheses; ``parse_expr`` inverts this exactly."""
    return _format(e)


def _format(e: UExpr, memo: dict | None = None) -> str:
    """e's text without enclosing parentheses, over an explicit stack.

    With a ``memo`` (id -> (text, start, end)), a subtree with an entry is
    copied from that slice, and each node formatted here gets an entry into
    the returned text (leaf children are written without one).  The caller
    keeps the trees behind the entries alive, so ids stay unique.
    """
    parts: list[str] = []
    size = 0
    spans = []  # (node, start, end) of each inner node formatted here
    todo: list = [e]  # nodes, strings to write, and (node, start) closing a node
    while todo:
        x = todo.pop()
        t = type(x)
        if t is str:
            parts.append(x)
            size += len(x)
        elif t is tuple:
            spans.append((*x, size))
        elif memo and (hit := memo.get(id(x))) is not None:
            text, i, j = hit
            parts.append(text[i:j])
            size += j - i
        else:
            prefix, sep, suffix, levels = _layout(x)
            if memo is not None:
                todo.append((x, size))
            todo.append(suffix)
            parts.append(prefix)
            size += len(prefix)
            kids = _children(x)
            for k in range(len(kids) - 1, -1, -1):
                c = kids[k]
                t = type(c)
                if t is Nat or t is Var:
                    todo.append(_layout(c)[0])
                elif levels[k] > _BARE.get(t, 3):
                    todo += (")", c, "(")
                else:
                    todo.append(c)
                if k:
                    todo.append(sep)
    text = "".join(parts)
    for x, i, j in spans:
        memo[id(x)] = (text, i, j)
    return text


def _format_edits(e: UExpr, edits) -> list[str]:
    """``format_expr`` of e and of the tree after each edit of a rewrite log.

    An edit (cell, new) puts new in place of the subtree at cell, where a
    cell is None for the root or (the parent's cell, child index).  Edits
    come in innermost-first order: each lies inside the replacement before
    it, at one of its ancestors, or to the right of it.  So while a node is
    on the path to the latest edit, every later edit is inside it until one
    lands outside, and neither its start nor the length of the text after
    it moves.  e is formatted once; each edit's replacement is formatted,
    copying the subtrees formatted before, and spliced over the old span,
    parentheses included, at an offset carried down the path.  ``edits``
    keeps every id in the table alive.
    """
    memo: dict = {}
    text = _format(e, memo)
    texts = [text]

    def width(x, level: int) -> int:
        hit = memo.get(id(x))
        n = hit[2] - hit[1] if hit else len(_layout(x)[0])
        return n + 2 * (level > _BARE.get(type(x), 3))

    def opening(x, level: int, start: int) -> int:
        # where x's first child starts, x starting at start
        return start + (level > _BARE.get(type(x), 3)) + len(_layout(x)[0])

    # [cell, node, level, start, tail, k, off] from the root down to the
    # latest edit: the node's text, parentheses included, starts at start
    # and has tail characters after it; its child k starts at off
    path = [[None, e, 0, 0, 0, 0, opening(e, 0, 0)]]
    depth = {}  # id(cell) -> its index in path, but for the root's
    for cell, new in edits:
        fresh = []  # the cells below the deepest one still on the path
        while cell is not None and id(cell) not in depth:
            fresh.append(cell)
            cell = cell[0]
        d = 0 if cell is None else depth[id(cell)]
        while len(path) > d + 1:  # these are done: fix where the next child starts
            c, _, _, _, tail, _, _ = path.pop()
            del depth[id(c)]
            parent = path[-1]
            parent[5] = c[1] + 1
            parent[6] = len(text) - tail + len(_layout(parent[1])[1])
        for c in reversed(fresh):
            _, node, _, _, _, k, off = path[-1]
            _, sep, _, levels = _layout(node)
            kids = _children(node)
            for j in range(k, c[1]):
                off += width(kids[j], levels[j]) + len(sep)
            child, level = kids[c[1]], levels[c[1]]
            tail = len(text) - off - width(child, level)
            depth[id(c)] = len(path)
            path.append([c, child, level, off, tail, 0, opening(child, level, off)])
        top = path[-1]
        _, _, level, start, tail, _, _ = top
        s = _format(new, memo)
        if level > _BARE.get(type(new), 3):
            s = f"({s})"
        text = text[:start] + s + text[len(text) - tail:]
        texts.append(text)
        top[1], top[5], top[6] = new, 0, opening(new, level, start)
    return texts


# ---------------------------------------------------------------------------
# lexer, shared with the search-configuration parser

_Token = collections.namedtuple("_Token", "kind text pos")  # kind: nat, ident, op, eof

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>==|>=|[+*^(){},:;>])|(?P<bad>.)",
    re.S,
)


def _tokenize(text: str) -> list[_Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}", _byte_offset(text, m.start())
            )
        if kind != "ws":
            out.append(_Token(kind, m.group(), m.start()))
    out.append(_Token("eof", "", len(text)))
    return out


def _byte_offset(text: str, charpos: int) -> int:
    return len(text[:charpos].encode("utf-8"))


_CALL_NAMES = ("E1", "E2", *_LIFT_KINDS)
_INFIX = {"+": Sum, "*": Prod, "^": Exp1}


class _Parser:
    """Operator-precedence parser over a shared token cursor.

    ``arith_only`` restricts to the configuration-term fragment: naturals,
    plain variables, +, *, ^ and parentheses (no calls, no attribute sets).
    """

    def __init__(self, text: str, arith_only: bool = False):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arith_only = arith_only

    # cursor helpers -------------------------------------------------------
    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_op(self, op: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == op

    def eat_op(self, op: str) -> bool:
        if self.at_op(op):
            self.i += 1
            return True
        return False

    def fail(self, expected: tuple[str, ...]):
        t = self.peek()
        got = repr(t.text) if t.kind != "eof" else "end of input"
        raise ParseError(
            f"syntax error: expected {' or '.join(expected)}, found {got}",
            _byte_offset(self.text, t.pos),
            expected,
        )

    def require_op(self, op: str):
        if not self.eat_op(op):
            self.fail((f"'{op}'",))

    def require_ident(self) -> _Token:
        if self.peek().kind != "ident":
            self.fail(("identifier",))
        return self.next()

    def require_nat(self) -> int:
        if self.peek().kind != "nat":
            self.fail(("natural number",))
        t = self.next()
        v = int(t.text)
        if v < 1:
            raise ParseError(
                "natural literals start at 1", _byte_offset(self.text, t.pos)
            )
        return v

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def require_end(self):
        if not self.at_end():
            self.fail(("end of input",))

    # grammar --------------------------------------------------------------
    def parse_sum(self) -> UExpr:
        """One expression, read in one loop over explicit stacks.

        ``frames`` holds each open parenthesis or call as (None or the
        constructor of its arguments, E1/E2's first bound at the comma; the
        enclosing frame's ``pending``).  ``pending`` holds the innermost
        frame's left operands still waiting for a right one, with their
        node types."""
        frames: list = []
        pending: list = []
        while True:
            t = self.peek()
            call = (not self.arith_only and t.text in _CALL_NAMES
                    and self.toks[self.i + 1].text == "(")
            if t.kind == "nat":
                node = Nat(self.require_nat())
            elif t.kind == "ident" and not call:
                self.i += 1
                attrs = not self.arith_only and self.at_op(":")
                node = Var(t.text, self._parse_attrs() if attrs else EMPTY_ATTRS)
            elif call or self.eat_op("("):
                self.i += 2 * call  # past a call's name and "("
                frames.append((self._call_head(t.text) if call else None, pending))
                pending = []
                continue
            else:
                self.fail(("natural number", "identifier", "'('"))
            while True:  # node is the innermost frame's last operand
                # reduce what binds at least as tightly as op; ^ groups right
                op = _INFIX.get(self.peek().text)
                level = -1 if op is None else _BARE[op] + (op is Exp1)
                while pending and _BARE[pending[-1][1]] >= level:
                    left, f = pending.pop()
                    node = f(left, node)
                if op is not None:
                    self.i += 1
                    pending.append((node, op))
                    break
                if not frames:
                    return node
                head, outer = frames[-1]
                if head in (Exp1, Exp2):
                    self.require_op(",")
                    frames[-1] = (functools.partial(head, node), outer)
                    break
                self.require_op(")")
                frames.pop()
                pending = outer
                if head is not None:
                    node = head(node)

    def _call_head(self, name: str):
        """The constructor of ``name(``'s arguments, past a log/pow base."""
        if name in ("E1", "E2"):
            return Exp1 if name == "E1" else Exp2
        if name in ("log", "pow"):
            t = self.peek()
            base = self.require_nat()
            if base < 2:
                raise ParseError(
                    f"{name} base must be >= 2", _byte_offset(self.text, t.pos)
                )
            self.require_op(",")
            return functools.partial(Lift, LiftFn(name, base))
        return functools.partial(Lift, LiftFn(name))

    def _parse_attrs(self) -> AttrSet:
        self.require_op(":")
        self.require_op("{")
        flags: dict[str, bool] = {}
        while True:
            t = self.require_ident()
            field = _ATTR_LOOKUP.get(t.text)
            if field is None:
                raise ParseError(
                    f"unknown attribute {t.text!r}",
                    _byte_offset(self.text, t.pos),
                    tuple(sorted(_ATTR_LOOKUP)),
                )
            flags[field] = True
            if not self.eat_op(","):
                break
        self.require_op("}")
        return AttrSet(**flags)


# ---------------------------------------------------------------------------
# attribute unification: one declaration binds every occurrence of the name

def _unify_attrs(*trees: UExpr) -> tuple[UExpr, ...]:
    decls: dict[str, set[AttrSet]] = {}
    for t in trees:
        for n in subexprs(t):
            if type(n) is Var:
                decls.setdefault(n.name, set()).add(n.attrs)
    # only the names declared two ways have occurrences to rebuild
    table = {n: functools.reduce(AttrSet.union, s) for n, s in decls.items() if len(s) > 1}
    return tuple(_bottom_up(t, _unify_node, table) for t in trees) if table else trees


def _unify_node(e: UExpr, kids, table: dict[str, AttrSet]) -> UExpr:
    if type(e) is Var:
        a = table.get(e.name, e.attrs)
        return e if a == e.attrs else Var(e.name, a)
    return _with_children(e, kids)


def parse_expr(text: str) -> UExpr:
    """Parse one expression.  Attribute sets declared on any occurrence of a
    variable apply to every occurrence of that name."""
    p = _Parser(text)
    e = p.parse_sum()
    p.require_end()
    return _unify_attrs(e)[0]


def parse_equation(text: str) -> tuple[UExpr, UExpr]:
    """Parse ``lhs == rhs``; attribute declarations are shared across sides."""
    p = _Parser(text)
    lhs = p.parse_sum()
    p.require_op("==")
    rhs = p.parse_sum()
    p.require_end()
    return _unify_attrs(lhs, rhs)


# ---------------------------------------------------------------------------
# principal evaluation

def _checked_pow(base: int, exp: int, cap: int) -> int:
    if base <= 1:
        return 1 if exp == 0 else base
    # 2**exp alone would blow the cap; avoids constructing absurd towers
    if exp > cap.bit_length():
        raise CapExceeded(f"{base}^{exp} exceeds cap {cap}")
    r = base**exp
    if r > cap:
        raise CapExceeded(f"{base}^{exp} = {r} exceeds cap {cap}")
    return r


def _exact_log(base: int, v: int) -> int:
    if v < 1:  # 0 (from Omega(1) or log(b, 1)) is not a power of anything
        raise EvalError(f"log({base}, _): argument is not an exact power")
    k = 0
    while v % base == 0:
        v //= base
        k += 1
    if v != 1:
        raise EvalError(f"log({base}, _): argument is not an exact power")
    return k


def eval_principal(e: UExpr, cap: int = DEFAULT_CAP) -> int:
    """Exact integer value of a variable-free tree; every intermediate must
    stay <= cap.  ``Exp1(n, m) = n**m`` and ``Exp2(n, m) = m**n``."""
    return _bottom_up(e, _eval_node, cap, _operands)


def _eval_node(e: UExpr, values, cap: int) -> int:
    # values are the operands' values, an exponentiation's base first
    t = type(e)
    if t is Nat:
        if e.value > cap:
            raise CapExceeded(f"{e.value} exceeds cap {cap}")
        return e.value
    if t is Sum:
        v = values[0] + values[1]
        if v > cap:
            raise CapExceeded(f"sum {v} exceeds cap {cap}")
        return v
    if t is Prod:
        v = values[0] * values[1]
        if v > cap:
            raise CapExceeded(f"product {v} exceeds cap {cap}")
        return v
    if t is Exp1 or t is Exp2:
        return _checked_pow(values[0], values[1], cap)
    if t is Lift:
        return _eval_lift(e.fn, values[0], cap)
    if t is Var:
        raise EvalError(f"expression contains a variable: {e.name}")
    raise TypeError(f"not an expression: {e!r}")


def _eval_lift(fn: LiftFn, v: int, cap: int) -> int:
    if fn.kind == "log":
        return _exact_log(fn.base, v)
    if fn.kind == "pow":
        return _checked_pow(fn.base, v, cap)
    if fn.kind == "Omega":
        if v == 1:
            return 0
        if v < 1 or v >= numth.U64:
            raise EvalError("Omega argument out of factorization range")
        return numth.big_omega(v)
    if v < 2:
        raise EvalError(f"{fn.kind} is undefined at 1")
    if v >= numth.U64:
        raise EvalError(f"{fn.kind} argument out of factorization range")
    if fn.kind == "F":
        return numth.largest_prime_factor(v)
    if fn.kind == "G":
        return numth.largest_prime_exponent(v)
    return numth.largest_prime_power(v)


# ---------------------------------------------------------------------------
# derived attributes

def _principality(e: UExpr, pairs, _) -> tuple[bool, bool]:
    """(never one, nonprincipal) of e from its operands' pairs, an
    exponentiation's base first.  Never one: no instantiation of e is the
    principal ultrafilter at 1."""
    t = type(e)
    if t is Var:
        return e.attrs.nonprincipal, e.attrs.nonprincipal
    if t is Nat:
        return e.value >= 2, False
    if t is Sum:
        return True, pairs[0][1] or pairs[1][1]  # sums of two naturals are >= 2
    if t is Prod:
        return pairs[0][0] or pairs[1][0], pairs[0][1] or pairs[1][1]
    if t is Exp1 or t is Exp2:
        (never_one, np_base), (_, np_exp) = pairs
        x = e.exp if t is Exp1 else e.first
        np_base = np_base and (type(x) is not Nat or x.value >= 2)
        return never_one, np_base or (np_exp and never_one)
    if t is Lift:
        # pow_b lands in powers of b >= 2; F and H take values >= 2.  Only
        # the injective lift preserves nonprincipality; the prime-divisor
        # maps can collapse an infinite set to a point
        kind = e.fn.kind
        return kind in ("pow", "F", "H"), kind == "pow" and pairs[0][1]
    return False, False


def attrs_of(e: UExpr) -> AttrSet:
    """Flags certified to hold under every instantiation consistent with the
    declared variable attributes.  Only nonprincipality propagates upward."""
    if type(e) is Var:
        return e.attrs
    if _bottom_up(e, _principality, None, _operands)[1]:
        return AttrSet(nonprincipal=True)
    return EMPTY_ATTRS


def subexprs(e: UExpr):
    """Yield e and all its subtrees, parents first."""
    todo = [e]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(_children(node)))


__all__ = [
    "AttrSet",
    "CapExceeded",
    "DEFAULT_CAP",
    "EMPTY_ATTRS",
    "EvalError",
    "Exp1",
    "Exp2",
    "Lift",
    "LiftFn",
    "Nat",
    "ParseError",
    "Prod",
    "Sum",
    "UExpr",
    "Var",
    "attrs_of",
    "eval_principal",
    "format_expr",
    "parse_equation",
    "parse_expr",
    "subexprs",
]
