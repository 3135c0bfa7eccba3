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


def _format_chain(trees: list) -> list[str]:
    """``format_expr`` of each tree of a rewrite trace, where a tree shares
    all but one root path with the one before it.

    The first tree is formatted in full.  Each later tree is walked from the
    root beside its predecessor, down the one child that differs, adding the
    lengths of the left siblings to the text offset.  At the first node whose
    type or fields changed, or where more than one child differs, the new
    subtree is formatted, copying the subtrees formatted before, and spliced
    over the old span, parentheses included.  The rebuilt nodes above it
    take the old nodes' lengths plus the change.  ``trees`` keeps every id
    in the tables alive.
    """
    memo: dict = {}
    lens: dict[int, int] = {}  # text lengths of the nodes on rebuilt paths

    def length(x) -> int:
        n = lens.get(id(x))
        if n is None:
            hit = memo.get(id(x))
            n = hit[2] - hit[1] if hit else len(_format(x, memo))
        return n

    if not trees:
        return []
    texts = [_format(trees[0], memo)]
    for old, new in zip(trees, trees[1:]):
        text = texts[-1]
        o, n, off, level = old, new, 0, 0
        path = []  # (old, new) pairs above the splice
        while o is not n:
            t = type(o)
            ok, nk = _children(o), _children(n)
            k = -1  # the one child that differs; nodes have at most two
            if t is type(n) and (t is not Lift or o.fn == n.fn):
                if ok and ok[0] is not nk[0]:
                    if len(ok) == 1 or ok[1] is nk[1]:
                        k = 0
                elif len(ok) == 2:
                    k = 1
            if k < 0:
                was = length(o) + 2 * (level > _BARE.get(t, 3))
                s = _format(n, memo)
                if level > _BARE.get(type(n), 3):
                    s = f"({s})"
                text = text[:off] + s + text[off + was:]
                delta = len(s) - was
                lens.pop(id(o), None)
                for a, b in path:
                    m = lens.pop(id(a), None)
                    lens[id(b)] = (length(a) if m is None else m) + delta
                break
            prefix, sep, _, levels = _layout(o)
            off += (level > _BARE.get(t, 3)) + len(prefix)
            if k:
                c = ok[0]
                off += length(c) + 2 * (levels[0] > _BARE.get(type(c), 3)) + len(sep)
            path.append((o, n))
            o, n, level = ok[k], nk[k], levels[k]
        texts.append(text)
    return texts


# ---------------------------------------------------------------------------
# lexer, shared with the search-configuration parser

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


def _byte_offset(text: str, charpos: int) -> int:
    return len(text[:charpos].encode("utf-8"))


_CALLS = {"E1": 2, "E2": 2, "log": 2, "pow": 2, "Omega": 1, "F": 1, "G": 1, "H": 1}


class _Parser:
    """Recursive-descent parser over a shared token cursor.

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
    table: dict[str, AttrSet] = {}
    for t in trees:
        for n in subexprs(t):
            if isinstance(n, Var):
                table[n.name] = table.get(n.name, EMPTY_ATTRS).union(n.attrs)

    def apply(e: UExpr) -> UExpr:
        if isinstance(e, Var):
            return e if table[e.name] == e.attrs else Var(e.name, table[e.name])
        return _with_children(e, tuple(map(apply, _children(e))))

    return tuple(map(apply, trees))


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
    match e:
        case Nat(value=v):
            if v > cap:
                raise CapExceeded(f"{v} exceeds cap {cap}")
            return v
        case Var(name=n):
            raise EvalError(f"expression contains a variable: {n}")
        case Sum(left=l, right=r):
            v = eval_principal(l, cap) + eval_principal(r, cap)
            if v > cap:
                raise CapExceeded(f"sum {v} exceeds cap {cap}")
            return v
        case Prod(left=l, right=r):
            v = eval_principal(l, cap) * eval_principal(r, cap)
            if v > cap:
                raise CapExceeded(f"product {v} exceeds cap {cap}")
            return v
        case Exp1(base=b, exp=x):
            return _checked_pow(eval_principal(b, cap), eval_principal(x, cap), cap)
        case Exp2(first=f, second=s):
            return _checked_pow(eval_principal(s, cap), eval_principal(f, cap), cap)
        case Lift(fn=fn, arg=a):
            v = eval_principal(a, cap)
            return _eval_lift(fn, v, cap)
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

def _scalar_below_two(e: UExpr) -> bool:
    return isinstance(e, Nat) and e.value < 2


def _never_one(e: UExpr) -> bool:
    # true when no instantiation of e can be the principal ultrafilter at 1
    match e:
        case Nat(value=v):
            return v >= 2
        case Var(attrs=a):
            return a.nonprincipal
        case Sum():
            return True  # members are sums of two naturals, hence >= 2
        case Prod(left=l, right=r):
            return _never_one(l) or _never_one(r)
        case Exp1(base=b):
            return _never_one(b)
        case Exp2(second=s):
            return _never_one(s)
        case Lift(fn=fn):
            # pow_b lands in powers of b >= 2; F and H take values >= 2
            return fn.kind in ("pow", "F", "H")
    return False


def _nonprincipal(e: UExpr) -> bool:
    match e:
        case Nat():
            return False
        case Var(attrs=a):
            return a.nonprincipal
        case Sum(left=l, right=r) | Prod(left=l, right=r):
            return _nonprincipal(l) or _nonprincipal(r)
        case Exp1(base=b, exp=x):
            return (_nonprincipal(b) and not _scalar_below_two(x)) or (
                _nonprincipal(x) and _never_one(b)
            )
        case Exp2(first=f, second=s):
            # second is the base, first the exponent
            return (_nonprincipal(s) and not _scalar_below_two(f)) or (
                _nonprincipal(f) and _never_one(s)
            )
        case Lift(fn=fn, arg=a):
            # only the injective lift preserves nonprincipality; the
            # prime-divisor maps can collapse an infinite set to a point
            return fn.kind == "pow" and _nonprincipal(a)
    return False


def attrs_of(e: UExpr) -> AttrSet:
    """Flags certified to hold under every instantiation consistent with the
    declared variable attributes.  Only nonprincipality propagates upward."""
    match e:
        case Var(attrs=a):
            return a
        case Nat():
            return EMPTY_ATTRS
    if _nonprincipal(e):
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
