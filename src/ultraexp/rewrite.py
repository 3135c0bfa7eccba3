"""Normalization and equality checking for exponentiation expressions.

``normalize`` drives a fixed catalog of rewrite rules innermost-first
(post-order, leftmost) to a fixpoint.  Every rule preserves the principal
integer semantics and is sound for the ultrafilter extensions; every firing
strictly decreases a lexicographic termination measure, which the tests check
on every step of the traces they run.

``prove_equal`` compares normal forms and, when they differ, consults a small
set of refutation oracles.  Each oracle encodes a known inequality whose
hypotheses must be certified by ``attrs_of``; anything not settled either way
is reported as Unknown.  The prover is deliberately incomplete: open
equalities stay Unknown.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import numth
from .expr import (
    CapExceeded,
    DEFAULT_CAP,
    EvalError,
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    Prod,
    Sum,
    UExpr,
    _bottom_up,
    _checked_pow,
    _children,
    _eval_lift,
    _eval_node,
    _operands,
    _same,
    _with_children,
    attrs_of,
)

MAX_STEPS = 10_000


class RuleLimitExceeded(RuntimeError):
    """Step budget blown: a rule loop, or a terminating input needing more firings."""


# ---------------------------------------------------------------------------
# rules: each takes a node whose children are already normal and returns the
# replacement or None.  Order in the catalog is the order tried at a node.

def _fold(e: UExpr, cap: int) -> UExpr | None:
    match e:
        case Sum(left=Nat(value=a), right=Nat(value=b)):
            return Nat(_capped(a + b, cap))
        case Prod(left=Nat(value=a), right=Nat(value=b)):
            return Nat(_capped(a * b, cap))
        case Exp1(base=Nat(value=a), exp=Nat(value=b)):
            return Nat(_checked_pow(a, b, cap))
        case Exp2(first=Nat(value=a), second=Nat(value=b)):
            return Nat(_checked_pow(b, a, cap))
        case Lift(fn=fn, arg=Nat(value=v)):
            try:
                r = _eval_lift(fn, v, cap)
            except EvalError:
                return None  # e.g. log of a non-power: the node is simply stuck
            return Nat(r) if r >= 1 else None  # Omega(1)=0 has no literal
    return None


def _capped(v: int, cap: int) -> int:
    if v > cap:
        raise CapExceeded(f"fold result {v} exceeds cap {cap}")
    return v


def _fold_one(e: UExpr, cap: int) -> UExpr | None:
    # unit laws: p^1 = p, 1^p = 1, 1*p = p*1 = p
    match e:
        case Exp1(base=p, exp=Nat(value=1)):
            return p
        case Exp1(base=Nat(value=1)):
            return Nat(1)
        case Prod(left=Nat(value=1), right=p):
            return p
        case Prod(left=p, right=Nat(value=1)):
            return p
    return None


def _e2can(e: UExpr, cap: int) -> UExpr | None:
    # a scalar on either side turns the exponent-first form into base-first
    match e:
        case Exp2(first=p, second=Nat() as n):
            return Exp1(n, p)
        case Exp2(first=Nat() as n, second=p):
            return Exp1(p, n)
    return None


def _scalctr(e: UExpr, cap: int) -> UExpr | None:
    # principal scalars commute with everything; keep them on the left
    match e:
        case Sum(left=l, right=Nat() as n) if not isinstance(l, Nat):
            return Sum(n, l)
        case Prod(left=l, right=Nat() as n) if not isinstance(l, Nat):
            return Prod(n, l)
    return None


def _logpow(e: UExpr, cap: int) -> UExpr | None:
    # log_b(c^q) = log_b(c) * q when c is an exact power of b
    match e:
        case Lift(fn=LiftFn(kind="log", base=b), arg=Exp1(base=Nat(value=c), exp=q)):
            k, v = 0, c
            while v % b == 0:
                v //= b
                k += 1
            if v != 1 or k == 0:
                return None
            return Prod(Nat(k), q)
    return None


def _baseroot(e: UExpr, cap: int) -> UExpr | None:
    # c^q = d^(k*q) for c = d**k with d the minimal root
    match e:
        case Exp1(base=Nat(value=c), exp=q) if not isinstance(q, Nat):
            pp = numth.perfect_power(c)
            if pp is None:
                return None
            d, k = pp
            return Exp1(Nat(d), Prod(Nat(k), q))
    return None


def _e1flat(e: UExpr, cap: int) -> UExpr | None:
    # (p^q)^r = p^(q*r)
    match e:
        case Exp1(base=Exp1(base=p, exp=q), exp=r):
            return Exp1(p, Prod(q, r))
    return None


def _e2assoc(e: UExpr, cap: int) -> UExpr | None:
    # exponent-first towers compose through the product of the exponents
    match e:
        case Exp2(first=p, second=Exp2(first=q, second=r)):
            return Exp2(Prod(p, q), r)
    return None


def _samebase(e: UExpr, cap: int) -> UExpr | None:
    # a^p * a^q = a^(p+q) for a scalar base a >= 2
    match e:
        case Prod(
            left=Exp1(base=Nat(value=a) as nb, exp=p),
            right=Exp1(base=Nat(value=b), exp=q),
        ) if a == b and a >= 2:
            return Exp1(nb, Sum(p, q))
    return None


CATALOG: tuple[tuple[str, object], ...] = (
    ("FOLD", _fold),
    ("FOLD-ONE", _fold_one),
    ("E2CAN", _e2can),
    ("SCALCTR", _scalctr),
    ("LOGPOW", _logpow),
    ("BASEROOT", _baseroot),
    ("E1FLAT", _e1flat),
    ("E2ASSOC", _e2assoc),
    ("SAMEBASE", _samebase),
)

RULE_IDS = tuple(rid for rid, _ in CATALOG)


# ---------------------------------------------------------------------------
# termination measure: strictly decreases on every firing, checked in tests

def _peval(e: UExpr, cap: int) -> int | None:
    """Partial evaluation absorbing the unit laws (1*p, p*1, p^1 pass
    through, 1^p is 1 even when p has no value).  Invariant under every
    catalog rule, which is what makes the measure's base test stable while
    scalar subtrees fold.  None means no value (free Var, stuck Lift, or
    past cap)."""
    return _bottom_up(e, _peval_node, cap, _operands)


def _peval_node(e: UExpr, values, cap: int) -> int | None:
    # values are the operands' values, an exponentiation's base first
    t = type(e)
    if t is Nat:
        return e.value  # a literal keeps its value past the cap
    if t is Prod:
        x, y = values
        if x == 1:
            return y
        if y == 1:
            return x
    elif t is Exp1 or t is Exp2:
        b, x = values
        if b == 1:
            return 1
        if x == 1:
            return b
    elif not values:
        return None  # Var
    if None in values:
        return None
    try:
        # Omega(1) = 0 has no value here
        return _eval_node(e, values, cap) or None
    except (EvalError, CapExceeded):
        return None


def measure(e: UExpr, cap: int = DEFAULT_CAP) -> tuple[int, int, int, int, int, int]:
    """(Exp2 nodes; reducible-base weight over Exp1 nodes; Lift nodes;
    foldable nodes; scalars waiting on the right; tree size).

    The second component charges each Exp1 node for every Exp1 inside its
    base, plus one when the base has a perfect-power value under _peval and
    the exponent is not yet a literal.
    """
    return _bottom_up(e, _measure_node, cap, _operands)[0][:6]


def _measure_node(e: UExpr, results, cap: int):
    """(e's six measure components and its Exp1 count, e's _peval value)
    from the same pairs of its operands, an exponentiation's base first."""
    if not results:
        return (0, 0, 0, 0, 0, 1, 0), _peval_node(e, (), cap)  # a leaf
    t = type(e)
    kids = _children(e)
    bad1 = 0
    if t is Exp1:
        (counts, v), _ = results
        bad1 = counts[6] + (
            type(e.exp) is not Nat and v is not None and numth.perfect_power(v) is not None
        )
    # FOLD's shape is an inner node over literals only, FOLD-ONE's a literal 1
    # under ^ or *
    fold = all(type(c) is Nat for c in kids) or (
        (t is Exp1 or t is Prod) and any(type(c) is Nat and c.value == 1 for c in kids)
    )
    scal = (
        (t is Sum or t is Prod)
        and type(e.left) is not Nat
        and type(e.right) is Nat
        and (t is Sum or e.right.value >= 2)
    )
    counts = (t is Exp2, bad1, t is Lift, fold, scal, 1, t is Exp1)
    for c, _ in results:
        counts = tuple(map(operator.add, counts, c))
    return counts, _peval_node(e, [v for _, v in results], cap)


# ---------------------------------------------------------------------------
# engine

def _splice(e: UExpr, cell, new: UExpr) -> UExpr:
    """e with the subtree at ``cell`` replaced by new: the ancestors are
    rebuilt, every other subtree is shared.  A cell is None for the root, or
    (the parent's cell, child index)."""
    where = []
    while cell is not None:
        cell, i = cell
        where.append(i)
    nodes = [e]
    for i in reversed(where):
        nodes.append(_children(nodes[-1])[i])
    for parent, i in zip(reversed(nodes[:-1]), where):
        kids = [*_children(parent)]
        kids[i] = new
        new = _with_children(parent, kids)
    return new


class _Log:
    """A rewrite run as an edit log: the input tree and one (cell,
    replacement) per firing.  ``trees`` holds the whole-tree snapshots built
    from it so far, the input first."""

    __slots__ = ("root", "edits", "trees")

    def __init__(self, root: UExpr, edits: list):
        self.root = root
        self.edits = edits
        self.trees = [root]

    def tree(self, k: int) -> UExpr:
        """The tree after the first k edits, each snapshot built once, from
        the one before it."""
        trees = self.trees
        while len(trees) <= k:
            cell, new = self.edits[len(trees) - 1]
            trees.append(_splice(trees[-1], cell, new))
        return trees[k]


class _Step:
    """A firing whose ``before`` and ``after`` are read from a log."""

    __slots__ = ("rule", "_log", "_k")
    _fields = ("rule", "before", "after")

    @classmethod
    def _of(cls, log: _Log, k: int, **fields):
        """The firing after the first k edits of log."""
        step = cls.__new__(cls)
        step._log, step._k = log, k
        for name, value in fields.items():
            setattr(step, name, value)
        return step

    @property
    def before(self) -> UExpr:
        return self._log.tree(self._k)

    @property
    def after(self) -> UExpr:
        return self._log.tree(self._k + 1)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class TraceStep(_Step):
    """One firing: the rule and the whole tree before and after it.

    The steps of one ``normalize_with_trace`` run share its edit log, and
    each snapshot is built from it the first time it is read, from the
    snapshot before it, so ``nxt.before is s.after``.  Reading ``rule``
    builds nothing."""

    __slots__ = ()

    def __init__(self, rule: str, before: UExpr, after: UExpr):
        self._log, self._k, self.rule = _Log(before, [(None, after)]), 0, rule


def normalize_with_trace(e: UExpr, cap: int = DEFAULT_CAP) -> tuple[UExpr, tuple[TraceStep, ...]]:
    """Normal form and firing sequence, in one bottom-up pass.

    Children are normalized left to right, then the catalog is tried at the
    node, and a replacement is normalized in its place: the post-order,
    leftmost order of searching again from the root after each firing,
    without revisiting subtrees already found normal.  A firing is recorded
    as its rule, the cell of its position and the replacement, in time
    independent of the tree; the steps' whole-tree snapshots are built only
    when read (see ``TraceStep``).  More than ``MAX_STEPS`` firings raise
    RuleLimitExceeded.
    """
    rules: list[str] = []
    log = _Log(e, [])
    settled: dict[int, UExpr] = {}  # normal subtrees, held so ids stay unique
    # [node, its children with the normalized ones first, next child index,
    # cell] for each node from the root down to the one being normalized
    path = [[e, [*_children(e)], 0, None]]
    while True:
        node, kids, i, cell = path[-1]
        if id(node) not in settled:
            if i < len(kids):
                path.append([kids[i], [*_children(kids[i])], 0, (cell, i)])
                continue
            node = _with_children(node, kids)
            for rid, fn in CATALOG:
                out = fn(node, cap)
                if out is not None:
                    break
            if out is not None:
                log.edits.append((cell, out))
                rules.append(rid)
                if len(rules) > MAX_STEPS:
                    raise RuleLimitExceeded(f"more than {MAX_STEPS} rewrites from {e}")
                path[-1] = [out, [*_children(out)], 0, cell]
                continue
            settled[id(node)] = node
        path.pop()
        if not path:
            return node, tuple(TraceStep._of(log, k, rule=r) for k, r in enumerate(rules))
        path[-1][1][path[-1][2]] = node
        path[-1][2] += 1


def normalize(e: UExpr, cap: int = DEFAULT_CAP) -> UExpr:
    """Unique normal form under the rule catalog (innermost-first fixpoint)."""
    return normalize_with_trace(e, cap)[0]


def rule_trace(e: UExpr, cap: int = DEFAULT_CAP) -> tuple[TraceStep, ...]:
    """The exact firing sequence normalize performs, as whole-tree snapshots."""
    return normalize_with_trace(e, cap)[1]


def replay_trace(e: UExpr, trace) -> UExpr:
    """Re-apply a recorded trace, checking each snapshot chains exactly."""
    cur = e
    for step in trace:
        if not _same(step.before, cur):
            raise ValueError(f"trace does not chain at rule {step.rule}")
        cur = step.after
    return cur


# ---------------------------------------------------------------------------
# verdicts

class SidedStep(_Step):
    """A TraceStep of one side of an equation; ``side`` is "left" or "right"."""

    __slots__ = ("side",)
    _fields = ("side", "rule", "before", "after")

    def __init__(self, side: str, rule: str, before: UExpr, after: UExpr):
        self._log, self._k, self.rule, self.side = _Log(before, [(None, after)]), 0, rule, side


@dataclass(frozen=True)
class Equal:
    trace: tuple[SidedStep, ...]


@dataclass(frozen=True)
class NotEqual:
    oracle: str
    bindings: tuple[tuple[str, str], ...]

    def binding_dict(self) -> dict[str, str]:
        return dict(self.bindings)


@dataclass(frozen=True)
class Unknown:
    pass


UNKNOWN = Unknown()
Verdict = Equal | NotEqual | Unknown


# ---------------------------------------------------------------------------
# refutation oracles.  Inputs are normal forms; each pattern's hypotheses are
# certified through attrs_of, so a NotEqual holds under every instantiation
# consistent with the declared attributes.

def _oracle_noid(a: UExpr, b: UExpr) -> NotEqual | None:
    # no tower collapses onto its own nonprincipal exponent: p^q != q
    match a:
        case Exp1(base=p, exp=q) if _same(q, b) and attrs_of(q).nonprincipal:
            return NotEqual("O-NOID", (("p", str(p)), ("q", str(q))))
    return None


def _oracle_inj_exp(a: UExpr, b: UExpr) -> NotEqual | None:
    match a, b:
        # p^a vs p^b: distinct scalar exponents on a nonprincipal base differ
        case (
            Exp1(base=p, exp=Nat(value=m)),
            Exp1(base=p2, exp=Nat(value=n)),
        ) if _same(p, p2) and m != n and m >= 2 and n >= 2 and attrs_of(p).nonprincipal:
            return NotEqual(
                "O-INJ-EXP", (("p", str(p)), ("a", str(m)), ("b", str(n)))
            )
    return None


def _oracle_neqr(a: UExpr, b: UExpr) -> NotEqual | None:
    # p^a * p^b never reassembles into p^(a+b) for nonprincipal p
    match a, b:
        case (
            Prod(
                left=Exp1(base=p1, exp=Nat(value=m)),
                right=Exp1(base=p2, exp=Nat(value=n)),
            ),
            Exp1(base=p3, exp=Nat(value=s)),
        ) if _same(p1, p2) and _same(p1, p3) and m + n == s and attrs_of(p1).nonprincipal:
            return NotEqual(
                "O-NEQR", (("p", str(p1)), ("a", str(m)), ("b", str(n)))
            )
    return None


def _scalar_multiple(t: UExpr) -> tuple[int, UExpr]:
    match t:
        case Prod(left=Nat(value=a), right=p):
            return a, p
    return 1, t


def _oracle_mal(a: UExpr, b: UExpr) -> NotEqual | None:
    # translated scalar multiples of a nonprincipal p keep the coefficient:
    # u + a*p = v + b*p forces a = b
    match a, b:
        case Sum(left=u, right=t1), Sum(left=v, right=t2):
            c1, p1 = _scalar_multiple(t1)
            c2, p2 = _scalar_multiple(t2)
            if _same(p1, p2) and c1 != c2 and attrs_of(p1).nonprincipal:
                return NotEqual(
                    "O-MAL",
                    (
                        ("u", str(u)),
                        ("v", str(v)),
                        ("a", str(c1)),
                        ("b", str(c2)),
                        ("p", str(p1)),
                    ),
                )
    return None


def _oracle_hs(a: UExpr, b: UExpr) -> NotEqual | None:
    # a sum never equals a product whose right factor concentrates on every
    # divisibility class (all four parts nonprincipal)
    match a, b:
        case Sum(left=q, right=p), Prod(left=s, right=r):
            if (
                attrs_of(p).nonprincipal
                and attrs_of(q).nonprincipal
                and attrs_of(s).nonprincipal
                and attrs_of(r).nonprincipal
                and attrs_of(r).all_divisible
            ):
                return NotEqual(
                    "O-HS",
                    (("q", str(q)), ("p", str(p)), ("s", str(s)), ("r", str(r))),
                )
    return None


_ORACLES = (_oracle_noid, _oracle_inj_exp, _oracle_neqr, _oracle_mal, _oracle_hs)


def find_refutation(a: UExpr, b: UExpr) -> NotEqual | None:
    """Try every oracle in both orientations on a pair of normal forms."""
    while not (v := _oracle_noid(a, b) or _oracle_noid(b, a)):
        match a, b:
            # a^p vs a^q: exponentiation with a fixed scalar base is
            # injective, so the question reduces to p vs q; no oracle after
            # O-NOID matches a^p vs a^q
            case (
                Exp1(base=Nat(value=c), exp=p),
                Exp1(base=Nat(value=d), exp=q),
            ) if c == d and c >= 2 and not _same(p, q):
                a, b = p, q
            case _:
                for fn in _ORACLES[1:]:
                    if v := fn(a, b) or fn(b, a):
                        return v
                return None
    return v


def prove_equal(e1: UExpr, e2: UExpr, cap: int = DEFAULT_CAP) -> Verdict:
    """Equal (normal forms coincide, with the combined trace), NotEqual (an
    oracle's hypotheses are certified), or Unknown.  Two identical sides
    are Equal with an empty trace even when normalizing them passes the cap
    or the rewrite limit."""
    try:
        n1, t1 = normalize_with_trace(e1, cap)
        n2, t2 = normalize_with_trace(e2, cap)
    except (CapExceeded, RuleLimitExceeded):
        if _same(e1, e2):
            return Equal(())
        raise
    if _same(n1, n2):
        return Equal(tuple(
            SidedStep._of(s._log, s._k, side=side, rule=s.rule)
            for side, t in (("left", t1), ("right", t2)) for s in t
        ))
    return find_refutation(n1, n2) or UNKNOWN


__all__ = [
    "CATALOG",
    "Equal",
    "MAX_STEPS",
    "NotEqual",
    "RULE_IDS",
    "RuleLimitExceeded",
    "SidedStep",
    "TraceStep",
    "UNKNOWN",
    "Unknown",
    "Verdict",
    "find_refutation",
    "measure",
    "normalize",
    "normalize_with_trace",
    "prove_equal",
    "replay_trace",
    "rule_trace",
]
