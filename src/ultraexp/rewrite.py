"""Normalization and equality checking for exponentiation expressions.

``normalize`` drives a fixed catalog of rewrite rules innermost-first
(post-order, leftmost) to a fixpoint.  Every rule preserves the principal
integer semantics and is sound for the ultrafilter extensions; every firing
strictly decreases a lexicographic termination measure, which the engine can
assert on demand.

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

@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: UExpr
    after: UExpr


def normalize_with_trace(
    e: UExpr,
    cap: int = DEFAULT_CAP,
    max_steps: int = MAX_STEPS,
    check_measure: bool = False,
) -> tuple[UExpr, tuple[TraceStep, ...]]:
    """Normal form and firing sequence, in one bottom-up pass.

    Children are normalized left to right, then the catalog is tried at the
    node, and a replacement is normalized in its place: the post-order,
    leftmost order of searching again from the root after each firing,
    without revisiting subtrees already found normal.  Each step's ``before``
    is the previous ``after``; an ``after`` copies only the root path.
    """
    steps: list[TraceStep] = []
    settled: dict[int, UExpr] = {}  # normal subtrees, held so ids stay unique
    # [node, its children with the normalized ones first, next child index]
    # for each node from the root down to the one being normalized
    path = [[e, [*_children(e)], 0]]
    whole = e
    last = measure(e, cap) if check_measure else None  # measure(whole)
    while True:
        node, kids, i = path[-1]
        if id(node) not in settled:
            if i < len(kids):
                path.append([kids[i], [*_children(kids[i])], 0])
                continue
            node = _with_children(node, kids)
            for rid, fn in CATALOG:
                out = fn(node, cap)
                if out is not None:
                    break
            if out is not None:
                after = out
                # each rebuilt ancestor replaces the node in its entry, so a
                # node settles as the very object this snapshot holds
                for entry in reversed(path[:-1]):
                    parent, siblings, j = entry
                    siblings[j] = after
                    after = entry[0] = _with_children(parent, siblings)
                if check_measure:
                    m = measure(after, cap)
                    if not m < last:
                        raise AssertionError(
                            f"measure did not decrease for {rid}: {whole} -> {after} "
                            f"({last} -> {m})"
                        )
                    last = m
                steps.append(TraceStep(rid, whole, after))
                if len(steps) > max_steps:
                    raise RuleLimitExceeded(f"more than {max_steps} rewrites from {e}")
                whole = after
                path[-1] = [out, [*_children(out)], 0]
                continue
            settled[id(node)] = node
        path.pop()
        if not path:
            return node, tuple(steps)
        path[-1][1][path[-1][2]] = node
        path[-1][2] += 1


def normalize(
    e: UExpr,
    cap: int = DEFAULT_CAP,
    max_steps: int = MAX_STEPS,
    check_measure: bool = False,
) -> UExpr:
    """Unique normal form under the rule catalog (innermost-first fixpoint)."""
    return normalize_with_trace(e, cap, max_steps, check_measure)[0]


def rule_trace(
    e: UExpr, cap: int = DEFAULT_CAP, max_steps: int = MAX_STEPS
) -> tuple[TraceStep, ...]:
    """The exact firing sequence normalize performs, as whole-tree snapshots."""
    return normalize_with_trace(e, cap, max_steps)[1]


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

@dataclass(frozen=True)
class SidedStep:
    side: str  # "left" | "right"
    rule: str
    before: UExpr
    after: UExpr


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
    oracle's hypotheses are certified), or Unknown."""
    n1, t1 = normalize_with_trace(e1, cap)
    n2, t2 = normalize_with_trace(e2, cap)
    if _same(n1, n2):
        trace = tuple(SidedStep("left", s.rule, s.before, s.after) for s in t1)
        trace += tuple(SidedStep("right", s.rule, s.before, s.after) for s in t2)
        return Equal(trace)
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
