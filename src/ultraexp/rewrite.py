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
    Var,
    _checked_pow,
    _children,
    _eval_lift,
    _same,
    _with_children,
    attrs_of,
    subexprs,
)

MAX_STEPS = 10_000


class RuleLimitExceeded(RuntimeError):
    """Rewrite step budget blown; indicates a termination bug, never expected."""


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

def _foldable_shape(e: UExpr) -> bool:
    match e:
        case (
            Sum(left=Nat(), right=Nat())
            | Prod(left=Nat(), right=Nat())
            | Exp1(base=Nat(), exp=Nat())
            | Exp2(first=Nat(), second=Nat())
            | Lift(arg=Nat())
        ):
            return True
        case (
            Exp1(exp=Nat(value=1))
            | Exp1(base=Nat(value=1))
            | Prod(left=Nat(value=1))
            | Prod(right=Nat(value=1))
        ):
            return True
    return False


def _peval(e: UExpr, cap: int) -> int | None:
    """Partial evaluation absorbing the unit laws (1*p, p*1, p^1 pass
    through, 1^p is 1 even when p has no value).  Invariant under every
    catalog rule, which is what makes the measure's base test stable while
    scalar subtrees fold.  None means no value (free Var, stuck Lift, or
    past cap)."""
    match e:
        case Nat(value=v):
            return v
        case Sum(left=a, right=b):
            x, y = _peval(a, cap), _peval(b, cap)
            if x is None or y is None:
                return None
            return x + y if x + y <= cap else None
        case Prod(left=a, right=b):
            x, y = _peval(a, cap), _peval(b, cap)
            if x == 1:
                return y
            if y == 1:
                return x
            if x is None or y is None:
                return None
            return x * y if x * y <= cap else None
        case Exp1(base=b, exp=x) | Exp2(first=x, second=b):
            bv, xv = _peval(b, cap), _peval(x, cap)
            if bv == 1:
                return 1
            if xv == 1:
                return bv
            if bv is None or xv is None:
                return None
            try:
                return _checked_pow(bv, xv, cap)
            except CapExceeded:
                return None
        case Lift(fn=fn, arg=a):
            av = _peval(a, cap)
            if av is None:
                return None
            try:
                r = _eval_lift(fn, av, cap)
            except (EvalError, CapExceeded):
                return None
            return r if r >= 1 else None
    return None  # Var


def measure(e: UExpr, cap: int = DEFAULT_CAP) -> tuple[int, int, int, int, int, int]:
    """(Exp2 nodes; reducible-base weight over Exp1 nodes; Lift nodes;
    foldable nodes; scalars waiting on the right; tree size).

    The second component charges each Exp1 node for every Exp1 inside its
    base, plus one when the base has a perfect-power value under _peval and
    the exponent is not yet a literal.
    """
    exp2 = bad1 = lift = fold = scal = size = 0
    for node in subexprs(e):
        size += 1
        match node:
            case Exp2():
                exp2 += 1
            case Exp1(base=b, exp=x):
                bad1 += sum(isinstance(n, Exp1) for n in subexprs(b))
                if not isinstance(x, Nat):
                    v = _peval(b, cap)
                    if v is not None and numth.perfect_power(v) is not None:
                        bad1 += 1
            case Lift():
                lift += 1
        if _foldable_shape(node):
            fold += 1
        match node:
            case Sum(left=l, right=Nat()) if not isinstance(l, Nat):
                scal += 1
            case Prod(left=l, right=Nat(value=n)) if n >= 2 and not isinstance(l, Nat):
                scal += 1
    return (exp2, bad1, lift, fold, scal, size)


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
                for parent, siblings, j in reversed(path[:-1]):
                    siblings[j] = after
                    after = _with_children(parent, siblings)
                if check_measure and not measure(after, cap) < measure(whole, cap):
                    raise AssertionError(
                        f"measure did not decrease for {rid}: {whole} -> {after} "
                        f"({measure(whole, cap)} -> {measure(after, cap)})"
                    )
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
        # a^p vs a^q: exponentiation with a fixed scalar base is injective,
        # so the question reduces to p vs q
        case (
            Exp1(base=Nat(value=c), exp=p),
            Exp1(base=Nat(value=d), exp=q),
        ) if c == d and c >= 2 and not _same(p, q):
            return find_refutation(p, q)
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
    for fn in _ORACLES:
        for x, y in ((a, b), (b, a)):
            v = fn(x, y)
            if v is not None:
                return v
    return None


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
