"""The recursive tree walkers that the one bottom-up traversal in
``ultraexp.expr`` replaced, kept only as a test oracle: principal
evaluation, partial evaluation, attribute propagation, the termination
measure and attribute unification; and the refutation search that recursed
through O-INJ-EXP.

Each recurses one or more interpreter frames per tree level, so trees deeper
than the recursion limit need the limit raised first.  ``measure`` walks the
base of every ``Exp1`` again, so it is quadratic on base-nested towers, and
``find_refutation`` tries both orientations of every pair down a tower of
common scalar bases, so it is exponential in the tower's height.
"""

from __future__ import annotations

from ultraexp import numth
from ultraexp.expr import (
    DEFAULT_CAP,
    EMPTY_ATTRS,
    AttrSet,
    CapExceeded,
    EvalError,
    Exp1,
    Exp2,
    Lift,
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
    subexprs,
)
from ultraexp.rewrite import NotEqual, _oracle_hs, _oracle_mal, _oracle_neqr, _oracle_noid


# ---------------------------------------------------------------------------
# attribute unification

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


# ---------------------------------------------------------------------------
# principal evaluation

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


# ---------------------------------------------------------------------------
# termination measure

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
# refutation search

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


_ORACLES = (_oracle_noid, _oracle_inj_exp, _oracle_neqr, _oracle_mal, _oracle_hs)


def find_refutation(a: UExpr, b: UExpr) -> NotEqual | None:
    """Try every oracle in both orientations on a pair of normal forms."""
    for fn in _ORACLES:
        for x, y in ((a, b), (b, a)):
            v = fn(x, y)
            if v is not None:
                return v
    return None
