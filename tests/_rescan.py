"""The root-rescanning rewrite engine that ``rewrite.normalize_with_trace``
replaced, kept only as a test oracle.

After every firing it searches the whole tree again from the root, post-order
and leftmost, so it is quadratic in the number of firings but obviously
follows the innermost-first strategy the catalog is specified with.
"""

from __future__ import annotations

from ultraexp.expr import DEFAULT_CAP, Exp1, Exp2, Lift, Prod, Sum, UExpr
from ultraexp.rewrite import CATALOG, MAX_STEPS, RuleLimitExceeded, TraceStep, measure


def _step(e: UExpr, cap: int) -> tuple[UExpr, str] | None:
    # post-order, leftmost: children are fully normal before a node is tried
    match e:
        case Sum(left=l, right=r):
            if s := _step(l, cap):
                return Sum(s[0], r), s[1]
            if s := _step(r, cap):
                return Sum(l, s[0]), s[1]
        case Prod(left=l, right=r):
            if s := _step(l, cap):
                return Prod(s[0], r), s[1]
            if s := _step(r, cap):
                return Prod(l, s[0]), s[1]
        case Exp1(base=l, exp=r):
            if s := _step(l, cap):
                return Exp1(s[0], r), s[1]
            if s := _step(r, cap):
                return Exp1(l, s[0]), s[1]
        case Exp2(first=l, second=r):
            if s := _step(l, cap):
                return Exp2(s[0], r), s[1]
            if s := _step(r, cap):
                return Exp2(l, s[0]), s[1]
        case Lift(fn=fn, arg=a):
            if s := _step(a, cap):
                return Lift(fn, s[0]), s[1]
    for rid, fn in CATALOG:
        out = fn(e, cap)
        if out is not None:
            return out, rid
    return None


def normalize_with_trace(
    e: UExpr,
    cap: int = DEFAULT_CAP,
    max_steps: int = MAX_STEPS,
    check_measure: bool = False,
) -> tuple[UExpr, tuple[TraceStep, ...]]:
    steps: list[TraceStep] = []
    cur = e
    while True:
        s = _step(cur, cap)
        if s is None:
            return cur, tuple(steps)
        nxt, rid = s
        if check_measure and not measure(nxt, cap) < measure(cur, cap):
            raise AssertionError(
                f"measure did not decrease for {rid}: {cur} -> {nxt} "
                f"({measure(cur, cap)} -> {measure(nxt, cap)})"
            )
        steps.append(TraceStep(rid, cur, nxt))
        if len(steps) > max_steps:
            raise RuleLimitExceeded(f"more than {max_steps} rewrites from {e}")
        cur = nxt
