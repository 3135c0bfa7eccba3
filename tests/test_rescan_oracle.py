"""The one-pass normalizer against the root-rescanning engine it replaced.

Both must produce the same normal form, fire the same rules in the same
order with the same whole-tree snapshots, or raise the same exception.
"""

import random
from dataclasses import fields
from unittest import mock

import pytest

import _rescan
from ultraexp.expr import (
    AttrSet,
    CapExceeded,
    DEFAULT_CAP,
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    Prod,
    Sum,
    Var,
    _children,
    _same,
    format_expr,
    parse_expr,
)
from ultraexp import rewrite
from ultraexp.rewrite import normalize_with_trace

NP = AttrSet(nonprincipal=True)
LIFTS = (
    LiftFn("log", 2), LiftFn("log", 3), LiftFn("pow", 2), LiftFn("Omega"),
    LiftFn("F"), LiftFn("G"), LiftFn("H"),
)


def _rand_tree(rng: random.Random, depth: int, with_vars: bool, shared: list):
    if shared and rng.random() < 0.1:
        return rng.choice(shared)  # the same object in two places
    if depth == 0 or rng.random() < 0.25:
        if with_vars and rng.random() < 0.4:
            name = rng.choice("pqr")
            return Var(name, NP if name == "p" else AttrSet())
        return Nat(rng.choice((1, 1, 2, 3, 4, 8, 9, 16, 27, 5, 6)))
    kind = rng.randrange(5)
    a = _rand_tree(rng, depth - 1, with_vars, shared)
    if kind == 4:
        e = Lift(rng.choice(LIFTS), a)
    else:
        b = _rand_tree(rng, depth - 1, with_vars, shared)
        e = (Sum, Prod, Exp1, Exp2)[kind](a, b)
    shared.append(e)
    return e


def _normalize(e, max_steps=rewrite.MAX_STEPS, check_measure=False, **kw):
    """The one-pass engine under the oracle's options: max_steps through the
    module's step limit.  The measure is left to the oracle, so a firing that
    does not lower it shows as a mismatch."""
    with mock.patch.object(rewrite, "MAX_STEPS", max_steps):
        return normalize_with_trace(e, **kw)


def _run(engine, e, **kw):
    try:
        nf, trace = engine(e, **kw)
    except Exception as exc:  # the outcome under test includes the exception
        return ("raised", type(exc), str(exc))
    return (
        "normal",
        format_expr(nf),
        [s.rule for s in trace],
        [(format_expr(s.before), format_expr(s.after)) for s in trace],
    )


def _corpus():
    """3000 seeded random trees, each with the engine options to run it
    under: caps, small step budgets and measure checks on some."""
    rng = random.Random(20)
    for i in range(3000):
        e = _rand_tree(rng, rng.randint(2, 5), with_vars=i % 3 != 0, shared=[])
        kw = {"check_measure": i % 4 == 0}
        if i % 10 == 0:
            kw["max_steps"] = rng.randint(0, 4)
        if i % 7 == 0:
            kw["cap"] = 1 << 16
        yield e, kw


def test_random_trees_match_rescanning_engine():
    firings = 0
    raised = set()
    for e, kw in _corpus():
        want = _run(_rescan.normalize_with_trace, e, **kw)
        assert _run(_normalize, e, **kw) == want, format_expr(e)
        if want[0] == "normal":
            firings += len(want[2])
        else:
            raised.add(want[1].__name__)
    assert firings > 3000
    assert raised == {"CapExceeded", "RuleLimitExceeded"}


def _rebuilt_equal_children(before, after) -> int:
    """Children on the rewrite path of one step that are new objects equal
    to the children they replaced.

    The path runs from the root down the one child that differs by
    identity, and ends where the type or a field changes or where more than
    one child differs: at the rewritten node.
    """
    count = 0
    o, n = before, after
    while o is not n and type(o) is type(n) and (type(o) is not Lift or o.fn == n.fn):
        pairs = [(a, b) for a, b in zip(_children(o), _children(n)) if a is not b]
        count += sum(_same(a, b) for a, b in pairs)
        if len(pairs) != 1:
            break
        o, n = pairs[0]
    return count


def test_snapshots_share_every_unchanged_subtree():
    # a settled node is the object the previous snapshot holds, so two
    # snapshots differ only along the path to the rewritten node
    firings = 0
    for e, kw in _corpus():
        try:
            _, trace = normalize_with_trace(e, kw.get("cap", DEFAULT_CAP))
        except CapExceeded:
            continue
        firings += len(trace)
        assert sum(_rebuilt_equal_children(s.before, s.after) for s in trace) == 0, (
            format_expr(e)
        )
    assert firings > 3000


def _chain(n: int) -> str:
    return " * ".join(f"2 ^ a{i} * 4 ^ b{i}" for i in range(n))


def _same_snapshots(trace, want) -> bool:
    """Every ``after`` of one trace equals the other's, node for node.

    Consecutive snapshots share all but the rewritten path, so a pair of
    subtrees found equal is remembered and not walked again; both traces
    keep those subtrees alive, so their ids stay unique.  Equal trees format
    identically, and formatting all 599 snapshots of the 200-block chain
    twice would take seconds.
    """
    seen: set[tuple[int, int]] = set()
    for s, w in zip(trace, want, strict=True):
        todo = [(s.after, w.after)]
        while todo:
            x, y = todo.pop()
            if x is y or (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if type(x) is not type(y):
                return False
            if isinstance(x, (Nat, Var)):
                if x != y:
                    return False
                continue
            if isinstance(x, Lift):
                if x.fn != y.fn:
                    return False
                todo.append((x.arg, y.arg))
                continue
            todo += [(getattr(x, f.name), getattr(y, f.name)) for f in fields(x)]
    return True


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_chains_match_rescanning_engine(n):
    e = parse_expr(_chain(n))
    nf, trace = normalize_with_trace(e)
    want_nf, want_trace = _rescan.normalize_with_trace(e)
    assert format_expr(nf) == format_expr(want_nf)
    assert [s.rule for s in trace] == [s.rule for s in want_trace]
    assert len(trace) == 3 * n - 1
    # each step's before is the previous step's after, in both engines
    for t in (trace, want_trace):
        assert t[0].before is e
        assert all(nxt.before is s.after for s, nxt in zip(t, t[1:]))
    assert _same_snapshots(trace, want_trace)
