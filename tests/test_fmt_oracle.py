"""The explicit-stack formatter and the trace splicer against the recursive
formatter they replaced.

``format_expr`` must give the old text for every tree, and
``_format_chain`` must give ``format_expr`` of every snapshot of a trace,
however the snapshots differ.
"""

import dataclasses
import random
import sys

import pytest

import _fmt_oracle
from test_rescan_oracle import LIFTS, _chain, _rand_tree
from ultraexp.expr import (
    AttrSet,
    CapExceeded,
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    Prod,
    Sum,
    Var,
    _children,
    _format_chain,
    _with_children,
    format_expr,
    parse_expr,
)
from ultraexp.rewrite import RuleLimitExceeded, normalize_with_trace

oracle = _fmt_oracle.format_expr


def _snapshots(trace) -> list:
    return [s.before for s in trace[:1]] + [s.after for s in trace]


def test_random_traces_match_recursive_formatter():
    # the trees, caps and step limits of test_rescan_oracle
    rng = random.Random(20)
    firings = 0
    for i in range(3000):
        e = _rand_tree(rng, rng.randint(2, 5), with_vars=i % 3 != 0, shared=[])
        kw = {}
        if i % 10 == 0:
            kw["max_steps"] = rng.randint(0, 4)
        if i % 7 == 0:
            kw["cap"] = 1 << 16
        assert format_expr(e) == oracle(e)
        try:
            _, trace = normalize_with_trace(e, **kw)
        except (CapExceeded, RuleLimitExceeded):
            continue
        trees = _snapshots(trace)
        want = [oracle(t) for t in trees]
        assert [format_expr(t) for t in trees] == want
        assert _format_chain(trees) == want
        firings += len(trace)
    assert firings > 3000


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_chain_traces_match_recursive_formatter(n):
    _, trace = normalize_with_trace(parse_expr(_chain(n)))
    trees = _snapshots(trace)
    got = _format_chain(trees)
    assert got == [oracle(t) for t in trees]
    assert got[0] == format_expr(trees[0]) and got[-1] == format_expr(trees[-1])


def _replace(rng: random.Random, e, new):
    """e with the subtree at a random position replaced by new(old subtree);
    the ancestors are rebuilt, every other subtree is shared."""
    path = [e]
    while _children(path[-1]) and rng.random() < 0.7:
        path.append(rng.choice(_children(path[-1])))
    out = new(path[-1])
    for parent, old in zip(reversed(path[:-1]), reversed(path)):
        out = _with_children(parent, tuple(out if c is old else c for c in _children(parent)))
    return out


def _other_node(rng: random.Random, old):
    """old's children under another node type or lift, or another leaf."""
    if type(old) is Lift:
        return Lift(rng.choice(LIFTS), old.arg)
    if _children(old):
        return rng.choice((Sum, Prod, Exp1, Exp2))(*_children(old))
    return Nat(rng.randint(1, 30))


def test_hand_made_chains_match_recursive_formatter():
    rng = random.Random(5)
    steps = 0
    for _ in range(300):
        trees = [_rand_tree(rng, rng.randint(1, 6), with_vars=True, shared=[])]
        for _ in range(rng.randint(1, 8)):
            shared = list(filter(_children, _children(trees[-1])))
            nxt = trees[-1]
            match rng.randrange(4):
                case 0:  # a fresh subtree, often of another type, maybe shared
                    nxt = _replace(rng, nxt, lambda old: _rand_tree(rng, rng.randint(0, 3), True, shared))
                case 1:  # an equal copy: ancestors rebuilt, text unchanged
                    nxt = _replace(rng, nxt, dataclasses.replace)
                case 2:
                    nxt = _replace(rng, nxt, lambda old: _other_node(rng, old))
                case 3:  # two positions at once
                    for _ in range(2):
                        nxt = _replace(rng, nxt, lambda old: Var(rng.choice("pqr")))
            trees.append(nxt)
        assert _format_chain(trees) == [oracle(t) for t in trees]
        steps += len(trees) - 1
    assert steps > 1000


x, y, z, q = Var("x"), Var("y"), Var("z"), Var("q")
LOG2 = LiftFn("log", 2)


@pytest.mark.parametrize(
    "trees, want",
    [
        # Prod -> Sum on the left of *: the parentheses appear
        ([Prod(Prod(x, y), z), Prod(Sum(x, y), z)], ["x * y * z", "(x + y) * z"]),
        # Prod -> Exp1 on the right of *: the parentheses go
        ([Prod(x, Prod(y, z)), Prod(x, Exp1(y, z))], ["x * (y * z)", "x * y ^ z"]),
        # Exp1 -> Prod in an exponent, under a lift with a base
        (
            [Lift(LOG2, Exp1(Nat(2), Exp1(Nat(4), q))), Lift(LOG2, Exp1(Nat(2), Prod(Nat(4), q)))],
            ["log(2, 2 ^ 4 ^ q)", "log(2, 2 ^ (4 * q))"],
        ),
        # the lift's base changes, its argument is shared
        ([Lift(LOG2, Sum(x, y)), Lift(LiftFn("log", 3), Sum(x, y))], ["log(2, x + y)", "log(3, x + y)"]),
        # a Var gains attributes inside E2
        (
            [Exp2(x, Sum(y, z)), Exp2(Var("x", AttrSet(esw_member=True)), Sum(y, z))],
            ["E2(x, y + z)", "E2(x:{esw}, y + z)"],
        ),
    ],
)
def test_spliced_parentheses_and_fields(trees, want):
    assert [oracle(t) for t in trees] == want
    assert _format_chain(trees) == want


def test_library_trace_with_lift_base():
    _, trace = normalize_with_trace(parse_expr("log(2, 4 ^ (q * 1)) * (3 * x) + log(3, 9 ^ q)"))
    trees = _snapshots(trace)
    assert len(trace) >= 4
    assert _format_chain(trees) == [oracle(t) for t in trees]


def _deep(levels: int):
    e = Var("x")
    for i in range(levels):
        e = Sum(e, Nat(i % 7 + 1)) if i % 2 else Exp1(Nat(2), e)
    return e


def test_deep_tree_formats_without_recursion():
    e = _deep(10_000)
    # the innermost leaf replaced: every ancestor rebuilt
    path = [e]
    while _children(path[-1]):
        path.append(_children(path[-1])[-1 if type(path[-1]) is Exp1 else 0])
    e2 = Nat(3)
    for parent, old in zip(reversed(path[:-1]), reversed(path)):
        e2 = _with_children(parent, tuple(e2 if c is old else c for c in _children(parent)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(30_000)
    try:
        want = [oracle(e), oracle(e2)]
    finally:
        sys.setrecursionlimit(limit)
    assert want[0].startswith("2 ^ (2 ^ (") and want[1] != want[0]
    assert format_expr(e) == want[0]
    assert _format_chain([e, e2]) == want
