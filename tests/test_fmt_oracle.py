"""The explicit-stack formatter and the trace splicer against the recursive
formatter they replaced.

``format_expr`` must give the old text for every tree, and
``_format_edits`` must give ``format_expr`` of every snapshot of an edit
log, whatever the edits replace.
"""

import dataclasses
import random
import sys
from unittest import mock

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
    _format_edits,
    format_expr,
    parse_expr,
)
from ultraexp import rewrite
from ultraexp.rewrite import RuleLimitExceeded, _Log, normalize_with_trace

oracle = _fmt_oracle.format_expr


def _snapshots(trace) -> list:
    return [s.before for s in trace[:1]] + [s.after for s in trace]


def _texts(trace) -> list[str]:
    """The formatted snapshots of a trace, read from its edit log."""
    log = trace[0]._log
    return _format_edits(log.root, log.edits)


def test_random_traces_match_recursive_formatter():
    # the trees, caps and step limits of test_rescan_oracle
    rng = random.Random(20)
    firings = 0
    for i in range(3000):
        e = _rand_tree(rng, rng.randint(2, 5), with_vars=i % 3 != 0, shared=[])
        kw = {}
        max_steps = rng.randint(0, 4) if i % 10 == 0 else rewrite.MAX_STEPS
        if i % 7 == 0:
            kw["cap"] = 1 << 16
        assert format_expr(e) == oracle(e)
        try:
            with mock.patch.object(rewrite, "MAX_STEPS", max_steps):
                _, trace = normalize_with_trace(e, **kw)
        except (CapExceeded, RuleLimitExceeded):
            continue
        if not trace:
            continue
        trees = _snapshots(trace)
        want = [oracle(t) for t in trees]
        assert [format_expr(t) for t in trees] == want
        assert _texts(trace) == want
        firings += len(trace)
    assert firings > 3000


@pytest.mark.parametrize("n", [25, 50, 100, 200])
def test_chain_traces_match_recursive_formatter(n):
    _, trace = normalize_with_trace(parse_expr(_chain(n)))
    trees = _snapshots(trace)
    got = _texts(trace)
    assert got == [oracle(t) for t in trees]
    assert got[0] == format_expr(trees[0]) and got[-1] == format_expr(trees[-1])


def _other_node(rng: random.Random, old):
    """old's children under another node type or lift, or another leaf."""
    if type(old) is Lift:
        return Lift(rng.choice(LIFTS), old.arg)
    if _children(old):
        return rng.choice((Sum, Prod, Exp1, Exp2))(*_children(old))
    return Nat(rng.randint(1, 30))


def _hand_made_log(rng: random.Random, e, edits: int) -> _Log:
    """Random edits of e in innermost-first order.  Each edit first closes
    some of the positions on the path to the one before it (the next edit
    lands right of them), then descends through children at or right of
    the next one still open, then replaces the subtree there."""
    log = _Log(e, [])
    path = [[None, 0]]  # [cell, first child index still open]
    for _ in range(edits):
        del path[rng.randint(1, len(path)):]
        tree = log.tree(len(log.edits))
        node = tree
        for cell, _ in path[1:]:
            node = _children(node)[cell[1]]
        while rng.random() < 0.6:
            cell, k = path[-1]
            if k >= len(_children(node)):
                break
            i = rng.randrange(k, len(_children(node)))
            path[-1][1] = i + 1
            path.append([(cell, i), 0])
            node = _children(node)[i]
        shared = list(filter(_children, _children(tree)))
        match rng.randrange(4):
            case 0:  # a fresh subtree, often of another type, maybe shared
                new = _rand_tree(rng, rng.randint(0, 3), True, shared)
            case 1:  # an equal copy: text unchanged
                new = dataclasses.replace(node)
            case 2:
                new = _other_node(rng, node)
            case 3:  # a leaf
                new = Var(rng.choice("pqr"))
        log.edits.append((path[-1][0], new))
        path[-1][1] = 0
    return log


def test_hand_made_chains_match_recursive_formatter():
    rng = random.Random(5)
    edits = 0
    for _ in range(300):
        e = _rand_tree(rng, rng.randint(1, 6), with_vars=True, shared=[])
        log = _hand_made_log(rng, e, rng.randint(1, 8))
        trees = [log.tree(k) for k in range(len(log.edits) + 1)]
        assert _format_edits(e, log.edits) == [oracle(t) for t in trees]
        edits += len(log.edits)
    assert edits > 1000


x, y, z, q = Var("x"), Var("y"), Var("z"), Var("q")
LOG2 = LiftFn("log", 2)


@pytest.mark.parametrize(
    "trees, want",
    [
        # Prod -> Sum on the left of *: the parentheses appear
        (_Log(Prod(Prod(x, y), z), [((None, 0), Sum(x, y))]), ["x * y * z", "(x + y) * z"]),
        # Prod -> Exp1 on the right of *: the parentheses go
        (_Log(Prod(x, Prod(y, z)), [((None, 1), Exp1(y, z))]), ["x * (y * z)", "x * y ^ z"]),
        # Exp1 -> Prod in an exponent, under a lift with a base
        (
            _Log(Lift(LOG2, Exp1(Nat(2), Exp1(Nat(4), q))), [(((None, 0), 1), Prod(Nat(4), q))]),
            ["log(2, 2 ^ 4 ^ q)", "log(2, 2 ^ (4 * q))"],
        ),
        # the lift's base changes, its argument is shared
        (
            _Log(Lift(LOG2, Sum(x, y)), [(None, Lift(LiftFn("log", 3), Sum(x, y)))]),
            ["log(2, x + y)", "log(3, x + y)"],
        ),
        # a Var gains attributes inside E2
        (
            _Log(Exp2(x, Sum(y, z)), [((None, 0), Var("x", AttrSet(esw_member=True)))]),
            ["E2(x, y + z)", "E2(x:{esw}, y + z)"],
        ),
    ],
)
def test_spliced_parentheses_and_fields(trees, want):
    # trees: a log of one edit, whose two trees format as want
    assert [oracle(trees.tree(0)), oracle(trees.tree(1))] == want
    assert _format_edits(trees.root, trees.edits) == want


def test_library_trace_with_lift_base():
    _, trace = normalize_with_trace(parse_expr("log(2, 4 ^ (q * 1)) * (3 * x) + log(3, 9 ^ q)"))
    trees = _snapshots(trace)
    assert len(trace) >= 4
    assert _texts(trace) == [oracle(t) for t in trees]


def _deep(levels: int):
    e = Var("x")
    for i in range(levels):
        e = Sum(e, Nat(i % 7 + 1)) if i % 2 else Exp1(Nat(2), e)
    return e


def test_deep_tree_formats_without_recursion():
    e = _deep(10_000)
    # the innermost leaf replaced: every ancestor rebuilt
    node, cell = e, None
    while _children(node):
        i = 1 if type(node) is Exp1 else 0
        node, cell = _children(node)[i], (cell, i)
    log = _Log(e, [(cell, Nat(3))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(30_000)
    try:
        want = [oracle(e), oracle(log.tree(1))]
    finally:
        sys.setrecursionlimit(limit)
    assert want[0].startswith("2 ^ (2 ^ (") and want[1] != want[0]
    assert format_expr(e) == want[0]
    assert _format_edits(e, log.edits) == want
