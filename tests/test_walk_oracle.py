"""The walkers folded by ``expr._bottom_up`` against the recursive versions
they replaced (``tests/_walk_oracle.py``).

On seeded random trees, both must give the same value or raise the same
exception with the same message, the same attributes on every subtree, the
same termination measure, and the same tree when a text declares a
variable's attributes differently at different occurrences.
"""

import random

import _walk_oracle as oracle
import test_rescan_oracle
import test_rewrite
from ultraexp.expr import (
    AttrSet,
    CapExceeded,
    Exp1,
    Exp2,
    Nat,
    Var,
    _Parser,
    _children,
    _same,
    _with_children,
    attrs_of,
    eval_principal,
    format_expr,
    parse_equation,
    parse_expr,
    subexprs,
)
from ultraexp.rewrite import _peval, find_refutation, measure, normalize

CAPS = (1 << 64, 1 << 16, 100, 7)
ATTRS = (
    AttrSet(),
    AttrSet(nonprincipal=True),
    AttrSet(add_idempotent=True),
    AttrSet(min_ideal_closure=True),
    AttrSet(all_divisible=True),
    AttrSet(esw_member=True, mul_idempotent=True),
)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the outcome under test includes the exception
        return ("raised", type(exc), str(exc))


def _corpus():
    """Trees from both random generators of the rewrite tests: shared
    subtrees, attributed variables and all seven lifts, with and without
    variables."""
    rng = random.Random(606)
    for i in range(1500):
        yield test_rescan_oracle._rand_tree(
            rng, rng.randint(1, 5), with_vars=i % 3 != 0, shared=[]
        )
    rng = random.Random(607)
    for _ in range(1000):
        yield test_rewrite._rand_tree(rng, rng.randint(1, 4))


def test_eval_matches_recursive_walker():
    outcomes = set()
    for e in _corpus():
        for cap in CAPS:
            want = _outcome(oracle.eval_principal, e, cap)
            assert _outcome(eval_principal, e, cap) == want, (format_expr(e), cap)
            outcomes.add(want[0] if want[0] == "value" else want[1].__name__)
    assert outcomes == {"value", "CapExceeded", "EvalError"}


def test_exp2_reports_the_base_error_first():
    # the base (second) is evaluated before the exponent (first)
    e = Exp2(Var("p"), Nat(99))
    assert _outcome(eval_principal, e, 50) == _outcome(oracle.eval_principal, e, 50)
    assert _outcome(eval_principal, e, 50)[2] == "99 exceeds cap 50"


def test_peval_and_measure_match_recursive_walkers():
    valued = 0
    for e in _corpus():
        for cap in CAPS[:3]:
            v = _peval(e, cap)
            assert v == oracle._peval(e, cap), (format_expr(e), cap)
            valued += v is not None
        assert measure(e) == oracle.measure(e), format_expr(e)
        assert measure(e, 100) == oracle.measure(e, 100), format_expr(e)
    assert valued > 1000


def test_attrs_match_recursive_walker_on_every_subtree():
    nonprincipal = 0
    for e in _corpus():
        for s in subexprs(e):
            a = attrs_of(s)
            assert a == oracle.attrs_of(s), format_expr(s)
            nonprincipal += a.nonprincipal
    assert nonprincipal > 1000


def _redeclare(rng: random.Random, e):
    """e with each variable occurrence given one of ATTRS at random."""
    if type(e) is Var:
        return Var(e.name, rng.choice(ATTRS))
    return _with_children(e, tuple(_redeclare(rng, c) for c in _children(e)))


def _oracle_parse(text: str):
    p = _Parser(text)
    e = p.parse_sum()
    p.require_end()
    return oracle._unify_attrs(e)[0]


def _oracle_parse_equation(text: str):
    p = _Parser(text)
    lhs = p.parse_sum()
    p.require_op("==")
    rhs = p.parse_sum()
    p.require_end()
    return oracle._unify_attrs(lhs, rhs)


def test_parse_unifies_attributes_like_recursive_walker():
    rng = random.Random(608)
    trees = [t for t in _corpus() if any(type(n) is Var for n in subexprs(t))][:800]
    rebuilt = 0
    for lhs, rhs in zip(trees, trees[1:]):
        lhs, rhs = _redeclare(rng, lhs), _redeclare(rng, rhs)
        text = format_expr(lhs)
        got, want = parse_expr(text), _oracle_parse(text)
        assert _same(got, want), text
        rebuilt += not _same(got, lhs)
        text = f"{text} == {format_expr(rhs)}"
        got, want = parse_equation(text), _oracle_parse_equation(text)
        assert _same(got[0], want[0]) and _same(got[1], want[1]), text
    assert rebuilt > 150


# templates of the shapes the refutation oracles look for, over random trees
PAIRS = (
    "{a} ^ {b} == {b}",
    "2 ^ {a} == 2 ^ {b}",
    "{a} ^ 2 == {a} ^ 3",
    "{a} ^ 2 * {a} ^ 3 == {a} ^ 5",
    "{b} + 2 * {a} == {c} + 3 * {a}",
    "{a} + {b} == {c} * {d}",
    "{a} + {b} == {c} * r:{{all_div, nonprincipal}}",
    "p:{{nonprincipal}} ^ {a} == {a}",
    "{a} == {b}",
)


def _refutation_pairs():
    rng = random.Random(609)
    trees = [t for t in _corpus() if any(type(n) is Var for n in subexprs(t))]
    for _ in range(800):
        texts = {k: f"({format_expr(_redeclare(rng, rng.choice(trees)))})" for k in "abcd"}
        try:
            lhs, rhs = (normalize(s) for s in parse_equation(rng.choice(PAIRS).format(**texts)))
        except CapExceeded:
            continue
        # towers of common scalar bases above the pair, some with a
        # different base on one side
        for _ in range(rng.choice((0, 0, 1, 2, 5))):
            c = rng.choice((2, 2, 3, 1))
            lhs, rhs = Exp1(Nat(c), lhs), Exp1(Nat(rng.choice((c, c, c, 2))), rhs)
        yield (lhs, rhs) if rng.random() < 0.5 else (rhs, lhs)


def test_refutation_matches_recursive_search():
    found = set()
    for lhs, rhs in _refutation_pairs():
        want = oracle.find_refutation(lhs, rhs)
        assert find_refutation(lhs, rhs) == want, (format_expr(lhs), format_expr(rhs))
        if want is not None:
            found.add(want.oracle)
    assert found == {"O-NOID", "O-INJ-EXP", "O-NEQR", "O-MAL", "O-HS"}


def test_refutation_down_a_tall_tower():
    # trying both orientations at every level made this exponential in the
    # height when nothing refutes
    lhs, rhs = parse_equation("p:{nonprincipal} ^ 2 == p:{nonprincipal} ^ 3")
    x, y = Var("x"), Var("y")
    for _ in range(60):
        lhs, rhs = Exp1(Nat(2), lhs), Exp1(Nat(2), rhs)
        x, y = Exp1(Nat(3), x), Exp1(Nat(3), y)
    assert find_refutation(lhs, rhs).oracle == "O-INJ-EXP"
    assert find_refutation(x, y) is None
