"""The declaration-order enumerator against the one it replaced.

Both must list the same instances in the same order, and find the same
first monochromatic instance under any coloring.
"""

import random
import sys

import pytest

import _enum_oracle
from ultraexp.expr import Nat, Prod, Sum, Var
from ultraexp.prsearch import (
    Coloring,
    ConfigTemplate,
    check_coloring,
    enumerate_instances,
    parse_config,
)

CASES = [
    ("config {x, y, x + y};", 1, 40),
    ("config {x, y, x + y} where x > 3, y >= 5;", 1, 40),
    ("config {x, y, z, x + y + z} where distinct(x, y, z);", 1, 24),
    ("config {x, y, x ^ y} where log2_le(x, y);", 1, 64),  # x declared before y
    ("config {y, x, x ^ 2 + y} where log2_le(x, y);", 1, 64),  # x declared after y
    ("config {x, x + 1} where log2_le(x, x);", 1, 30),
    ("config {3, x, x + 3};", 1, 30),  # a constant term
    ("config {3, 5, x};", 1, 8),  # two constants, colored alike or not
    ("config {50, x};", 1, 30),  # a constant out of range
    ("config {x, y, z, x ^ y ^ z} where x > 1;", 2, 300),
    ("config {x, y, x * y} where x > 1, y > 1;", 3, 60),  # lo > 1
    ("config {x, x ^ y};", 4, 4),  # lo == hi
    ("config {x, x + d, x + 2 * d};", 1, 30),
    ("config {x, y, x ^ y, a, b, a + b} where x > 1, y > 1;", 2, 12),
]


def _same(cfg, lo, hi, rng, colorings=10):
    want = list(_enum_oracle._instances(cfg, lo, hi, None))
    assert enumerate_instances(cfg, lo, hi) == want
    for k in (1, 2, 3):
        for _ in range(colorings):
            col = Coloring(lo, hi, k, tuple(rng.randrange(k) for _ in range(hi - lo + 1)))
            assert check_coloring(col, cfg) == next(
                _enum_oracle._instances(cfg, lo, hi, col), None
            )


@pytest.mark.parametrize("text,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_cases_match_the_oracle(text, lo, hi):
    _same(parse_config(text), lo, hi, random.Random(text))


def _rand_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(names) if rng.random() < 0.8 else str(rng.randint(1, 3))
    op = rng.choice("+*^")
    return f"({_rand_term(rng, names, depth - 1)} {op} {_rand_term(rng, names, depth - 1)})"


def _rand_config(rng):
    names = rng.sample("abcxyz", rng.randint(1, 3))
    terms = [_rand_term(rng, names, 2) for _ in range(rng.randint(1, 3))]
    terms += [v for v in names if rng.random() < 0.7 or not any(v in t for t in terms)]
    rng.shuffle(terms)  # declaration order is the order of first appearance
    cons = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            cons.append(f"{rng.choice(names)} > {rng.randint(1, 3)}")
        elif kind == 1:
            cons.append(f"{rng.choice(names)} >= {rng.randint(1, 4)}")
        elif kind == 2 and len(names) > 1:
            cons.append(f"distinct({', '.join(rng.sample(names, rng.randint(2, len(names))))})")
        else:
            cons.append(f"log2_le({rng.choice(names)}, {rng.choice(names)})")
    where = f" where {', '.join(cons)}" if cons else ""
    return f"config {{{', '.join(terms)}}}{where};"


def test_random_configs_match_the_oracle():
    rng = random.Random(20261018)
    for _ in range(150):
        text = _rand_config(rng)
        lo = rng.randint(1, 4)
        hi = lo + rng.randint(0, 24)
        _same(parse_config(text), lo, hi, rng, colorings=3)


def test_deep_term_matches_the_oracle():
    # 10^4 nested sums compile to one flat function; the oracle recurses
    cfg = parse_config("config {x, " + "x + " * 9999 + "x};")
    col = Coloring(1, 29_999, 2, tuple(n % 2 for n in range(29_999)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(30_000)
    try:
        want = list(_enum_oracle._instances(cfg, 1, 29_999, None))
        first = next(_enum_oracle._instances(cfg, 1, 29_999, col), None)
    finally:
        sys.setrecursionlimit(limit)
    assert [i.term_values for i in want] == [(1, 10_000), (2, 20_000)]
    assert first == want[1]
    assert enumerate_instances(cfg, 1, 29_999) == want
    assert check_coloring(col, cfg) == first


def test_shared_subtree_matches_the_oracle():
    s = Sum(Var("x"), Var("y"))
    cfg = ConfigTemplate(("x", "y"), (Var("x"), Prod(s, s), Sum(s, Nat(2)), Var("y")))
    _same(cfg, 1, 50, random.Random(11))


def test_variable_names_never_reach_the_code():
    shape = ("config {{{0} + {1} * {2} + {3} ^ {4} + {5} * {6}, {0}, {6} + 1}} "
             "where distinct({0}, {6}), log2_le({1}, {2});")
    odd = parse_config(shape.format("val", "sat", "bits", "min", "_power", "r0", "f"))
    plain = parse_config(shape.format(*"abcdegh"))
    _same(odd, 1, 10, random.Random(12), colorings=2)
    got = enumerate_instances(odd, 1, 10)
    assert len(got) > 100
    assert [([v for _, v in i.binding], i.term_values) for i in got] == [
        ([v for _, v in i.binding], i.term_values) for i in enumerate_instances(plain, 1, 10)
    ]
