"""The keys the generated enumerator emits, and the DIMACS export that joins
its clauses from a literal table, against the generic Python they replaced.

Keys must come out in the same order with repeats kept, and the export must
give the same bytes, for every color count.
"""

import random

import pytest

import _cnf_oracle
from test_enum_oracle import CASES, WIDE, _rand_config
from ultraexp import prsearch
from ultraexp.prsearch import export_cnf, parse_config

# up to 8 terms a key is sorted by a compare-and-swap network, past that by
# one sorted() call; small values make repeats common in both
EXTRA = [
    ("config {x, y, x + y};", 1, 30),  # x = y repeats a value
    ("config {x, 2 * x, x + x};", 1, 40),  # every instance repeats one
    ("config {x};", 3, 9),  # one term
    ("config {x * x};", 1, 50),
    ("config {2, x};", 1, 6),  # a constant term, in range or not
    ("config {7, x, x + 7} where x > 1;", 5, 20),
    ("config {a, b, c, a + b, b + c, a + c, a + b + c, 2 * a};", 1, 12),  # 8 terms
    ("config {a, b, c, a + b, b + c, a + c, a + b + c, 2 * a, 2 * b};", 1, 12),  # 9 terms
    ("config {x, x + d, x + 2 * d, x + 3 * d, x + 4 * d, x + 5 * d, x + 6 * d, "
     "x + 7 * d, x + 8 * d};", 2, 40),  # 9 distinct values
]


def _same(cfg, lo, hi, ks=(1, 2, 3, 4)):
    got = list(prsearch._instances(cfg, lo, hi, None, keys=True))
    assert got == list(_cnf_oracle._keys(cfg, lo, hi))
    for k in ks:
        assert export_cnf(cfg, k, lo, hi) == _cnf_oracle.export_cnf(cfg, k, lo, hi), k
    return got


@pytest.mark.parametrize("text,lo,hi", CASES + EXTRA, ids=[c[0] for c in CASES + EXTRA])
def test_cases_match_the_oracle(text, lo, hi):
    _same(parse_config(text), lo, hi)


def test_keys_with_and_without_repeated_values_occur():
    # both yields after the sorting network, and the sorted() line past it
    for text, lo, hi in EXTRA[0], EXTRA[6], EXTRA[7]:
        cfg = parse_config(text)
        sizes = {len(key) for key in prsearch._instances(cfg, lo, hi, None, keys=True)}
        assert min(sizes) < len(cfg.terms) == max(sizes), text


@pytest.mark.parametrize("text,lo,hi,_", WIDE, ids=["16", "17", "33", "17-late-color"])
def test_wide_configs_match_the_oracle(text, lo, hi, _):
    assert len(_same(parse_config(text), lo, hi)) > 20


def test_random_configs_match_the_oracle():
    rng = random.Random(20261020)
    for _ in range(150):
        cfg = parse_config(_rand_config(rng))
        lo = rng.randint(1, 4)
        _same(cfg, lo, lo + rng.randint(0, 24), ks=(rng.randint(1, 4),))
