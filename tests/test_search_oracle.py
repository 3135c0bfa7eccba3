"""The forbid-mask colorer against the per-instance one it replaced.

Both color positions in ascending order under the same symmetry cap, so
they must agree on everything but the clock: outcome, witness, node count
and budget reason, for a single search and for a ``min_forced_n`` scan.
"""

import random
import time
from unittest import mock

import pytest

import _search_oracle
from _dpll import parse_dimacs, solve
from test_enum_oracle import CASES, _rand_config
from ultraexp import prsearch
from ultraexp.prsearch import (
    Avoidable,
    Budget,
    Forced,
    SearchBudget,
    export_cnf,
    find_avoiding_coloring,
    min_forced_n,
    parse_config,
)

SCHUR = "config {x, y, x + y};"
WEAK_SCHUR = "config {x, y, x + y} where distinct(x, y);"
VDW3 = "config {x, x + d, x + 2 * d};"
VDW4 = "config {x, x + d, x + 2 * d, x + 3 * d};"
MULT = "config {x, y, x * y};"


@pytest.fixture
def enumerate_once(monkeypatch):
    """Both colorers read one memoized enumeration per range and mode (the
    new one reads keys, the oracle (values, term_values) pairs), so a sweep
    pays for it once; the enumerator is checked against its own oracle
    elsewhere.  The sweeps give no time budget, so the deadline is never
    read."""
    real, memo = prsearch._instances, {}

    def instances(cfg, lo, hi, coloring, deadline=None, keys=False):
        assert coloring is None
        if (cfg, lo, hi, keys) not in memo:
            memo[cfg, lo, hi, keys] = list(real(cfg, lo, hi, None, keys=keys))
        return iter(memo[cfg, lo, hi, keys])

    monkeypatch.setattr(prsearch, "_instances", instances)
    monkeypatch.setattr(_search_oracle, "_instances", instances)


def _key(out):
    """Everything but Budget.elapsed."""
    return ("budget", out.nodes, out.reason) if isinstance(out, Budget) else out


def _search_both(cfg, k, lo, hi, budget):
    got, nodes = prsearch._search(cfg, k, lo, hi, budget, time.monotonic())
    want, want_nodes = _search_oracle._search(cfg, k, lo, hi, budget, time.monotonic())
    assert (_key(got), nodes) == (_key(want), want_nodes), (k, lo, hi, budget)
    return got


def _min_forced_both(cfg, k, lo, n_max, budget):
    got = min_forced_n(cfg, k, lo, n_max, budget)
    with mock.patch.object(prsearch, "_search", _search_oracle._search):
        want = min_forced_n(cfg, k, lo, n_max, budget)
    assert _key(got) == _key(want), (k, lo, n_max, budget)


def _budgets(rng):
    return [SearchBudget(max_nodes=20_000), SearchBudget(max_nodes=rng.randint(0, 50))]


def _agree(cfg, k, lo, hi, budget, scan=True, dpll=False):
    """Search [lo..hi], and scan N up to hi, under one node budget."""
    out = _search_both(cfg, k, lo, hi, budget)
    if dpll and not isinstance(out, Budget):
        model = solve(*parse_dimacs(export_cnf(cfg, k, lo, hi)))
        assert (model is not None) == isinstance(out, Avoidable), (k, lo, hi)
    if scan:
        _min_forced_both(cfg, k, lo, hi, budget)


@pytest.mark.usefixtures("enumerate_once")
@pytest.mark.parametrize("text,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_cases_match_the_oracle(text, lo, hi):
    cfg, rng = parse_config(text), random.Random(text)
    for k in (1, 2, 3):
        budgets = _budgets(rng)
        scan = rng.choice(budgets)
        for budget in budgets:
            _agree(cfg, k, lo, hi, budget, scan=budget is scan)


@pytest.mark.usefixtures("enumerate_once")
def test_random_configs_match_the_oracle_and_dpll():
    rng = random.Random(20261019)
    for _ in range(200):
        cfg = parse_config(_rand_config(rng))
        lo = rng.randint(1, 4)
        hi = lo + rng.randint(0, 30)
        # a scan searches every [lo..N] afresh, so it costs about the range
        # times a search; ranges with over 1000 instances are searched only
        scan = len(list(prsearch._instances(cfg, lo, hi, None))) <= 1000
        budget = rng.choice(_budgets(rng))
        _agree(cfg, rng.randint(1, 3), lo, hi, budget, scan, dpll=hi - lo <= 12)


@pytest.mark.parametrize("text,k,lo,hi,nodes", [
    (SCHUR, 2, 1, 5, 5),
    (SCHUR, 3, 1, 14, 197),
    (WEAK_SCHUR, 3, 1, 24, 11_306),
    (VDW3, 3, 1, 27, 30_284),
    (VDW4, 2, 1, 35, 4_844),
    (MULT, 2, 2, 32, 157),
    (MULT, 2, 1, 10, 1),  # {1} from x = y = 1 is a one-position instance
])
def test_pinned_node_counts(text, k, lo, hi, nodes):
    assert find_avoiding_coloring(parse_config(text), k, lo, hi) == Forced(nodes)


@pytest.mark.parametrize("text,k,hi", [(SCHUR, 4, 43), (VDW3, 3, 26)])
def test_boundary_witnesses_match_the_oracle(text, k, hi):
    cfg = parse_config(text)
    got = find_avoiding_coloring(cfg, k, 1, hi)
    assert isinstance(got, Avoidable)
    assert _search_oracle._search(cfg, k, 1, hi, SearchBudget(), time.monotonic())[0] == got
