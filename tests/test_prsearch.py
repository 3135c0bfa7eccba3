import itertools
import json
import random
import time
import types

import pytest

from ultraexp import prsearch
from ultraexp.expr import Exp1, Nat, ParseError, Sum, Var, Exp2
from ultraexp.prsearch import (
    Avoidable,
    Boundary,
    Budget,
    Coloring,
    ConfigTemplate,
    Distinct,
    Forced,
    Instance,
    Log2Le,
    MinBound,
    SearchBudget,
    check_coloring,
    enumerate_instances,
    export_cnf,
    find_avoiding_coloring,
    format_config,
    log_transform,
    min_forced_n,
    parse_config,
)

from _dpll import parse_dimacs, solve
from _search_oracle import schedule
from test_enum_oracle import CASES

SCHUR = "config {x, y, x + y};"
VDW = "config {x, x + d, x + 2 * d};"
EXPCFG = "config {x, y, x ^ y} where x > 1, y > 1;"


# ---------------------------------------------------------------------------
# DSL

def test_parse_config_basic():
    cfg = parse_config(SCHUR)
    assert cfg.variables == ("x", "y")
    assert cfg.terms == (Var("x"), Var("y"), Sum(Var("x"), Var("y")))
    assert cfg.constraints == ()


def test_parse_config_constraints():
    cfg = parse_config(
        "config {x, y, x ^ y} where x > 1, y >= 3, distinct(x, y), log2_le(x, y);"
    )
    assert cfg.constraints == (
        MinBound("x", 2),
        MinBound("y", 3),
        Distinct(("x", "y")),
        Log2Le("x", "y"),
    )


def test_format_config_normalizes_strict_bounds():
    s = format_config(parse_config(EXPCFG))
    assert s == "config {x, y, x ^ y} where x >= 2, y >= 2;"
    assert parse_config(s) == parse_config(EXPCFG)


def test_format_parse_round_trip():
    for text in (
        SCHUR,
        VDW,
        EXPCFG,
        "config {y, x ^ y} where x > 1, y > 1, log2_le(x, y);",
        "config {x, y, x * y} where distinct(x, y);",
        "config {2 * x + 1};",
    ):
        cfg = parse_config(text)
        assert parse_config(format_config(cfg)) == cfg


def test_parse_config_errors():
    text = "config {x, y} where z > 1;"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.offset == text.index("z")
    with pytest.raises(ParseError) as exc:
        parse_config("config {x, y, x + y}")  # missing semicolon
    assert exc.value.offset == len("config {x, y, x + y}")
    text = "config {x} where x < 1;"
    with pytest.raises(ParseError) as exc:
        parse_config(text)  # '<' is not even a token
    assert exc.value.offset == text.index("<")
    text = "config {x} where x + 1;"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.offset == text.index("+")
    assert "'>'" in exc.value.expected and "'>='" in exc.value.expected
    text = "config {x, y} where distinct(x);"
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.offset == text.index("distinct")
    with pytest.raises(ParseError):
        parse_config("config {E1(x, y)};")  # calls excluded from the fragment
    with pytest.raises(ParseError):
        parse_config("config {x:{nonprincipal}};")  # attrs excluded too


def test_config_template_validation():
    with pytest.raises(ValueError):
        ConfigTemplate(("x",), ())
    with pytest.raises(ValueError):
        ConfigTemplate(("x", "z"), (Var("x"),))
    with pytest.raises(ValueError):
        ConfigTemplate(("x",), (Var("x"),), (MinBound("z", 2),))
    with pytest.raises(ValueError):
        ConfigTemplate(("x",), (Exp2(Var("x"), Nat(2)),))
    with pytest.raises(ValueError, match="repeat"):
        ConfigTemplate(("x", "x"), (Var("x"),))


# ---------------------------------------------------------------------------
# coloring container

def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(3, 2, 2, ())
    with pytest.raises(ValueError):
        Coloring(0, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        Coloring(1, 3, 2, (0, 0))
    with pytest.raises(ValueError):
        Coloring(1, 2, 2, (0, 2))
    with pytest.raises(ValueError):
        Coloring(1, 2, 0, (0, 0))
    for bad in (("1", 2, 2, (0, 0)), (1, 2.0, 2, (0, 0)), (1, 2, True, (0, 0)),
                (1, 2, 2, (0.5, 0)), (1, 2, 2, (False, 0)), (1, 2, 2, ("a", 0))):
        with pytest.raises(ValueError):
            Coloring(*bad)
    for text in ("[1, 2]", '{"lo": 1, "hi": 2, "k": 2, "colors": 5}',
                 '{"lo": 1, "hi": 2, "k": 2, "colors": "01"}'):
        with pytest.raises(ValueError):
            Coloring.from_json(text)


def test_coloring_access_and_json():
    c = Coloring(2, 5, 3, (0, 1, 2, 0))
    assert c.color_of(2) == 0 and c.color_of(5) == 0 and c.color_of(4) == 2
    with pytest.raises(ValueError):
        c.color_of(1)
    with pytest.raises(ValueError):
        c.color_of(6)
    again = Coloring.from_json(c.to_json())
    assert again == c
    d = json.loads(c.to_json())
    assert d == {"lo": 2, "hi": 5, "k": 3, "colors": [0, 1, 2, 0]}


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_schur_small():
    insts = enumerate_instances(parse_config(SCHUR), 1, 4)
    assert [i.binding_dict() for i in insts] == [
        {"x": 1, "y": 1},
        {"x": 1, "y": 2},
        {"x": 1, "y": 3},
        {"x": 2, "y": 1},
        {"x": 2, "y": 2},
        {"x": 3, "y": 1},
    ]
    assert insts[0].term_values == (1, 1, 2)
    assert insts[4].term_values == (2, 2, 4)


def test_enumerate_exponential():
    insts = enumerate_instances(parse_config(EXPCFG), 2, 9)
    assert [(i.binding_dict()["x"], i.binding_dict()["y"]) for i in insts] == [
        (2, 2),
        (2, 3),
        (3, 2),
    ]
    assert [i.term_values for i in insts] == [(2, 2, 4), (2, 3, 8), (3, 2, 9)]


def test_enumerate_vdw_smallest():
    insts = enumerate_instances(parse_config(VDW), 1, 3)
    assert len(insts) == 1
    assert insts[0].binding_dict() == {"x": 1, "d": 1}
    assert insts[0].term_values == (1, 2, 3)


def test_enumerate_distinct():
    cfg = parse_config("config {x, y, x + y} where distinct(x, y);")
    insts = enumerate_instances(cfg, 1, 4)
    assert all(i.binding_dict()["x"] != i.binding_dict()["y"] for i in insts)
    assert len(insts) == 4


def test_enumerate_log2_le_matches_brute_force():
    cfg = parse_config("config {y, x ^ y} where x > 1, y > 1, log2_le(x, y);")
    got = {tuple(sorted(i.binding_dict().items())) for i in enumerate_instances(cfg, 2, 64)}
    want = set()
    for x in range(2, 65):
        for y in range(2, 65):
            if (x - 1).bit_length() > y:  # ceil(log2 x) <= y
                continue
            if y < 2 or not (2 <= x**y <= 64):
                continue
            want.add((("x", x), ("y", y)))
    assert got == want


def test_enumerate_bad_range():
    with pytest.raises(ValueError):
        enumerate_instances(parse_config(SCHUR), 4, 2)
    with pytest.raises(ValueError):
        enumerate_instances(parse_config(SCHUR), 0, 2)


def test_enumerate_values_stay_exact():
    # saturation is internal only: emitted term values are true integers
    cfg = parse_config("config {x, y, x ^ y};")
    for inst in enumerate_instances(cfg, 1, 512):
        b = inst.binding_dict()
        assert inst.term_values == (b["x"], b["y"], b["x"] ** b["y"])


def test_enumerate_builds_dataclass_equal_instances():
    # the slots are set directly; the result must be what the dataclass's
    # own constructor builds
    for text, lo, hi in CASES:
        cfg = parse_config(text)
        got = enumerate_instances(cfg, lo, hi)
        want = [Instance(tuple(zip(cfg.variables, v)), t) for v, t in prsearch._instances(cfg, lo, hi, None)]
        assert got == want, text
        assert all(type(i) is Instance for i in got)
        assert list(map(hash, got)) == list(map(hash, want))
        assert list(map(repr, got)) == list(map(repr, want))


# ---------------------------------------------------------------------------
# coloring checks

def test_check_coloring_constant():
    c = Coloring(2, 4, 1, (0, 0, 0))
    inst = check_coloring(c, parse_config(SCHUR))
    assert inst == Instance((("x", 2), ("y", 2)), (2, 2, 4))


def test_check_coloring_schur_avoider():
    c = Coloring(1, 4, 2, (0, 1, 1, 0))
    assert check_coloring(c, parse_config(SCHUR)) is None


def test_check_coloring_matches_unpruned_scan():
    rng = random.Random(21)
    cfgs = [parse_config(SCHUR), parse_config(VDW), parse_config(EXPCFG)]
    for _ in range(120):
        cfg = rng.choice(cfgs)
        lo = rng.randint(1, 3) if cfg.constraints == () else 2
        hi = lo + rng.randint(2, 14)
        k = rng.randint(1, 3)
        col = Coloring(
            lo, hi, k, tuple(rng.randrange(k) for _ in range(hi - lo + 1))
        )
        insts = enumerate_instances(cfg, lo, hi)
        want = next(
            (
                i
                for i in insts
                if len({col.color_of(v) for v in i.term_values}) == 1
            ),
            None,
        )
        assert check_coloring(col, cfg) == want


# ---------------------------------------------------------------------------
# search

def test_find_avoiding_schur_four():
    out = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 4)
    assert isinstance(out, Avoidable)
    assert check_coloring(out.witness, parse_config(SCHUR)) is None
    assert (out.witness.lo, out.witness.hi, out.witness.k) == (1, 4, 2)


def test_find_avoiding_schur_five_forced():
    out = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 5)
    assert isinstance(out, Forced)
    assert out.nodes_explored >= 5


def test_find_avoiding_no_instances():
    cfg = parse_config(EXPCFG)
    out = find_avoiding_coloring(cfg, 2, 1, 3)  # x^y >= 4 never lands in range
    assert isinstance(out, Avoidable)
    assert check_coloring(out.witness, cfg) is None


def test_search_k_validation():
    with pytest.raises(ValueError):
        find_avoiding_coloring(parse_config(SCHUR), 0, 1, 4)


def test_min_forced_validation():
    # the checks find_avoiding_coloring makes, raised before the scan
    cfg = parse_config(SCHUR)
    for k, lo, n_max, msg in ((0, 1, 3, "k >= 1"), (0, 5, 3, "k >= 1"),
                              (2, 5, 3, "1 <= lo"), (2, 0, 3, "1 <= lo"), (2, -2, -1, "1 <= lo")):
        with pytest.raises(ValueError, match=msg):
            min_forced_n(cfg, k, lo, n_max)
    out = min_forced_n(cfg, 2, 3, 3)
    assert isinstance(out, Budget) and (out.reason, out.nodes) == ("n_max", 0)


def test_min_forced_schur_two():
    b = min_forced_n(parse_config(SCHUR), 2, 1, 10)
    assert isinstance(b, Boundary)
    assert (b.last_avoidable, b.first_forced) == (4, 5)
    assert check_coloring(b.witness, parse_config(SCHUR)) is None
    assert b.witness.hi == 4


def test_min_forced_vdw_two():
    b = min_forced_n(parse_config(VDW), 2, 1, 12)
    assert (b.last_avoidable, b.first_forced) == (8, 9)


def test_min_forced_builds_the_enumerator_once(monkeypatch):
    # the scan enumerates every N afresh from one generated source, and a
    # coloring check needs the other one
    built = []
    real = prsearch._enumerator
    monkeypatch.setattr(prsearch, "_enumerator", lambda *a: built.append(a[1]) or real(*a))
    cfg = parse_config(EXPCFG)
    out = min_forced_n(cfg, 2, 2, 40)
    assert isinstance(out, Budget) and out.reason == "n_max"
    assert built == [False]
    inst = check_coloring(Coloring(2, 40, 2, (0,) * 39), cfg)
    assert inst.term_values == (2, 2, 4) and built == [False, True]


def test_key_source_is_built_once_and_shared(monkeypatch):
    # a scan over 14 N, an export and a search on one configuration object
    # all read their keys from one generated source
    built = []
    real = prsearch._enumerator
    monkeypatch.setattr(prsearch, "_enumerator", lambda *a: built.append(a[1:]) or real(*a))
    cfg = parse_config(SCHUR)
    out = min_forced_n(cfg, 3, 1, 30)
    assert isinstance(out, Boundary) and out.first_forced == 14
    assert built == [(False, True)]
    export_cnf(cfg, 2, 1, 20)
    assert isinstance(find_avoiding_coloring(cfg, 2, 1, 20), Forced)
    assert built == [(False, True)]


def test_min_forced_immediately():
    # with one color the very first instance forces
    b = min_forced_n(parse_config("config {x};"), 1, 1, 3)
    assert b == Boundary(None, None, 1)


def test_min_forced_nmax_budget():
    out = min_forced_n(parse_config(SCHUR), 3, 1, 5)
    assert isinstance(out, Budget) and out.reason == "n_max"


def test_budget_nodes():
    out = find_avoiding_coloring(
        parse_config(SCHUR), 2, 1, 5, SearchBudget(max_nodes=1)
    )
    assert isinstance(out, Budget) and out.reason == "nodes"
    assert out.nodes >= 1 and out.elapsed >= 0.0


def test_min_forced_budget_names_the_clock():
    # the time budget runs out before the first N is searched
    out = min_forced_n(parse_config(SCHUR), 2, 1, 10, SearchBudget(max_seconds=0.0))
    assert isinstance(out, Budget) and out.reason == "time"
    assert out.nodes == 0
    out = min_forced_n(parse_config(SCHUR), 2, 1, 10, SearchBudget(max_nodes=0))
    assert isinstance(out, Budget) and out.reason == "nodes"


def _clock_passes_after_enumeration(monkeypatch, reads: int) -> None:
    """prsearch's clock reads 0.0 until its instance enumeration is over and
    ``reads`` more readings were taken, then 100.0."""
    real = prsearch._instances
    done = []
    left = [reads]

    def instances(*args, **kwargs):
        yield from real(*args, **kwargs)
        done.append(True)

    def monotonic():
        if not done:
            return 0.0
        left[0] -= 1
        return 0.0 if left[0] >= 0 else 100.0

    monkeypatch.setattr(prsearch, "_instances", instances)
    monkeypatch.setattr(prsearch, "time", types.SimpleNamespace(monotonic=monotonic))


def test_budget_time(monkeypatch):
    # this search needs ~3*10^4 nodes; the deadline passes once the DFS has
    # begun (after the one reading before it), so the periodic check trips
    _clock_passes_after_enumeration(monkeypatch, reads=1)
    out = find_avoiding_coloring(
        parse_config(VDW), 3, 1, 27, SearchBudget(max_seconds=1.0)
    )
    assert isinstance(out, Budget) and out.reason == "time"
    assert out.nodes == 1024


def test_budget_time_covers_enumeration(monkeypatch):
    # the clock passes the deadline at its first reading after the start:
    # Schur on the first bound, [1..16], has too few candidates for the
    # enumeration to read it, so the check before the first node does
    reads = []

    def monotonic():
        reads.append(1)
        return 0.0 if len(reads) == 1 else 100.0

    monkeypatch.setattr(prsearch, "time", types.SimpleNamespace(monotonic=monotonic))
    start = time.monotonic()
    out = find_avoiding_coloring(
        parse_config(SCHUR), 2, 1, 600, SearchBudget(max_seconds=0.3)
    )
    assert time.monotonic() - start < 1.5
    assert isinstance(out, Budget) and out.reason == "time"
    assert out.nodes == 0  # stopped before the DFS began
    assert len(reads) == 3  # the start, the check before the first node, the elapsed time


def test_deadline_passes_inside_the_second_function(monkeypatch):
    # x0..x15 fill the first generated function with one candidate each, so
    # the 1024th candidate, where the clock is first read, is x16 = 1008
    cfg = parse_config("config {" + ", ".join(f"x{i}" for i in range(17)) + "} where "
                       + ", ".join(f"x{i} > 1999" for i in range(16)) + ";")
    reads = []
    monkeypatch.setattr(prsearch, "time", types.SimpleNamespace(
        monotonic=lambda: reads.append(1) or 100.0))
    got = []
    with pytest.raises(prsearch._OutOfTime):
        for values, _ in prsearch._instances(cfg, 1, 2000, None, 1.0):
            got.append(values)
    assert got == [(2000,) * 16 + (v,) for v in range(1, 1008)]
    assert len(reads) == 1
    # the count carries back across calls: with 40 values for each of x0 and
    # x16, each x0 takes 56 candidates, so the 1024th is x15 once x0 = 19
    cfg = parse_config("config {" + ", ".join(f"x{i}" for i in range(17)) + "} where "
                       + ", ".join(f"x{i} > 39" for i in range(1, 16)) + ";")
    got = []
    with pytest.raises(prsearch._OutOfTime):
        for values, _ in prsearch._instances(cfg, 1, 40, None, 1.0):
            got.append(values)
    assert len(got) == 18 * 40 and got[-1] == (18,) + (40,) * 16
    assert len(reads) == 2


def test_budget_time_checked_before_the_dfs(monkeypatch):
    out = find_avoiding_coloring(parse_config(VDW), 3, 1, 27, SearchBudget(max_seconds=0.0))
    assert isinstance(out, Budget) and out.reason == "time"
    assert out.nodes == 0
    # the deadline passes while the instance and position tables are built
    _clock_passes_after_enumeration(monkeypatch, reads=0)
    out = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 8, SearchBudget(max_seconds=1.0))
    assert isinstance(out, Budget) and out.reason == "time"
    assert out.nodes == 0


# nine distinct values in one color: 2 colors avoid them up to N = 16, and
# from N = 8 on each N has at least 8! partial bindings to enumerate
NINE = "config {a, b, c, d, e, f, g, h, i} where distinct(a, b, c, d, e, f, g, h, i);"


def test_min_forced_budget_time_covers_enumeration():
    start = time.monotonic()
    out = min_forced_n(parse_config(NINE), 2, 1, 16, SearchBudget(max_seconds=0.5))
    assert time.monotonic() - start < 1.0
    assert isinstance(out, Budget) and out.reason == "time"


def test_min_forced_budget_cumulative():
    # the scan spends 2, 1 and 2 nodes on N = 2, 3, 4, so only the count
    # across N passes 4
    out = min_forced_n(parse_config(SCHUR), 2, 1, 10, SearchBudget(max_nodes=4))
    assert isinstance(out, Budget) and out.reason == "nodes"
    assert out.nodes == 5


def test_search_determinism():
    a = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 4)
    b = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 4)
    assert a == b
    assert enumerate_instances(parse_config(VDW), 1, 9) == enumerate_instances(
        parse_config(VDW), 1, 9
    )


def _brute_force_avoidable(cfg, k, lo, hi) -> bool:
    insts = enumerate_instances(cfg, lo, hi)
    for colors in itertools.product(range(k), repeat=hi - lo + 1):
        col = Coloring(lo, hi, k, colors)
        if all(
            len({col.color_of(v) for v in i.term_values}) != 1 for i in insts
        ):
            return True
    return False


def test_search_matches_brute_force():
    cases = [
        (parse_config(SCHUR), 2, 1),
        (parse_config(VDW), 2, 1),
        (parse_config(VDW), 3, 1),
        (parse_config(EXPCFG), 2, 2),
        (parse_config("config {x, y, x * y} where distinct(x, y);"), 2, 1),
    ]
    for cfg, k, lo in cases:
        for hi in range(lo, lo + 10):
            want = _brute_force_avoidable(cfg, k, lo, hi)
            out = find_avoiding_coloring(cfg, k, lo, hi)
            if want:
                assert isinstance(out, Avoidable), (format_config(cfg), k, hi)
                assert check_coloring(out.witness, cfg) is None
            else:
                assert isinstance(out, Forced), (format_config(cfg), k, hi)


def test_min_forced_matches_brute_force():
    cfg = parse_config(SCHUR)
    first = next(
        hi for hi in range(1, 10) if not _brute_force_avoidable(cfg, 2, 1, hi)
    )
    b = min_forced_n(cfg, 2, 1, 10)
    assert b.first_forced == first and b.last_avoidable == first - 1


# ---------------------------------------------------------------------------
# enumeration cost: instances yielded, against the bound schedule

def _schur_count(n):
    return n * (n - 1) // 2  # x, y >= 1 with x + y <= n


def _exp_count(n):
    """x, y > 1 with x ^ y <= n."""
    count, y = 0, 2
    while 2**y <= n:
        x = 2
        while x**y <= n:
            count, x = count + 1, x + 1
        y += 1
    return count


@pytest.fixture
def yielded(monkeypatch):
    """The items that the module-global ``_instances`` yields, counted."""
    real, seen = prsearch._instances, [0]

    def instances(*args, **kwargs):
        for item in real(*args, **kwargs):
            seen[0] += 1
            yield item

    monkeypatch.setattr(prsearch, "_instances", instances)
    return seen


def test_min_scan_enumerates_only_past_its_boundary(yielded):
    # forced at N = 5: the scan stops inside [1..8], and 10^6 costs nothing
    out = min_forced_n(parse_config(SCHUR), 2, 1, 10**6)
    assert isinstance(out, Boundary) and out.first_forced == 5
    bounds = schedule(1, 10**6, 2)
    assert bounds[:3] == [2, 4, 8]
    assert yielded[0] == sum(map(_schur_count, bounds[:3])) == 35


def test_avoid_enumerates_only_to_the_first_forced_bound(yielded):
    # [1..16] is forced already, against 179,700 instances in [1..600]
    out = find_avoiding_coloring(parse_config(SCHUR), 2, 1, 600)
    assert out == Forced(5)
    assert schedule(1, 600, 16) == [16, 256, 600]
    assert yielded[0] == _schur_count(16) == 120
    assert _schur_count(600) == 179_700


def test_min_scan_enumerates_each_bound_once(yielded):
    # every [2..N] is avoidable: the scan enumerates each bound of its
    # schedule once, where enumerating every [2..N] would yield 2,705,996
    out = min_forced_n(parse_config(EXPCFG), 2, 2, 20_000)
    assert isinstance(out, Budget) and out.reason == "n_max"
    bounds = schedule(2, 20_000, 2)
    assert len(bounds) == 15 and bounds[-2:] == [16_385, 20_000]
    assert yielded[0] == sum(map(_exp_count, bounds)) == 848


# ---------------------------------------------------------------------------
# CNF export

def test_export_cnf_header_and_counts():
    text = export_cnf(parse_config(SCHUR), 2, 1, 2)
    lines = text.splitlines()
    assert lines[0] == "c configuration: config {x, y, x + y};"
    assert lines[1] == "c range [1..2], 2 colors, 1 instances"
    assert lines[2] == "c var(n,c) = (n - lo)*k + c + 1  maps position n, color c"
    assert lines[3] == "p cnf 4 6"
    assert text.endswith("\n")
    nvars, clauses = parse_dimacs(text)
    assert nvars == 4 and len(clauses) == 6
    # position clauses then instance clauses
    assert clauses[0] == [1, 2] and clauses[1] == [-1, -2]
    assert clauses[4] == [-1, -3] and clauses[5] == [-2, -4]


def test_export_cnf_single_color_units():
    text = export_cnf(parse_config(SCHUR), 1, 1, 2)
    nvars, clauses = parse_dimacs(text)
    assert nvars == 2
    assert clauses == [[1], [2], [-1, -2]]
    assert solve(nvars, clauses) is None  # k=1 always forced here


def test_export_cnf_exponential_counts():
    text = export_cnf(parse_config(EXPCFG), 2, 2, 9)
    nvars, clauses = parse_dimacs(text)
    assert nvars == 16
    assert len(clauses) == 8 * 2 + 3 * 2


def test_export_cnf_k_validation():
    with pytest.raises(ValueError):
        export_cnf(parse_config(SCHUR), 0, 1, 4)


def _decode(model, k, lo, hi) -> Coloring:
    colors = []
    for n in range(lo, hi + 1):
        cs = [c for c in range(k) if model.get((n - lo) * k + c + 1, False)]
        assert len(cs) == 1
        colors.append(cs[0])
    return Coloring(lo, hi, k, tuple(colors))


def test_cnf_agrees_with_search():
    cases = [
        (parse_config(SCHUR), 2, 1, 4),
        (parse_config(SCHUR), 2, 1, 5),
        (parse_config(VDW), 2, 1, 8),
        (parse_config(VDW), 2, 1, 9),
        (parse_config(EXPCFG), 2, 2, 20),
    ]
    for cfg, k, lo, hi in cases:
        nvars, clauses = parse_dimacs(export_cnf(cfg, k, lo, hi))
        model = solve(nvars, clauses)
        out = find_avoiding_coloring(cfg, k, lo, hi)
        if isinstance(out, Avoidable):
            assert model is not None
            col = _decode(model, k, lo, hi)
            assert check_coloring(col, cfg) is None
        else:
            assert model is None


# ---------------------------------------------------------------------------
# log-base transform

def test_log_transform_examples():
    c = Coloring(1, 8, 2, (0, 1, 0, 1, 0, 1, 0, 1))
    t = log_transform(c, 2)
    assert (t.lo, t.hi, t.k) == (1, 3, 2)
    assert t.colors == (c.color_of(2), c.color_of(4), c.color_of(8)) == (1, 1, 1)
    t = log_transform(Coloring(1, 7, 2, (0, 1, 0, 1, 0, 1, 0)), 2)
    assert (t.lo, t.hi) == (1, 2) and t.colors == (1, 1)
    t = log_transform(Coloring(1, 81, 3, tuple(i % 3 for i in range(81))), 3)
    assert (t.lo, t.hi) == (1, 4)
    assert t.colors == tuple((3**n - 1) % 3 for n in range(1, 5))


def test_log_transform_errors():
    with pytest.raises(ValueError):
        log_transform(Coloring(1, 8, 2, (0,) * 8), 1)
    with pytest.raises(ValueError):
        log_transform(Coloring(3, 8, 2, (0,) * 6), 2)  # base below range start
    with pytest.raises(ValueError):
        log_transform(Coloring(1, 1, 2, (0,)), 2)  # no powers in range


def test_log_transform_transports_sums_to_products():
    rng = random.Random(22)
    schur = parse_config(SCHUR)
    for _ in range(60):
        k = rng.randint(2, 3)
        hi = 1 << rng.randint(3, 7)
        col = Coloring(1, hi, k, tuple(rng.randrange(k) for _ in range(hi)))
        t = log_transform(col, 2)
        inst = check_coloring(t, schur)
        if inst is None:
            continue
        b = inst.binding_dict()
        x, y, s = 2 ** b["x"], 2 ** b["y"], 2 ** (b["x"] + b["y"])
        assert col.color_of(x) == col.color_of(y) == col.color_of(s)
