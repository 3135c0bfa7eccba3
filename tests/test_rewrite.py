import random

import pytest

import _walk_oracle as oracle
from test_expr import DEEP_TREES, deep_tree, under_raised_limit

from ultraexp.expr import (
    AttrSet,
    CapExceeded,
    EvalError,
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    Prod,
    Sum,
    Var,
    eval_principal,
    parse_equation,
    parse_expr,
)
from ultraexp.rewrite import (
    CATALOG,
    _peval,
    Equal,
    NotEqual,
    RULE_IDS,
    RuleLimitExceeded,
    UNKNOWN,
    find_refutation,
    measure,
    normalize,
    normalize_with_trace,
    prove_equal,
    replay_trace,
    rule_trace,
)

NP = AttrSet(nonprincipal=True)


def norm(text: str):
    return normalize(parse_expr(text), check_measure=True)


# ---------------------------------------------------------------------------
# individual rules

def test_fold():
    assert norm("2 + 3") == Nat(5)
    assert norm("2 * 3") == Nat(6)
    assert norm("2 ^ 3") == Nat(8)
    assert norm("E2(3, 2)") == Nat(8)
    assert norm("log(2, 8)") == Nat(3)
    assert norm("Omega(12)") == Nat(3)
    assert norm("F(12)") == Nat(3)


def test_fold_stuck_lifts():
    # log of a non-power and Omega(1) (value 0 has no literal) stay symbolic
    assert norm("log(2, 6)") == parse_expr("log(2, 6)")
    assert norm("Omega(1)") == parse_expr("Omega(1)")
    assert norm("F(1)") == parse_expr("F(1)")


def test_fold_one():
    assert norm("p ^ 1") == Var("p")
    assert norm("1 ^ p") == Nat(1)
    assert norm("1 * p") == Var("p")
    assert norm("p * 1") == Var("p")
    assert norm("q + p ^ 1") == Sum(Var("q"), Var("p"))


def test_e2can():
    assert norm("E2(p, 5)") == parse_expr("5 ^ p")
    assert norm("E2(5, p)") == parse_expr("p ^ 5")


def test_scalctr():
    assert norm("p + 2") == Sum(Nat(2), Var("p"))
    assert norm("p * 2") == Prod(Nat(2), Var("p"))
    # scalars on the left already: untouched
    assert norm("2 + p") == Sum(Nat(2), Var("p"))


def test_logpow():
    assert norm("log(2, 8 ^ p)") == Prod(Nat(3), Var("p"))
    assert norm("log(3, 9 ^ p)") == Prod(Nat(2), Var("p"))
    assert norm("log(2, 6 ^ p)") == parse_expr("log(2, 6 ^ p)")


def test_baseroot():
    assert norm("4 ^ p") == parse_expr("2 ^ (2 * p)")
    assert norm("8 ^ p") == parse_expr("2 ^ (3 * p)")
    assert norm("6 ^ p") == parse_expr("6 ^ p")
    assert norm("4 ^ 3") == Nat(64)  # scalar exponent folds instead


def test_e1flat():
    assert norm("(p ^ q) ^ r") == Exp1(Var("p"), Prod(Var("q"), Var("r")))
    assert norm("(p ^ 2) ^ 3") == Exp1(Var("p"), Nat(6))


def test_e2assoc():
    assert norm("E2(p, E2(q, r))") == Exp2(Prod(Var("p"), Var("q")), Var("r"))


def test_samebase():
    assert norm("2 ^ p * 2 ^ q") == Exp1(Nat(2), Sum(Var("p"), Var("q")))
    assert norm("2 ^ p * 3 ^ q") == parse_expr("2 ^ p * 3 ^ q")
    assert norm("p ^ a * p ^ b") == parse_expr("p ^ a * p ^ b")


def test_normalize_multirule_compositions():
    assert norm("E1(E1(p, 2), 3)") == Exp1(Var("p"), Nat(6))
    assert norm("2 ^ p * 4 ^ q") == Exp1(Nat(2), Sum(Var("p"), Prod(Nat(2), Var("q"))))
    assert norm("E2(p, 5)") == Exp1(Nat(5), Var("p"))
    assert norm("E1(E1(2, 3), 2)") == Nat(64)
    assert norm("E2(x, 3) * 2 ^ 5") == Prod(Nat(32), Exp1(Nat(3), Var("x")))
    assert norm("(2 ^ p * 2 ^ q) ^ r") == Exp1(
        Nat(2), Prod(Sum(Var("p"), Var("q")), Var("r"))
    )


def test_normalize_cap():
    with pytest.raises(CapExceeded):
        norm("2 ^ 100")
    assert normalize(parse_expr("2 ^ 100"), cap=1 << 128) == Nat(2**100)


def test_rule_budget():
    with pytest.raises(RuleLimitExceeded):
        normalize_with_trace(parse_expr("2 + 3"), max_steps=0)


# ---------------------------------------------------------------------------
# traces

def test_rule_trace_examples():
    assert rule_trace(Nat(5)) == ()
    t = rule_trace(parse_expr("E2(p, 3)"))
    assert [s.rule for s in t] == ["E2CAN"]
    t = rule_trace(parse_expr("(2 ^ 3) ^ q"))
    assert [s.rule for s in t] == ["FOLD", "BASEROOT"]
    assert t[-1].after == Exp1(Nat(2), Prod(Nat(3), Var("q")))


def test_trace_replay():
    for text in ("E2(x, 3) * 2 ^ 5", "(p ^ 2) ^ 3", "log(2, 8 ^ p)", "5"):
        e = parse_expr(text)
        nf, trace = normalize_with_trace(e)
        assert replay_trace(e, trace) == nf


def test_trace_replay_rejects_wrong_start():
    e = parse_expr("2 + 3")
    trace = rule_trace(e)
    with pytest.raises(ValueError):
        replay_trace(parse_expr("2 + 4"), trace)


# ---------------------------------------------------------------------------
# termination measure

def _rand_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.6:
            return Nat(rng.randint(1, 7))
        name = rng.choice(("p", "q"))
        return Var(name, NP if name == "p" else AttrSet())
    kind = rng.randrange(6)
    a = _rand_tree(rng, depth - 1)
    b = _rand_tree(rng, depth - 1)
    if kind == 0:
        return Sum(a, b)
    if kind == 1:
        return Prod(a, b)
    if kind == 2:
        return Exp1(a, b)
    if kind == 3:
        return Exp2(a, b)
    fn = rng.choice(
        (LiftFn("log", 2), LiftFn("pow", 2), LiftFn("Omega"), LiftFn("F"),
         LiftFn("G"), LiftFn("H"))
    )
    return Lift(fn, a)


def test_measure_decreases_on_every_firing_fuzz():
    rng = random.Random(11)
    fired = 0
    for _ in range(2500):
        e = _rand_tree(rng, 4)
        try:
            _, trace = normalize_with_trace(e, check_measure=True)
        except CapExceeded:
            continue
        fired += len(trace)
    assert fired > 2000  # the fuzz actually exercised the rules


def test_measure_well_founded_components():
    m = measure(parse_expr("E2(p, E2(q, r)) + 4 ^ x * log(2, 8)"))
    assert len(m) == 6 and all(c >= 0 for c in m)


# ---------------------------------------------------------------------------
# soundness and idempotence (small here; acceptance runs the full sizes)

def test_principal_soundness_fuzz_small():
    rng = random.Random(12)
    checked = 0
    for _ in range(1500):
        e = _rand_tree(rng, 4)
        if any(isinstance(n, Var) for n in _walk(e)):
            continue
        try:
            v = eval_principal(e)
        except (EvalError, CapExceeded):
            continue
        nf = normalize(e)
        assert eval_principal(nf) == v
        if v >= 1 and not _has_zero_subvalue(e):
            # with no 0-valued subtree in the way, folding reaches a literal
            assert nf == Nat(v)
        checked += 1
    assert checked > 300


def _walk(e):
    yield e
    for name in ("left", "right", "base", "exp", "first", "second", "arg"):
        c = getattr(e, name, None)
        if c is not None and not isinstance(c, (int, str, LiftFn)):
            yield from _walk(c)


def _has_zero_subvalue(e) -> bool:
    for n in _walk(e):
        try:
            if eval_principal(n) == 0:
                return True
        except (EvalError, CapExceeded):
            pass
    return False


def test_idempotence_fuzz_small():
    rng = random.Random(13)
    for _ in range(800):
        e = _rand_tree(rng, 4)
        try:
            nf = normalize(e)
        except CapExceeded:
            continue
        assert normalize(nf) == nf


# ---------------------------------------------------------------------------
# prover verdicts

def prove(text: str):
    return prove_equal(*parse_equation(text))


def test_prove_representative_equations():
    v = prove("E1(p, q:{nonprincipal}) == q")
    assert isinstance(v, NotEqual) and v.oracle == "O-NOID"
    v = prove("E1(E1(p, 2), 3) == E1(p, 6)")
    assert isinstance(v, Equal)
    v = prove("p:{nonprincipal} ^ 2 * p ^ 3 == p ^ 5")
    assert isinstance(v, NotEqual) and v.oracle == "O-NEQR"
    assert prove("p == p") == Equal(())
    assert prove("E1(p:{nonprincipal}, q:{nonprincipal}) == E2(p, q)") is UNKNOWN


def test_prove_equal_trace_sides():
    v = prove("E2(x, 3) * 2 ^ 5 == 32 * 3 ^ x")
    assert isinstance(v, Equal)
    sides = [s.side for s in v.trace]
    assert set(sides) <= {"left", "right"}
    assert sides == sorted(sides)  # left steps first, then right


def test_oracle_noid():
    v = prove("q:{nonprincipal} ^ q == q")  # no E1-idempotents
    assert isinstance(v, NotEqual) and v.oracle == "O-NOID"
    assert v.binding_dict()["q"] == "q:{nonprincipal}"
    # hypothesis gating: unflagged exponent must not fire
    assert prove("E1(p, q) == q") is UNKNOWN


def test_oracle_inj_exp_direct():
    v = prove("p:{nonprincipal} ^ 2 == p ^ 3")
    assert isinstance(v, NotEqual) and v.oracle == "O-INJ-EXP"
    assert v.binding_dict() == {"p": "p:{nonprincipal}", "a": "2", "b": "3"}
    assert prove("p ^ 2 == p ^ 3") is UNKNOWN  # needs nonprincipality
    # the corollary needs both scalar exponents >= 2
    assert prove("p:{nonprincipal} ^ 1 == p ^ 3") is UNKNOWN


def test_oracle_inj_exp_reduction():
    # same scalar base: reduces to the exponents, whose refuter is reported
    v = prove("2 ^ (p ^ q:{nonprincipal}) == 2 ^ q")
    assert isinstance(v, NotEqual) and v.oracle == "O-NOID"
    v = prove("2 ^ (p:{nonprincipal} ^ 2) == 2 ^ p ^ 3")
    assert isinstance(v, NotEqual) and v.oracle == "O-INJ-EXP"
    assert prove("2 ^ p == 2 ^ q") is UNKNOWN  # p vs q itself is unsettled


def test_oracle_neqr_requires_matching_sum():
    assert isinstance(prove("p:{nonprincipal} ^ 2 * p ^ 3 == p ^ 5"), NotEqual)
    # m + n != s is a different question; no oracle covers it
    assert prove("p:{nonprincipal} ^ 2 * p ^ 3 == p ^ 6") is UNKNOWN
    assert prove("p ^ 2 * p ^ 3 == p ^ 5") is UNKNOWN  # principal p can collapse


def test_oracle_mal():
    v = prove("u + 2 * p:{nonprincipal} == v + 3 * p")
    assert isinstance(v, NotEqual) and v.oracle == "O-MAL"
    assert v.binding_dict()["a"] == "2" and v.binding_dict()["b"] == "3"
    # implicit coefficient 1 on the bare variable
    v = prove("u + p:{nonprincipal} == v + 2 * p")
    assert isinstance(v, NotEqual) and v.oracle == "O-MAL"
    assert prove("u + 2 * p:{nonprincipal} == v + 2 * p") is UNKNOWN  # a == b
    assert prove("u + 2 * p == v + 3 * p") is UNKNOWN  # p not certified


def test_oracle_hs():
    v = prove(
        "q:{nonprincipal} + p:{nonprincipal}"
        " == s:{nonprincipal} * r:{nonprincipal,all_div}"
    )
    assert isinstance(v, NotEqual) and v.oracle == "O-HS"
    v = prove(
        "s:{nonprincipal} * r:{nonprincipal,all_div}"
        " == q:{nonprincipal} + p:{nonprincipal}"
    )
    assert isinstance(v, NotEqual) and v.oracle == "O-HS"  # both orientations
    assert (
        prove("q:{nonprincipal} + p:{nonprincipal} == s:{nonprincipal} * r:{nonprincipal}")
        is UNKNOWN
    )


def test_e1_idempotency_refuted_for_any_nonprincipal_var():
    for name in ("p", "q", "z"):
        v = prove_equal(
            Exp1(Var(name, NP), Var(name, NP)), Var(name, NP)
        )
        assert isinstance(v, NotEqual) and v.oracle == "O-NOID"


OPEN_EQUATIONS = (
    "E1(p:{nonprincipal}, q:{nonprincipal}) == E1(q, p)",
    "E2(p:{nonprincipal}, q:{nonprincipal}) == E2(q, p)",
    "E1(p:{nonprincipal}, q:{nonprincipal}) == E2(q, p)",
    "E1(q:{nonprincipal}, p:{nonprincipal}) * p == p",
    "E1(q:{nonprincipal}, p:{nonprincipal}) * q == q",
    "E1(r:{nonprincipal}, p:{nonprincipal}) * E1(r, q:{nonprincipal}) == E1(r, p + q)",
    "E2(q:{nonprincipal}, p:{nonprincipal}) * p == p",
    "E2(q:{nonprincipal}, p:{nonprincipal}) * q == q",
    "E2(p:{nonprincipal}, r:{nonprincipal}) * E2(q:{nonprincipal}, r) == E2(p + q, r)",
)


@pytest.mark.parametrize("eq", OPEN_EQUATIONS)
def test_open_equations_stay_unknown(eq):
    assert prove(eq) is UNKNOWN


def test_oracles_never_fire_on_identical_normal_forms():
    rng = random.Random(14)
    for _ in range(600):
        e = _rand_tree(rng, 4)
        try:
            nf = normalize(e)
        except CapExceeded:
            continue
        assert find_refutation(nf, nf) is None


def test_catalog_is_complete_and_ordered():
    assert RULE_IDS == (
        "FOLD",
        "FOLD-ONE",
        "E2CAN",
        "SCALCTR",
        "LOGPOW",
        "BASEROOT",
        "E1FLAT",
        "E2ASSOC",
        "SAMEBASE",
    )
    assert len(CATALOG) == 9


# ---------------------------------------------------------------------------
# trees deeper than the recursion limit

@pytest.mark.parametrize("leaf, base, lift", DEEP_TREES)
def test_deep_tree_peval_and_measure(leaf, base, lift):
    e = deep_tree(10_000, leaf, base, lift)
    want = under_raised_limit(lambda: (oracle._peval(e, 1 << 64), oracle.measure(e)))
    assert want[0] == (3 if type(leaf) is Nat else None)
    assert (_peval(e, 1 << 64), measure(e)) == want


def test_base_nested_tower_measure():
    # each Exp1 is charged for every Exp1 in its base: quadratic to walk
    # base by base, one pass as a fold
    e = Nat(4)
    for i in range(600):
        e = Exp1(e, Var("x") if i % 2 else Nat(2))
    want = under_raised_limit(oracle.measure, e)
    # 16 = 4 ^ 2 under an exponent x adds one
    assert want[1] == 599 * 600 // 2 + 1
    assert measure(e) == want
