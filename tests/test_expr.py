import random
import sys

import pytest

import _walk_oracle as oracle

from ultraexp.expr import (
    AttrSet,
    CapExceeded,
    DEFAULT_CAP,
    EvalError,
    Exp1,
    Exp2,
    Lift,
    LiftFn,
    Nat,
    ParseError,
    Prod,
    Sum,
    Var,
    attrs_of,
    eval_principal,
    format_expr,
    parse_equation,
    parse_expr,
    subexprs,
)

NP = AttrSet(nonprincipal=True)


# ---------------------------------------------------------------------------
# parsing

def test_parse_examples():
    assert parse_expr("2 ^ p") == Exp1(Nat(2), Var("p"))
    assert parse_expr("E2(p, 3)") == Exp2(Var("p"), Nat(3))
    assert parse_expr("2 ^ 3 ^ 2") == Exp1(Nat(2), Exp1(Nat(3), Nat(2)))


def test_parse_associativity_and_precedence():
    assert parse_expr("1 + 2 + 3") == Sum(Sum(Nat(1), Nat(2)), Nat(3))
    assert parse_expr("2 * 3 * 4") == Prod(Prod(Nat(2), Nat(3)), Nat(4))
    assert parse_expr("2 + 3 * 4 ^ 2") == Sum(Nat(2), Prod(Nat(3), Exp1(Nat(4), Nat(2))))
    assert parse_expr("(2 + 3) * 4") == Prod(Sum(Nat(2), Nat(3)), Nat(4))
    assert parse_expr("2 ^ (p + 1)") == Exp1(Nat(2), Sum(Var("p"), Nat(1)))


def test_parse_calls():
    assert parse_expr("log(2, 8)") == Lift(LiftFn("log", 2), Nat(8))
    assert parse_expr("pow(3, x)") == Lift(LiftFn("pow", 3), Var("x"))
    assert parse_expr("Omega(12)") == Lift(LiftFn("Omega"), Nat(12))
    assert parse_expr("F(12)") == Lift(LiftFn("F"), Nat(12))
    assert parse_expr("G(x + 1)") == Lift(LiftFn("G"), Sum(Var("x"), Nat(1)))
    assert parse_expr("H(12)") == Lift(LiftFn("H"), Nat(12))
    assert parse_expr("E1(p, q)") == Exp1(Var("p"), Var("q"))
    assert parse_expr("E2(p, q)") == Exp2(Var("p"), Var("q"))
    # call names are only reserved when followed by a parenthesis
    assert parse_expr("F + 1") == Sum(Var("F"), Nat(1))


def test_parse_attrs():
    assert parse_expr("p:{nonprincipal}") == Var("p", NP)
    v = parse_expr("p:{mul_idem}")
    assert v.attrs.mul_idempotent and v.attrs.nonprincipal  # closure
    v = parse_expr("p:{min_ideal}")
    assert v.attrs.min_ideal_closure and v.attrs.vdw_witness
    # long names work too
    assert parse_expr("p:{add_idempotent}") == parse_expr("p:{add_idem}")
    v = parse_expr("p:{esw, all_div, vdw}")
    assert v.attrs.esw_member and v.attrs.all_divisible and v.attrs.vdw_witness


def test_attr_unification_within_and_across_sides():
    e = parse_expr("p + p:{nonprincipal}")
    assert e == Sum(Var("p", NP), Var("p", NP))
    lhs, rhs = parse_equation("E1(p:{nonprincipal}, q:{nonprincipal}) == q")
    assert lhs == Exp1(Var("p", NP), Var("q", NP))
    assert rhs == Var("q", NP)


def test_parse_errors_offsets():
    with pytest.raises(ParseError) as ei:
        parse_expr("2 +")
    assert ei.value.offset == 3
    with pytest.raises(ParseError) as ei:
        parse_expr("0")
    assert ei.value.offset == 0
    with pytest.raises(ParseError) as ei:
        parse_expr("p:{bogus}")
    assert ei.value.offset == 3
    assert "bogus" in str(ei.value) and ei.value.expected
    with pytest.raises(ParseError) as ei:
        parse_expr("log(1, 8)")
    assert ei.value.offset == 4
    with pytest.raises(ParseError) as ei:
        parse_expr("2 @ 3")
    assert ei.value.offset == 2
    with pytest.raises(ParseError):
        parse_expr("2 2")
    with pytest.raises(ParseError):
        parse_expr("")


def test_parse_error_offset_is_bytes_not_chars():
    text = "p + §"  # section sign: 2 bytes in UTF-8
    with pytest.raises(ParseError) as ei:
        parse_expr(text)
    assert ei.value.offset == len("p + ".encode("utf-8"))


def test_nat_zero_rejected():
    with pytest.raises(ValueError):
        Nat(0)
    with pytest.raises(ParseError):
        parse_expr("0 + 1")


def test_liftfn_validation():
    with pytest.raises(ValueError):
        LiftFn("log")
    with pytest.raises(ValueError):
        LiftFn("pow", 1)
    with pytest.raises(ValueError):
        LiftFn("Omega", 2)
    with pytest.raises(ValueError):
        LiftFn("sqrt")


# ---------------------------------------------------------------------------
# formatting

def test_format_round_trip_examples():
    for text in (
        "2 ^ p",
        "E2(p, 3)",
        "2 ^ 3 ^ 2",
        "(2 + 3) * 4",
        "2 * (3 + x:{nonprincipal,esw})",
        "log(2, 8 ^ p)",
        "pow(2, Omega(x))",
        "E2(x + 1, y * 2)",
        "(p ^ q) ^ r",
    ):
        e = parse_expr(text)
        assert parse_expr(format_expr(e)) == e


def _rand_tree(rng: random.Random, depth: int):
    # fixed attrs per name so re-parsing unification cannot change the tree
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Nat(rng.randint(1, 7))
        name = rng.choice(("p", "q", "r"))
        return Var(name, NP if name == "p" else AttrSet())
    kind = rng.randrange(5)
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


def test_format_round_trip_fuzz():
    rng = random.Random(6)
    for _ in range(500):
        e = _rand_tree(rng, 4)
        assert parse_expr(format_expr(e)) == e


# ---------------------------------------------------------------------------
# principal evaluation

def test_eval_examples():
    assert eval_principal(Exp1(Nat(2), Nat(3))) == 8
    assert eval_principal(Exp2(Nat(2), Nat(3))) == 9
    assert eval_principal(Lift(LiftFn("log", 2), Nat(8))) == 3
    with pytest.raises(EvalError):
        eval_principal(Lift(LiftFn("log", 2), Nat(6)))
    assert eval_principal(parse_expr("2 ^ 3 ^ 2")) == 512
    assert eval_principal(parse_expr("pow(2, 10)")) == 1024
    assert eval_principal(parse_expr("Omega(12)")) == 3
    assert eval_principal(parse_expr("Omega(1)")) == 0
    assert eval_principal(parse_expr("F(12)")) == 3
    assert eval_principal(parse_expr("G(108)")) == 3
    assert eval_principal(parse_expr("H(108)")) == 27


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_principal(Var("p"))
    with pytest.raises(EvalError):
        eval_principal(parse_expr("F(1)"))
    with pytest.raises(CapExceeded):
        eval_principal(parse_expr("2 ^ 65"))
    assert eval_principal(parse_expr("2 ^ 64")) == 1 << 64  # cap is inclusive
    with pytest.raises(CapExceeded):
        eval_principal(parse_expr("2 ^ 2 ^ 2 ^ 2 ^ 2"))  # 2^65536
    with pytest.raises(CapExceeded):
        eval_principal(parse_expr("10"), cap=9)


def test_exp1_exp2_flip_exhaustive():
    for a in range(1, 17):
        for b in range(1, 17):
            lhs = eval_principal(Exp1(Nat(a), Nat(b)), cap=1 << 70)
            rhs = eval_principal(Exp2(Nat(b), Nat(a)), cap=1 << 70)
            assert lhs == rhs == a**b


def test_integer_associativity_sanity():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (Nat(rng.randint(1, 50)) for _ in range(3))
        assert eval_principal(Sum(Sum(a, b), c)) == eval_principal(Sum(a, Sum(b, c)))
        assert eval_principal(Prod(Prod(a, b), c)) == eval_principal(Prod(a, Prod(b, c)))


# ---------------------------------------------------------------------------
# attribute propagation

def test_attrs_of_examples():
    assert attrs_of(parse_expr("p:{nonprincipal}")) == NP
    assert attrs_of(parse_expr("2 ^ p:{nonprincipal}")).nonprincipal
    assert attrs_of(Nat(7)) == AttrSet()
    assert attrs_of(Var("q")) == AttrSet()


def test_attrs_of_exponent_side_needs_base_never_one():
    # an unflagged base may denote 1, and 1^p is principal
    assert not attrs_of(parse_expr("q ^ p:{nonprincipal}")).nonprincipal
    assert attrs_of(parse_expr("(q + r) ^ p:{nonprincipal}")).nonprincipal
    assert attrs_of(parse_expr("q:{nonprincipal} ^ p:{nonprincipal}")).nonprincipal
    # Exp2 reads its base from the second slot
    assert attrs_of(parse_expr("E2(p:{nonprincipal}, 2)")).nonprincipal
    assert not attrs_of(parse_expr("E2(p:{nonprincipal}, q)")).nonprincipal


def test_attrs_of_sum_prod():
    assert attrs_of(parse_expr("q + p:{nonprincipal}")).nonprincipal
    assert attrs_of(parse_expr("p:{nonprincipal} * 3")).nonprincipal
    assert not attrs_of(parse_expr("q * r")).nonprincipal


def test_attrs_of_lifts():
    assert attrs_of(parse_expr("pow(2, p:{nonprincipal})")).nonprincipal
    # the prime-divisor maps can collapse infinite sets to a point
    assert not attrs_of(parse_expr("F(p:{nonprincipal})")).nonprincipal
    assert not attrs_of(parse_expr("log(2, p:{nonprincipal})")).nonprincipal


def test_attrset_closure_and_names():
    a = AttrSet(add_idempotent=True)
    assert a.nonprincipal
    b = AttrSet(min_ideal_closure=True)
    assert b.vdw_witness
    assert set(AttrSet(nonprincipal=True, esw_member=True).names()) == {
        "nonprincipal",
        "esw",
    }
    assert not AttrSet()
    assert AttrSet(all_divisible=True)


def test_subexprs_order():
    e = Sum(Nat(1), Prod(Var("x"), Nat(2)))
    got = list(subexprs(e))
    assert got == [e, Nat(1), Prod(Var("x"), Nat(2)), Var("x"), Nat(2)]


# ---------------------------------------------------------------------------
# trees deeper than the recursion limit

def deep_tree(levels: int, leaf, base, lift):
    """``levels`` nodes above ``leaf``, cycling through Sum, Exp1 (over
    ``base``), Prod, Exp2 and ``Lift(lift, _)``; each holds the tree below
    as its left operand, exponent or argument."""
    e = leaf
    for i in range(levels):
        k = i % 5
        if k == 0:
            e = Sum(e, Nat(2))
        elif k == 1:
            e = Exp1(base, e)
        elif k == 2:
            e = Prod(Nat(3), e)
        elif k == 3:
            e = Exp2(e, Nat(2))
        else:
            e = Lift(lift, e)
    return e


# principal values stay small; a nonprincipal leaf stays visible to the root
DEEP_TREES = [
    (Nat(2), Nat(1), LiftFn("Omega")),
    (Var("p", NP), Nat(2), LiftFn("pow", 2)),
]


def under_raised_limit(fn, *args):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(40_000)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (CapExceeded, EvalError) as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("leaf, base, lift", DEEP_TREES)
def test_deep_tree_eval_and_attrs(leaf, base, lift):
    e = deep_tree(10_000, leaf, base, lift)
    want = under_raised_limit(
        lambda: (_outcome(oracle.eval_principal, e), oracle.attrs_of(e))
    )
    assert want in (
        (("value", 3), AttrSet()),
        (("raised", EvalError, "expression contains a variable: p"), NP),
    )
    assert (_outcome(eval_principal, e), attrs_of(e)) == want
