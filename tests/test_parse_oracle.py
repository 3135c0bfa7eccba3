"""The explicit-stack operator-precedence parser against the recursive-descent
grammar it replaced (``tests/_parse_oracle.py``).

On seeded random texts, valid and corrupted, ``parse_expr``,
``parse_equation`` and ``parse_config`` must give the same trees, or raise
the same exception with the same message, byte offset and expected-token
set.
"""

import random

import _parse_oracle as oracle
import test_rescan_oracle
import test_rewrite
from ultraexp.expr import _same, format_expr, parse_equation, parse_expr
from ultraexp.prsearch import parse_config

# tokens, fragments of the call syntax, and characters the lexer rejects
PIECES = (
    "+", "*", "^", "(", ")", ",", ":", "{", "}", "==", ">=", ">", ";", " ",
    "0", "1", "2", "x", "p", "E1", "E2", "log", "pow(", "F(", "Omega",
    ":{nonprincipal}", ":{add_idem,vdw}", ":{bogus}", "where", "config",
    "distinct", "log2_le", "é", "∑", "٣", " ", "\t", "-", "/", "!",
)
SPECIAL = (
    "log(0, x)", "log(1, x)", "pow(0, 2)", "pow(1, p)", "log(2 x)", "log(x, 2)",
    "E1 + 2", "E1", "log", "log:{nonprincipal} * 2", "E2 ^ E1", "F + 1",
    "E1 (2, 3)", "E1(2)", "E2(2, 3, 4)", "Omega()", "(", ")", "", "x:{}",
    "p:{nonprincipal} + p", "x ^ y ^ z * w + v", "٣ + 1", "é", "1 ＋ 2",
)


def _outcome(parse, text):
    try:
        return ("parsed", parse(text))
    except Exception as exc:  # the outcome under test includes the exception
        return (
            "raised", type(exc), str(exc),
            getattr(exc, "offset", None), getattr(exc, "expected", None),
        )


def _agree(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if got[0] == "raised":
        return got == want
    g, w = got[1], want[1]
    if isinstance(w, tuple):  # an equation's two sides
        return all(map(_same, g, w))
    if hasattr(w, "terms"):  # a configuration template
        return (g.variables, g.constraints) == (w.variables, w.constraints) and all(
            map(_same, g.terms, w.terms)
        )
    return _same(g, w)


def _corrupt(rng: random.Random, text: str) -> str:
    """text with one to three random insertions, deletions or truncations."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        r = rng.random()
        if r < 0.5:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif r < 0.85:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i]
    return text


def _expr_texts(rng: random.Random):
    yield from SPECIAL
    for i in range(900):
        if i % 2:
            e = test_rescan_oracle._rand_tree(
                rng, rng.randint(1, 4), with_vars=True, shared=[]
            )
        else:
            e = test_rewrite._rand_tree(rng, rng.randint(1, 4))
        text = format_expr(e)
        yield text
        yield _corrupt(rng, text)
        yield _corrupt(rng, f"{text} == {format_expr(test_rewrite._rand_tree(rng, 2))}")
    for _ in range(300):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))


def _arith_term(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("x", "y", "d", "1", "2", "3"))
    op = rng.choice((" + ", " * ", " ^ "))
    a, b = _arith_term(rng, depth - 1), _arith_term(rng, depth - 1)
    return f"({a}{op}{b})" if rng.random() < 0.3 else f"{a}{op}{b}"


def _config_texts(rng: random.Random):
    yield from ("config {F(x)};", "config {x:{nonprincipal}};", "config {E1(x, 2)};")
    for _ in range(800):
        terms = ", ".join(_arith_term(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 3)))
        where = rng.choice(
            ("", " where x > 1", " where x >= 2, y > 1", " where distinct(x, y)",
             " where log2_le(x, y)", " where z > 1")
        )
        text = f"config {{{terms}}}{where};"
        yield text
        yield _corrupt(rng, text)


def test_expressions_and_equations_match_recursive_grammar():
    kinds = set()
    for text in _expr_texts(random.Random(808)):
        for parse, old in ((parse_expr, oracle.parse_expr),
                           (parse_equation, oracle.parse_equation)):
            got, want = _outcome(parse, text), _outcome(old, text)
            assert _agree(got, want), (text, got, want)
            kinds.add(want[0] if want[0] == "parsed" else " ".join(want[2].split()[:2]))
    # valid texts, every kind of syntax error, and the lexer's rejection
    assert kinds == {"parsed", "syntax error:", "natural literals", "log base",
                     "pow base", "unknown attribute", "unexpected character"}


def test_configs_match_recursive_grammar():
    kinds = set()
    for text in _config_texts(random.Random(809)):
        got, want = _outcome(parse_config, text), _outcome(oracle.parse_config, text)
        assert _agree(got, want), (text, got, want)
        kinds.add(want[0] if want[0] == "parsed" else want[1].__name__)
    assert kinds == {"parsed", "ParseError", "ValueError"}
