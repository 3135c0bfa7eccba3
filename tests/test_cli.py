import json
import os
import random
import shutil
import subprocess
import sys
import time
from importlib.metadata import entry_points
from pathlib import Path

import pytest
import test_rewrite
from test_parse_oracle import _corrupt

jsonschema = pytest.importorskip("jsonschema")

import ultraexp
from ultraexp import cli, expip, prsearch, rewrite
from ultraexp.cli import (
    EX_DATA,
    EX_INCONCLUSIVE,
    EX_IOERR,
    EX_NEGATIVE,
    EX_OK,
    EX_USAGE,
    SCHEMAS,
    load_schema,
    run,
)
from ultraexp.expr import format_expr, parse_equation, parse_expr
from ultraexp.prsearch import Coloring

SCHUR = "config {x, y, x + y};\n"


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "schur.cfg").write_text(SCHUR)
    (tmp_path / "avoider.json").write_text(Coloring(1, 4, 2, (0, 1, 1, 0)).to_json())
    (tmp_path / "const.json").write_text(Coloring(1, 4, 1, (0, 0, 0, 0)).to_json())
    (tmp_path / "range8.json").write_text(
        Coloring(1, 8, 2, (0, 1, 0, 1, 0, 1, 0, 1)).to_json()
    )
    (tmp_path / "five.json").write_text("[5]")
    (tmp_path / "broken.json").write_text("{not json")
    return tmp_path


def invoke(capsys, argv):
    rc = run(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# thin-adapter identities: CLI output is exactly the library's answer

def test_normalize_matches_library(capsys):
    src = "2 ^ p * 4 ^ q"
    rc, out, _ = invoke(capsys, ["normalize", src])
    assert rc == EX_OK
    assert out == format_expr(rewrite.normalize(parse_expr(src))) + "\n"
    assert out == "2 ^ (p + 2 * q)\n"


def test_eval_output(capsys):
    rc, out, _ = invoke(capsys, ["eval", "2^3^2"])
    assert (rc, out) == (EX_OK, "512\n")


def test_numfn_output(capsys):
    rc, out, _ = invoke(capsys, ["numfn", "Omega", "12"])
    assert (rc, out) == (EX_OK, "3\n")
    rc, out, _ = invoke(capsys, ["numfn", "H", "108"])
    assert (rc, out) == (EX_OK, "27\n")


def test_logpre_output(capsys):
    rc, out, _ = invoke(capsys, ["logpre", "--base", "2", "--set", "interval:1..64"])
    assert (rc, out) == (EX_OK, "1 2 3 4 5 6\n")


def test_prove_refuted(capsys):
    rc, out, _ = invoke(
        capsys, ["prove", "E1(p:{nonprincipal}, q:{nonprincipal}) == q"]
    )
    assert rc == EX_NEGATIVE
    assert out.startswith("not equal  [O-NOID]")
    assert "where " in out and "q = q:{nonprincipal}" in out


def test_prove_equal_trace(capsys):
    rc, out, _ = invoke(capsys, ["prove", "E1(E1(p, 2), 3) == E1(p, 6)"])
    assert rc == EX_OK
    lines = out.splitlines()
    assert lines[0] == "equal"
    assert all(l.startswith(("  [left] ", "  [right] ")) for l in lines[1:])
    assert any(" -> " in l for l in lines[1:])


def test_prove_unknown(capsys):
    rc, out, _ = invoke(
        capsys, ["prove", "E1(p:{nonprincipal}, q:{nonprincipal}) == E2(p, q)"]
    )
    assert (rc, out) == (EX_INCONCLUSIVE, "unknown\n")


def test_trace_json_is_bare_array(capsys):
    rc, out, _ = invoke(capsys, ["normalize", "(2 ^ 3) ^ q", "--trace-json"])
    assert rc == EX_OK
    tr = json.loads(out)
    assert [s["rule"] for s in tr] == ["FOLD", "BASEROOT"]
    assert all(set(s) == {"rule", "before", "after"} for s in tr)
    assert tr[0]["before"] == "2 ^ 3 ^ q" or tr[0]["before"] == "(2 ^ 3) ^ q"


# ---------------------------------------------------------------------------
# partition-regularity subcommands

def test_pr_min_boundary(capsys, files):
    rc, out, _ = invoke(
        capsys, ["pr-min", "--config", str(files / "schur.cfg"), "-k", "2", "--max", "10"]
    )
    assert (rc, out) == (EX_OK, "last_avoidable=4 first_forced=5\n")


def test_pr_min_node_budget(capsys, files):
    rc, out, _ = invoke(
        capsys,
        ["pr-min", "--config", str(files / "schur.cfg"), "-k", "2", "--max", "10",
         "--budget-nodes", "1"],
    )
    assert rc == EX_INCONCLUSIVE
    assert out.startswith("inconclusive (nodes) after ")


def test_pr_min_nmax_budget(capsys, files):
    rc, out, _ = invoke(
        capsys, ["pr-min", "--config", str(files / "schur.cfg"), "-k", "2", "--max", "3"]
    )
    assert rc == EX_INCONCLUSIVE
    assert out.startswith("inconclusive (n_max) after ")


def test_pr_min_range_and_k_validation(capsys, files):
    # the same exit 65 as pr-avoid with --lo above --hi, before any scan
    cfg = str(files / "schur.cfg")
    for argv in (
        ["pr-min", "--config", cfg, "-k", "2", "--lo", "5", "--max", "3"],
        ["pr-min", "--config", cfg, "-k", "0", "--lo", "5", "--max", "3", "--json"],
        ["pr-min", "--config", cfg, "-k", "0", "--lo", "1", "--max", "3"],
        ["pr-min", "--config", cfg, "-k", "2", "--lo", "0", "--max", "3"],
        ["pr-avoid", "--config", cfg, "-k", "2", "--lo", "5", "--hi", "3"],
    ):
        rc, out, err = invoke(capsys, argv)
        assert (rc, out) == (EX_DATA, ""), argv
        assert err.startswith("ultraexp: need "), argv
    rc, out, _ = invoke(capsys, ["pr-min", "--config", cfg, "-k", "2", "--lo", "3", "--max", "3"])
    assert (rc, out) == (EX_INCONCLUSIVE, "inconclusive (n_max) after 0 nodes\n")


def test_pr_avoid_stdout_witness(capsys, files):
    rc, out, _ = invoke(
        capsys, ["pr-avoid", "--config", str(files / "schur.cfg"), "-k", "2", "--hi", "4"]
    )
    assert rc == EX_OK
    first, payload = out.split("\n", 1)
    assert first == "avoidable"
    w = Coloring.from_json(payload)
    assert prsearch.check_coloring(w, prsearch.parse_config(SCHUR)) is None


def test_pr_avoid_out_file(capsys, files):
    dest = files / "w.json"
    rc, out, _ = invoke(
        capsys,
        ["pr-avoid", "--config", str(files / "schur.cfg"), "-k", "2", "--hi", "4",
         "--out", str(dest)],
    )
    assert (rc, out) == (EX_OK, "avoidable\n")
    text = dest.read_text()
    assert text.endswith("\n")
    w = Coloring.from_json(text)
    assert w == prsearch.find_avoiding_coloring(
        prsearch.parse_config(SCHUR), 2, 1, 4
    ).witness


def test_pr_avoid_forced(capsys, files):
    rc, out, _ = invoke(
        capsys, ["pr-avoid", "--config", str(files / "schur.cfg"), "-k", "2", "--hi", "5"]
    )
    assert rc == EX_NEGATIVE
    assert out.startswith("forced (nodes=") and out.endswith(")\n")


def test_pr_check_ok(capsys, files):
    rc, out, _ = invoke(
        capsys,
        ["pr-check", "--coloring", str(files / "avoider.json"), "--config",
         str(files / "schur.cfg")],
    )
    assert (rc, out) == (EX_OK, "ok\n")


def test_pr_check_monochromatic(capsys, files):
    rc, out, _ = invoke(
        capsys,
        ["pr-check", "--coloring", str(files / "const.json"), "--config",
         str(files / "schur.cfg")],
    )
    assert rc == EX_NEGATIVE
    assert out == "monochromatic instance: x = 1, y = 1 -> terms {1, 1, 2} in color 0\n"


def test_pr_cnf_stdout_is_raw_dimacs(capsys, files):
    rc, out, _ = invoke(
        capsys, ["pr-cnf", "--config", str(files / "schur.cfg"), "-k", "2", "--hi", "2"]
    )
    assert rc == EX_OK
    assert out == prsearch.export_cnf(prsearch.parse_config(SCHUR), 2, 1, 2)
    assert "p cnf 4 6" in out


def test_pr_cnf_out_file(capsys, files):
    dest = files / "f.cnf"
    rc, out, _ = invoke(
        capsys,
        ["pr-cnf", "--config", str(files / "schur.cfg"), "-k", "2", "--hi", "2",
         "--out", str(dest)],
    )
    assert rc == EX_OK
    assert out == f"wrote 4 vars, 6 clauses to {dest}\n"
    assert dest.read_text() == prsearch.export_cnf(prsearch.parse_config(SCHUR), 2, 1, 2)


def test_log_transform_stdout(capsys, files):
    rc, out, _ = invoke(
        capsys, ["log-transform", "--coloring", str(files / "range8.json"), "--base", "2"]
    )
    assert rc == EX_OK
    assert Coloring.from_json(out) == Coloring(1, 3, 2, (1, 1, 1))


def test_log_transform_out_file(capsys, files):
    dest = files / "t.json"
    rc, out, _ = invoke(
        capsys,
        ["log-transform", "--coloring", str(files / "range8.json"), "--base", "2",
         "--out", str(dest)],
    )
    assert (rc, out) == (EX_OK, f"wrote [1..3] coloring to {dest}\n")
    assert Coloring.from_json(dest.read_text()) == Coloring(1, 3, 2, (1, 1, 1))


# ---------------------------------------------------------------------------
# exponential-IP subcommands

def test_expip_find(capsys):
    rc, out, _ = invoke(capsys, ["expip-find", "--set", "powers:2", "--depth", "3"])
    assert (rc, out) == (EX_OK, "2 2 2\n")


def test_expip_find_none(capsys, files):
    rc, out, _ = invoke(
        capsys, ["expip-find", "--set", str(files / "five.json"), "--depth", "2"]
    )
    assert (rc, out) == (EX_NEGATIVE, "no witness\n")


def test_expip_find_stops_once_no_candidate_fits(capsys, monkeypatch):
    # a depth's scan ends at the first candidate whose tower over the largest
    # product passes max(A): about two towers per member, not one per pair
    calls = 0
    real = expip._tower

    def tower(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(expip, "_tower", tower)
    rc, out, _ = invoke(capsys, ["expip-find", "--set", "interval:2..1000", "--depth", "6"])
    assert (rc, out) == (EX_NEGATIVE, "no witness\n")
    assert 0 < calls <= 3 * 999


def test_expip_verify_accept(capsys):
    rc, out, _ = invoke(
        capsys, ["expip-verify", "--set", "interval:1..100", "--xs", "2,3"]
    )
    assert (rc, out) == (EX_OK, "accept\n")


def test_expip_verify_reject(capsys):
    rc, out, _ = invoke(capsys, ["expip-verify", "--set", "interval:1..8", "--xs", "2,3"])
    assert (rc, out) == (EX_NEGATIVE, "reject: x[1]^2 = 9 not in set\n")
    rc, out, _ = invoke(capsys, ["expip-verify", "--set", "interval:2..4", "--xs", "2,5"])
    assert (rc, out) == (EX_NEGATIVE, "reject: x[1] = 5 not in set\n")


def test_expip_verify_unknown(capsys):
    rc, out, _ = invoke(
        capsys, ["expip-verify", "--set", "interval:1..8", "--xs", "2,3", "--cap", "8"]
    )
    assert (rc, out) == (EX_INCONCLUSIVE, "unknown at cap: x[1]^2 exceeds 8\n")


# ---------------------------------------------------------------------------
# exit-code classification

def test_usage_errors(capsys):
    for argv in (
        [],
        ["bogus"],
        ["eval"],
        ["numfn", "Q", "5"],
        ["expip-verify", "--set", "interval:1..4", "--xs", "a,b"],
        ["--cap", "100", "eval", "2"],  # globals attach after the subcommand
        ["eval", "2", "--threads", "1"],  # the no-op flag is gone
        # options attach only to the subcommands that read them
        ["numfn", "F", "12", "--cap", "5"],
        ["pr-check", "--coloring", "c.json", "--config", "s.cfg", "--cap", "5"],
        ["pr-cnf", "--config", "s.cfg", "-k", "2", "--hi", "4", "--budget-secs", "1"],
        ["eval", "2", "--budget-nodes", "10"],
        ["log-transform", "--coloring", "c.json", "--base", "2", "--budget-secs", "1"],
        # NaN compares false with every clock reading: no budget at all
        ["pr-avoid", "--config", "s.cfg", "-k", "2", "--hi", "4", "--budget-secs", "nan"],
        ["pr-min", "--config", "s.cfg", "-k", "2", "--max", "4", "--budget-secs", "NaN"],
        ["eval", "2", "--cap", "abc"],
    ):
        rc, _, err = invoke(capsys, argv)
        assert rc == EX_USAGE, argv
        assert "error" in err
        assert "_intarg" not in err  # argparse names a type function it sees fail


def test_help_exits_zero(capsys):
    rc, out, _ = invoke(capsys, ["--help"])
    assert rc == EX_OK and "normalize" in out


def test_parser_is_built_once(capsys):
    # one argparse tree serves every run in the process, and no run's flags
    # or errors leak into the next
    parser = cli._build_parser()
    rc, out, _ = invoke(capsys, ["eval", "2 ^ 3 ^ 2", "--json"])
    assert rc == EX_OK and json.loads(out) == {"input": "2 ^ 3 ^ 2", "value": 512}
    rc, _, err = invoke(capsys, ["eval", "2", "--budget-nodes", "10"])
    assert rc == EX_USAGE and "error" in err
    rc, out, err = invoke(capsys, ["eval", "2 ^ 3 ^ 2"])
    assert (rc, out, err) == (EX_OK, "512\n", "")
    for argv in (["--help"], ["prove", "--help"]):
        first, second = invoke(capsys, argv), invoke(capsys, argv)
        assert first == second and first[0] == EX_OK and "usage: ultraexp" in first[1]
    assert cli._build_parser() is parser


def test_data_errors(capsys, files):
    rc, _, err = invoke(capsys, ["eval", "2 +"])
    assert rc == EX_DATA and "parse error at byte 3" in err
    for argv in (
        ["eval", "p"],
        ["numfn", "F", "1"],
        ["logpre", "--base", "1", "--set", "interval:1..4"],
        ["logpre", "--base", "2", "--set", "interval:9..2"],
        ["logpre", "--base", "2", "--set", str(files / "missing.json")],
        ["logpre", "--base", "2", "--set", str(files / "broken.json")],
        ["pr-min", "--config", str(files / "broken.json"), "-k", "2", "--max", "4"],
        ["pr-check", "--coloring", str(files / "broken.json"), "--config",
         str(files / "schur.cfg")],
    ):
        rc, _, err = invoke(capsys, argv)
        assert rc == EX_DATA, argv
        assert err.startswith("ultraexp:")
    # colorings that are valid JSON but not coloring.schema.json
    for i, text in enumerate((
        "[0, 1]",
        '{"lo": 1, "hi": 2, "k": 2, "colors": 5}',
        '{"lo": "1", "hi": 2, "k": 2, "colors": [0, 0]}',
        '{"lo": 1, "hi": 2, "k": 2, "colors": ["a", 0]}',
        '{"lo": 1, "hi": 2, "k": 2, "colors": [0.5, 0]}',
        '{"lo": 1, "hi": 2, "k": true, "colors": [0, 0]}',
    )):
        path = files / f"bad{i}.json"
        path.write_text(text)
        for argv in (
            ["pr-check", "--coloring", str(path), "--config", str(files / "schur.cfg")],
            ["log-transform", "--coloring", str(path), "--base", "2"],
        ):
            rc, _, err = invoke(capsys, argv)
            assert rc == EX_DATA, (text, argv)
            assert err.startswith("ultraexp:")


def test_budget_secs_covers_enumeration(capsys, files):
    # enumerating nine distinct values on [1..16] takes far longer than
    # either budget, and both searches get there: 2 colors avoid every
    # smaller bound (Schur on [1..1200] no longer does, as it is forced
    # within [1..16])
    (files / "nine.cfg").write_text(
        "config {a, b, c, d, e, f, g, h, i} where distinct(a, b, c, d, e, f, g, h, i);\n"
    )
    for argv in (
        ["pr-avoid", "--config", str(files / "nine.cfg"), "-k", "2", "--hi", "16",
         "--budget-secs", "0.3"],
        ["pr-min", "--config", str(files / "nine.cfg"), "-k", "2", "--max", "16",
         "--budget-secs", "0.5"],
    ):
        start = time.monotonic()
        rc, out, _ = invoke(capsys, argv + ["--json"])
        assert time.monotonic() - start < 1.0, argv
        assert rc == EX_INCONCLUSIVE, argv
        payload = json.loads(out)
        assert (payload["outcome"], payload["reason"]) == ("budget", "time"), argv
        jsonschema.validate(payload, load_schema(SCHEMAS[argv[0]]))


def test_overflow_is_inconclusive(capsys):
    rc, _, err = invoke(capsys, ["eval", "2 ^ 100"])
    assert rc == EX_INCONCLUSIVE and err.startswith("ultraexp:")
    rc, _, _ = invoke(capsys, ["normalize", "2 ^ 100"])
    assert rc == EX_INCONCLUSIVE


def test_cap_flag_scientific(capsys):
    rc, out, _ = invoke(capsys, ["eval", "10 ^ 18", "--cap", "1e18"])
    assert (rc, out) == (EX_OK, str(10**18) + "\n")
    rc, out, _ = invoke(capsys, ["eval", "2 ^ 100", "--cap", "2e30"])
    assert (rc, out) == (EX_OK, str(2**100) + "\n")


def test_trace_rows_are_the_library_snapshots(capsys):
    eq = "E2(x, 3) * 2 ^ 5 == 4 ^ 1 * 8 * 3 ^ x"
    rc, out, _ = invoke(capsys, ["prove", eq, "--trace-json"])
    assert rc == EX_OK
    want = rewrite.prove_equal(*parse_equation(eq)).trace
    assert {s.side for s in want} == {"left", "right"}
    assert json.loads(out) == [
        {"side": s.side, "rule": s.rule, "before": format_expr(s.before),
         "after": format_expr(s.after)}
        for s in want
    ]


def _chain(n: int, extra: str = "") -> tuple[str, str]:
    text = " * ".join(f"2 ^ a{i} * 4 ^ b{i}" for i in range(n))
    closed = "2 ^ (" + " + ".join(f"a{i} + 2 * b{i}" for i in range(n)) + extra + ")"
    return text, closed


def test_deep_chain_prove_is_equal(capsys):
    # 200 blocks nest 400 products deep, deeper than a comparison of the
    # normal forms by the recursive dataclass == can go
    text, closed = _chain(200)
    rc, out, _ = invoke(capsys, ["prove", f"{text} == {closed}", "--json"])
    assert rc == EX_OK
    payload = json.loads(out)
    assert payload["verdict"] == "equal" and len(payload["trace"]) == 599
    # unequal normal forms this deep reach the refutation oracles
    text, closed = _chain(200, extra=" + z")
    rc, out, _ = invoke(capsys, ["prove", f"{text} == {closed}", "--json"])
    assert (rc, json.loads(out)) == (EX_INCONCLUSIVE, {"verdict": "unknown"})


def test_long_flat_sums_answer(capsys):
    # the parser reads a flat sum with a loop, and nothing after it recurses
    ones = " + ".join(["1"] * 3000)
    assert invoke(capsys, ["eval", ones]) == (EX_OK, "3000\n", "")
    ps = " + ".join(["p"] * 3000)
    assert invoke(capsys, ["normalize", ps]) == (EX_OK, ps + "\n", "")
    half = " + ".join(["p"] * 1500)
    assert invoke(capsys, ["prove", f"{half} == {half}"]) == (EX_OK, "equal\n", "")


@pytest.mark.parametrize("side", [
    "E2(5, ((E2(p:{nonprincipal}, 1) + E2(3, 5)) ^ 6))",
    "(1 ^ p + 2) ^ 70",
    "2 ^ (G(6) ^ p + 69)",
])
def test_prove_identical_sides_past_the_cap(capsys, side):
    # a variable subtree folds to 1 under a power past 2^64; the sides are
    # the same tree, so they are equal with an empty trace
    assert invoke(capsys, ["prove", f"{side} == {side}"]) == (EX_OK, "equal\n", "")
    rc, out, _ = invoke(capsys, ["prove", f"{side} == {side}", "--json"])
    assert (rc, json.loads(out)) == (EX_OK, {"verdict": "equal", "trace": []})


def test_prove_unlike_sides_past_the_cap(capsys):
    rc, out, err = invoke(capsys, ["prove", "1 ^ p * 2 ^ 70 == 2 ^ 70"])
    assert (rc, out) == (EX_INCONCLUSIVE, "")
    assert err == "ultraexp: 2^70 exceeds cap 18446744073709551616\n"


def test_too_deep_nesting_is_inconclusive(capsys, tmp_path, monkeypatch):
    # expressions, configuration terms and variable counts answer at any
    # depth; a RecursionError that still escapes is inconclusive
    assert invoke(capsys, ["eval", "(" * 300 + "1" + ")" * 300]) == (EX_OK, "1\n", "")
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("config {" + "x + " * 1500 + "x};")
    rc, out, err = invoke(capsys, ["pr-cnf", "--config", str(cfg), "-k", "2", "--hi", "4"])
    assert (rc, err) == (EX_OK, "")
    assert "\nc range [1..4], 2 colors, 0 instances\n" in out
    assert out.endswith("\np cnf 8 8\n1 2 0\n-1 -2 0\n3 4 0\n-3 -4 0\n5 6 0\n-5 -6 0\n7 8 0\n-7 -8 0\n")
    cfg.write_text("config {" + ", ".join(f"x{i}" for i in range(1100)) + "};")
    rc, out, err = invoke(capsys, ["pr-cnf", "--config", str(cfg), "-k", "2", "--hi", "1"])
    assert (rc, err) == (EX_OK, "")
    assert "\nc range [1..1], 2 colors, 1 instances\n" in out
    assert out.endswith("\np cnf 2 4\n1 2 0\n-1 -2 0\n-1 0\n-2 0\n")

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(prsearch, "export_cnf", too_deep)
    rc, out, err = invoke(capsys, ["pr-cnf", "--config", str(cfg), "-k", "2", "--hi", "1"])
    assert (rc, out) == (EX_INCONCLUSIVE, "")
    assert err.startswith("ultraexp: maximum recursion depth exceeded")


DEEP = 10**4


def _nest(opener: str, leaf: str, closer: str = ")") -> str:
    return opener * DEEP + leaf + closer * DEEP


def test_deep_nesting_answers(capsys):
    # 10^4 levels, far past the interpreter's recursion limit, in shapes
    # that fire no rule (a trace copies the root path at every firing)
    assert invoke(capsys, ["eval", _nest("(", "1")]) == (EX_OK, "1\n", "")
    assert invoke(capsys, ["prove", _nest("(", "p") + " == p"]) == (EX_OK, "equal\n", "")
    tower = " ^ ".join(["p"] * DEEP)
    assert invoke(capsys, ["normalize", tower]) == (EX_OK, tower + "\n", "")
    assert invoke(capsys, ["eval", _nest("F(", "2")]) == (EX_OK, "2\n", "")
    assert invoke(capsys, ["eval", _nest("E2(1, ", "2")]) == (EX_OK, "2\n", "")
    logs = _nest("log(2, ", "p")
    assert invoke(capsys, ["normalize", logs]) == (EX_OK, logs + "\n", "")


def test_deep_rewrites_answer(capsys):
    # every level of the nest fires E2ASSOC and every + of the sum FOLD
    closed = "E2(" + "p * (" * (DEEP - 2) + "p * p" + ")" * (DEEP - 2) + ", q)"
    assert invoke(capsys, ["normalize", _nest("E2(p, ", "q")]) == (EX_OK, closed + "\n", "")
    ones = " + ".join(["1"] * DEEP)
    assert invoke(capsys, ["normalize", ones]) == (EX_OK, f"{DEEP}\n", "")


def test_trace_rows_build_no_snapshot(capsys, monkeypatch):
    def splice(*args):
        raise AssertionError("a snapshot was built")

    monkeypatch.setattr(rewrite, "_splice", splice)
    text, closed = _chain(25)
    rc, out, _ = invoke(capsys, ["prove", f"{text} == {closed}", "--trace-json"])
    assert rc == EX_OK and len(json.loads(out)) == 74
    rc, out, _ = invoke(capsys, ["normalize", text, "--trace-json", "--json"])
    assert rc == EX_OK and len(json.loads(out)["trace"]) == 74


def test_deep_unclosed_parenthesis_is_a_parse_error(capsys):
    rc, out, err = invoke(capsys, ["eval", "(" * DEEP + "1"])
    assert (rc, out) == (EX_DATA, "")
    at = f"(at byte {DEEP + 1})"
    assert err == (
        f"ultraexp: parse error at byte {DEEP + 1}: "
        f"syntax error: expected ')', found end of input {at}\n"
    )


def test_literal_past_float_range(capsys):
    # 7**400 has 339 digits, beyond any float
    rc, out, _ = invoke(capsys, ["normalize", f"{7**400} ^ x"])
    assert (rc, out) == (EX_OK, "7 ^ (400 * x)\n")


def _fuzz_files(rng, files):
    """Configuration and coloring files, valid, corrupted and malformed."""
    cfgs = [SCHUR, "config {x, x + d, x + 2 * d};", "config {x, y, x ^ y} where x > 1, y > 1;",
            "config {a, b, a * b} where distinct(a, b);", "config {x, y} where log2_le(x, y);",
            "config {2, x + 1} where x >= 3;", "config {F(x)};", "config {x} where y > 1;"]
    cfgs += [_corrupt(rng, rng.choice(cfgs)) for _ in range(12)]
    colorings = ["[0, 1]", "{not json", '{"lo": 1, "hi": 2, "k": 2, "colors": [0.5, 0]}']
    for _ in range(12):
        lo = rng.randint(1, 5)
        hi, k = lo + rng.randint(0, 40), rng.randint(1, 3)
        text = Coloring(lo, hi, k, tuple(rng.randrange(k) for _ in range(hi - lo + 1))).to_json()
        colorings.append(_corrupt(rng, text) if rng.random() < 0.3 else text)
    paths = {"cfg": [], "col": []}
    for kind, texts in (("cfg", cfgs), ("col", colorings)):
        for i, text in enumerate(texts):
            path = files / f"fuzz{i}.{kind}"
            path.write_text(text)
            paths[kind].append(str(path))
    return paths["cfg"], paths["col"]


def _fuzz_argv(rng, cfgs, colorings):
    """One random invocation of a random subcommand."""
    pick, num = rng.choice, lambda: str(rng.choice((0, 1, 2, 3, 5, 12, 60, 97, -4)))

    def text():
        r = rng.random()
        if r < 0.1:  # deep or wide, in shapes that fire no rule
            return pick((
                "(" * DEEP + "p" + ")" * DEEP, " ^ ".join(["p"] * 3000),
                "F(" * 3000 + "p" + ")" * 3000, " + ".join(["p"] * 3000),
            ))
        e = format_expr(test_rewrite._rand_tree(rng, rng.randint(0, 3)))
        return _corrupt(rng, e) if r < 0.4 else e

    def value_text():
        r = rng.random()
        if r < 0.25:
            n, opener = pick((10, 300, 3000)), pick(("(", "F(", "E2(1, ", "log(2, pow(2, "))
            return opener * n + "3" + ")" * opener.count("(") * n
        if r < 0.35:
            return pick((" + ".join(["1"] * 3000), f"{7**473} * 2", f"{7**473} ^ 1"))
        return text()

    def sets():
        return pick((f"interval:{num()}..{num()}", f"powers:{num()}", "powers:x",
                     pick(colorings), "interval:1", "missing.json"))

    def cap():
        return ["--cap", pick(("1", "100", "1e18", "1e400", "0", "-3", "2.5", "nan", str(10**400)))]

    def search():
        return ["--config", pick(cfgs), "-k", str(rng.randint(0, 3)), "--budget-secs", "0.2"]

    def hi():
        return str(rng.randint(-1, 60))

    argv = pick((
        lambda: ["normalize", text(), *cap()],
        lambda: ["prove", f"{text()} == {text()}", *cap()],
        lambda: ["prove", text()],
        lambda: ["eval", value_text(), *cap()],
        lambda: ["eval", value_text()],
        lambda: ["numfn", pick(("F", "G", "H", "Omega", "Q")), pick((num(), str(2**64), "x"))],
        lambda: ["logpre", "--base", num(), "--set", sets()],
        lambda: ["pr-min", *search(), "--max", hi(), "--lo", str(rng.randint(0, 4))],
        lambda: ["pr-avoid", *search(), "--hi", hi(), "--budget-nodes", pick(("1", "50", "100000"))],
        lambda: ["pr-check", "--coloring", pick(colorings), "--config", pick(cfgs)],
        lambda: ["pr-cnf", "--config", pick(cfgs), "-k", str(rng.randint(0, 3)), "--hi", hi()],
        lambda: ["log-transform", "--coloring", pick(colorings), "--base", num()],
        lambda: ["expip-find", "--set", sets(), "--depth", str(rng.randint(-1, 3)), *cap()],
        lambda: ["expip-verify", "--set", sets(), "--xs", pick(("2,3", "2,2,2", "a", "1", "4,0"))],
    ))()
    if rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), pick(("--bogus", "--cap", "-k", "--")))
    return argv


def test_fuzzed_invocations_classify(capsys, files):
    # random, corrupted, deep and wide inputs to every subcommand: each exits
    # with one of the five codes and no exception escapes run()
    rng = random.Random(2026)
    cfgs, colorings = _fuzz_files(rng, files)
    codes = {}
    for _ in range(300):
        argv = _fuzz_argv(rng, cfgs, colorings)
        rc = run(argv)
        capsys.readouterr()
        assert rc in (EX_OK, EX_NEGATIVE, EX_INCONCLUSIVE, EX_USAGE, EX_DATA), argv
        codes.setdefault(argv[0], set()).add(rc)
    assert len(codes) == len(SCHEMAS)
    assert set().union(*codes.values()) == {0, 1, 2, 64, 65}


# ---------------------------------------------------------------------------
# --json payloads validate against the shipped schemas

def _json_cases(files):
    cfg = str(files / "schur.cfg")
    return [
        ("normalize", ["normalize", "2 ^ p * 4 ^ q", "--json"], EX_OK),
        ("normalize", ["normalize", "E2(p, 3)", "--json", "--trace-json"], EX_OK),
        ("prove", ["prove", "E1(E1(p, 2), 3) == E1(p, 6)", "--json"], EX_OK),
        ("prove", ["prove", "E1(p:{nonprincipal}, q:{nonprincipal}) == q", "--json"],
         EX_NEGATIVE),
        ("prove", ["prove", "E1(p:{nonprincipal}, q:{nonprincipal}) == E2(p, q)",
                   "--json"], EX_INCONCLUSIVE),
        ("eval", ["eval", "2^3^2", "--json"], EX_OK),
        ("numfn", ["numfn", "F", "12", "--json"], EX_OK),
        ("logpre", ["logpre", "--base", "2", "--set", "interval:1..64", "--json"],
         EX_OK),
        ("pr-min", ["pr-min", "--config", cfg, "-k", "2", "--max", "10", "--json"],
         EX_OK),
        ("pr-min", ["pr-min", "--config", cfg, "-k", "2", "--max", "10",
                    "--budget-nodes", "1", "--json"], EX_INCONCLUSIVE),
        ("pr-min", ["pr-min", "--config", cfg, "-k", "2", "--max", "3", "--json"],
         EX_INCONCLUSIVE),
        ("pr-avoid", ["pr-avoid", "--config", cfg, "-k", "2", "--hi", "4", "--json"],
         EX_OK),
        ("pr-avoid", ["pr-avoid", "--config", cfg, "-k", "2", "--hi", "5", "--json"],
         EX_NEGATIVE),
        ("pr-avoid", ["pr-avoid", "--config", cfg, "-k", "2", "--hi", "5",
                      "--budget-nodes", "1", "--json"], EX_INCONCLUSIVE),
        ("pr-check", ["pr-check", "--coloring", str(files / "avoider.json"),
                      "--config", cfg, "--json"], EX_OK),
        ("pr-check", ["pr-check", "--coloring", str(files / "const.json"),
                      "--config", cfg, "--json"], EX_NEGATIVE),
        ("pr-cnf", ["pr-cnf", "--config", cfg, "-k", "2", "--hi", "2", "--json"],
         EX_OK),
        ("pr-cnf", ["pr-cnf", "--config", cfg, "-k", "2", "--hi", "2", "--json",
                    "--out", str(files / "o.cnf")], EX_OK),
        ("log-transform", ["log-transform", "--coloring", str(files / "range8.json"),
                           "--base", "2", "--json"], EX_OK),
        ("log-transform", ["log-transform", "--coloring", str(files / "range8.json"),
                           "--base", "2", "--json", "--out", str(files / "t.json")],
         EX_OK),
        ("expip-find", ["expip-find", "--set", "powers:2", "--depth", "3", "--json"],
         EX_OK),
        ("expip-find", ["expip-find", "--set", str(files / "five.json"), "--depth",
                        "2", "--json"], EX_NEGATIVE),
        ("expip-verify", ["expip-verify", "--set", "interval:1..100", "--xs", "2,3",
                          "--json"], EX_OK),
        ("expip-verify", ["expip-verify", "--set", "interval:1..8", "--xs", "2,3",
                          "--json"], EX_NEGATIVE),
        ("expip-verify", ["expip-verify", "--set", "interval:1..8", "--xs", "2,3",
                          "--cap", "8", "--json"], EX_INCONCLUSIVE),
    ]


def test_json_payloads_validate(capsys, files):
    for cmd, argv, want_rc in _json_cases(files):
        rc, out, _ = invoke(capsys, argv)
        assert rc == want_rc, argv
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema(SCHEMAS[cmd]))


def test_every_subcommand_has_a_schema_case(files):
    covered = {cmd for cmd, _, _ in _json_cases(files)}
    assert covered == set(SCHEMAS)


def test_coloring_files_validate_against_schema(files):
    schema = load_schema("coloring.schema.json")
    payload = json.loads((files / "avoider.json").read_text())
    jsonschema.validate(payload, schema)


# ---------------------------------------------------------------------------
# the console-script entry point, run as its own process

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
REFUTED = "E1(p:{nonprincipal}, q:{nonprincipal}) == q"


def _declared_script(name):
    """The ``module:function`` target of ``name`` in ``[project.scripts]``.

    A line reader rather than ``tomllib``, which Python 3.10 lacks.
    """
    section = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            key, _, value = line.partition("=")
            if key.strip() == name:
                return value.strip().strip("\"'")
    raise AssertionError(f"{name} not declared in [project.scripts]")


def _assert_verdicts(cmd, **kw):
    r = subprocess.run([*cmd, "eval", "2^3^2"], capture_output=True, text=True, **kw)
    assert (r.returncode, r.stdout) == (0, "512\n"), r.stderr
    r = subprocess.run([*cmd, "prove", REFUTED], capture_output=True, text=True, **kw)
    assert r.returncode == 1, r.stderr


def test_console_script(tmp_path):
    module, func = _declared_script("ultraexp").split(":")
    # the directory holding the imported package, so the child processes run
    # this checkout and not whatever copy is installed; an empty working
    # directory, since -c and -m put it ahead of PYTHONPATH on sys.path
    env = {**os.environ, "PYTHONPATH": str(Path(ultraexp.__file__).parents[1])}
    # what the wrapper generated by pip runs
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'ultraexp'; sys.exit({func}())"
    )
    for cmd in ([sys.executable, "-c", wrapper], [sys.executable, "-m", "ultraexp"]):
        _assert_verdicts(cmd, env=env, cwd=tmp_path)


@pytest.mark.skipif(shutil.which("ultraexp") is None, reason="ultraexp not installed")
def test_installed_console_script():
    _assert_verdicts([shutil.which("ultraexp")])
    installed = entry_points(group="console_scripts", name="ultraexp")
    assert {ep.value for ep in installed} == {_declared_script("ultraexp")}


def test_out_of_memory_is_inconclusive():
    # a wide interval is materialized, so a capped address space runs out;
    # MemoryError carries no message, so the CLI names memory itself
    resource = pytest.importorskip("resource")
    limit = 128 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["logpre", "--base", "2", "--set", "interval:1..100000000"]
    env = {**os.environ, "PYTHONPATH": str(Path(ultraexp.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-m", "ultraexp", *argv], capture_output=True,
                       text=True, env=env, preexec_fn=cap_memory)
    assert (r.returncode, r.stdout, r.stderr) == (EX_INCONCLUSIVE, "", "ultraexp: out of memory\n")


def test_closed_stdout_exits_74(tmp_path):
    # the witness JSON of [2..65535] is far larger than a pipe holds, so the
    # process is still writing when its reader leaves after 10 bytes
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("config {x, y, x ^ y} where x > 1, y > 1;\n")
    argv = ["pr-avoid", "--config", str(cfg), "-k", "2", "--lo", "2", "--hi", "65535", "--json"]
    env = {**os.environ, "PYTHONPATH": str(Path(ultraexp.__file__).parents[1])}
    p = subprocess.Popen([sys.executable, "-m", "ultraexp", *argv], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=env)
    assert p.stdout.read(10) == b'{"coloring'
    p.stdout.close()
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait(timeout=60) == EX_IOERR
    assert err == "ultraexp: output closed: [Errno 32] Broken pipe\n"
    assert "Traceback" not in err and "Exception ignored" not in err
