"""Command-line front end wiring every module together.

Exit codes (total classification, also in the README):
  0   positive result: equal, avoidable, boundary located, accept, witness
      found, value computed
  1   negative verdict: not-equal, forced, monochromatic instance found,
      reject, no witness after exhausting candidates
  2   inconclusive: budget exhausted, unknown verdict, value past the cap,
      rewrite step limit hit, out of memory
  64  usage errors (bad flags or argument syntax)
  65  malformed input data (unparseable expressions, configs, or files;
      domain errors such as numfn F 1)
  74  output closed before it was all written (the reader of stdout exited)

Every subcommand accepts --json.  --cap (value ceiling) is taken by normalize,
prove, eval, logpre, expip-find and expip-verify.  pr-min and pr-avoid take
--budget-nodes (DFS nodes only) and --budget-secs (wall time, instance
enumeration included).

pr-min and pr-avoid share one search that grows its bound and continues
from the last witness: pr-min files the instances of each N in turn, and
pr-avoid those of [lo..lo+15], [lo..lo+255], ... up to hi, stopping at
the first forced bound.  --budget-nodes and "forced (nodes=N)" count the
nodes of that whole search.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from importlib import resources

from . import expip, numth, prsearch, rewrite
from .expr import (
    CapExceeded,
    DEFAULT_CAP,
    EvalError,
    ParseError,
    _format_edits,
    eval_principal,
    format_expr,
    parse_equation,
    parse_expr,
)

__all__ = ["EX_OK", "EX_NEGATIVE", "EX_INCONCLUSIVE", "EX_USAGE", "EX_DATA", "EX_IOERR", "SCHEMAS", "load_schema",
           "main", "run"]

EX_OK = 0
EX_NEGATIVE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74

# subcommand -> schema file its --json payload validates against
SCHEMAS = {
    "normalize": "normalize.schema.json",
    "prove": "prove.schema.json",
    "eval": "eval.schema.json",
    "pr-min": "pr_min.schema.json",
    "pr-avoid": "pr_avoid.schema.json",
    "pr-check": "pr_check.schema.json",
    "pr-cnf": "pr_cnf.schema.json",
    "log-transform": "log_transform.schema.json",
    "numfn": "numfn.schema.json",
    "logpre": "logpre.schema.json",
    "expip-find": "expip_find.schema.json",
    "expip-verify": "expip_verify.schema.json",
}


def load_schema(name: str) -> dict:
    path = resources.files("ultraexp").joinpath("schemas", name)
    return json.loads(path.read_text(encoding="utf-8"))


class _ArgParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "inconclusive" here
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _intarg(s: str) -> int:
    """Plain or scientific-notation integer (1e18)."""
    try:
        return int(s)
    except ValueError:
        try:
            f = float(s)
        except ValueError:
            f = math.nan  # argparse would name this function in its message
        if not f.is_integer():
            raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
        return int(f)


def _secs(s: str) -> float:
    """Seconds as a float.  NaN is refused: it compares false with every
    clock reading, so it would switch the time budget off."""
    try:
        f = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {s!r}") from None
    if math.isnan(f):
        raise argparse.ArgumentTypeError(f"not a number of seconds: {s!r}")
    return f


def _xs_list(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_set(shorthand: str, cap: int) -> set[int]:
    """JSON-array file path, or interval:a..b / powers:b shorthand."""
    if shorthand.startswith("interval:"):
        a, sep, b = shorthand[len("interval:") :].partition("..")
        if not sep:
            raise ValueError(f"interval shorthand needs a..b, got {shorthand!r}")
        lo, hi = int(a), int(b)
        if not (1 <= lo <= hi):
            raise ValueError(f"need 1 <= a <= b in {shorthand!r}")
        return set(range(lo, hi + 1))
    if shorthand.startswith("powers:"):
        b = int(shorthand[len("powers:") :])
        if b < 2:
            raise ValueError("powers base must be >= 2")
        return set(numth._powers(b, cap))
    data = json.loads(_read_text(shorthand))
    if not isinstance(data, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in data
    ):
        raise ValueError(f"{shorthand}: set file must be a JSON array of naturals")
    return set(data)


def _emit(args, human: str, payload: dict) -> None:
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _budget(args) -> prsearch.SearchBudget:
    return prsearch.SearchBudget(args.budget_nodes, args.budget_secs)


def _coloring_obj(c: prsearch.Coloring) -> dict:
    return {"lo": c.lo, "hi": c.hi, "k": c.k, "colors": list(c.colors)}


# ---------------------------------------------------------------------------
# subcommands


def _trace_rows(trace) -> list[dict]:
    if not trace:
        return []
    # every step of one normalization, in order: the first step's edit log
    # holds them all, and the snapshots themselves are never built
    log = trace[0]._log
    texts = _format_edits(log.root, log.edits)
    return [{"rule": s.rule, "before": b, "after": a} for s, b, a in zip(trace, texts, texts[1:])]


def _cmd_normalize(args) -> int:
    e = parse_expr(args.expr)
    nf, trace = rewrite.normalize_with_trace(e, cap=args.cap)
    if args.trace_json and not args.as_json:
        print(json.dumps(_trace_rows(trace)))
        return EX_OK
    payload = {
        "input": format_expr(e),
        "normal_form": format_expr(nf),
        "rules": [s.rule for s in trace],
    }
    if args.trace_json:
        payload["trace"] = _trace_rows(trace)
    _emit(args, format_expr(nf), payload)
    return EX_OK


def _cmd_prove(args) -> int:
    lhs, rhs = parse_equation(args.equation)
    verdict = rewrite.prove_equal(lhs, rhs, cap=args.cap)
    match verdict:
        case rewrite.Equal(trace=trace):
            tr = [
                {"side": side, **row}
                for side in ("left", "right")
                for row in _trace_rows([s for s in trace if s.side == side])
            ]
            if args.trace_json and not args.as_json:
                print(json.dumps(tr))
                return EX_OK
            lines = [] if args.as_json else ["equal"] + [
                f"  [{r['side']}] {r['rule']}: {r['before']} -> {r['after']}" for r in tr
            ]
            _emit(args, "\n".join(lines), {"verdict": "equal", "trace": tr})
            return EX_OK
        case rewrite.NotEqual(oracle=oracle, bindings=bindings):
            where = ", ".join(f"{n} = {v}" for n, v in bindings)
            human = f"not equal  [{oracle}]" + (f"  where {where}" if where else "")
            _emit(
                args,
                human,
                {"verdict": "not_equal", "oracle": oracle, "bindings": dict(bindings)},
            )
            return EX_NEGATIVE
        case _:
            _emit(args, "unknown", {"verdict": "unknown"})
            return EX_INCONCLUSIVE


def _cmd_eval(args) -> int:
    e = parse_expr(args.expr)
    v = eval_principal(e, cap=args.cap)
    _emit(args, str(v), {"input": format_expr(e), "value": v})
    return EX_OK


_NUMFN = {
    "F": numth.largest_prime_factor,
    "Omega": numth.big_omega,
    "G": numth.largest_prime_exponent,
    "H": numth.largest_prime_power,
}


def _cmd_numfn(args) -> int:
    v = _NUMFN[args.fn](args.n)
    _emit(args, str(v), {"fn": args.fn, "n": args.n, "value": v})
    return EX_OK


def _cmd_logpre(args) -> int:
    members = _load_set(args.set, args.cap)
    pre = sorted(numth.log_preimage(members, args.base))
    _emit(args, " ".join(map(str, pre)), {"base": args.base, "preimage": pre})
    return EX_OK


def _cmd_pr_min(args) -> int:
    cfg = prsearch.parse_config(_read_text(args.config))
    out = prsearch.min_forced_n(cfg, args.k, args.lo, args.max, _budget(args))
    if isinstance(out, prsearch.Boundary):
        human = f"last_avoidable={out.last_avoidable} first_forced={out.first_forced}"
        payload = {
            "outcome": "boundary",
            "last_avoidable": out.last_avoidable,
            "first_forced": out.first_forced,
            "witness": None if out.witness is None else _coloring_obj(out.witness),
        }
        _emit(args, human, payload)
        return EX_OK
    return _emit_budget(args, out)


def _emit_budget(args, out: prsearch.Budget) -> int:
    human = f"inconclusive ({out.reason}) after {out.nodes} nodes"
    payload = {
        "outcome": "budget",
        "reason": out.reason,
        "nodes": out.nodes,
        "elapsed": out.elapsed,
    }
    _emit(args, human, payload)
    return EX_INCONCLUSIVE


def _cmd_pr_avoid(args) -> int:
    cfg = prsearch.parse_config(_read_text(args.config))
    out = prsearch.find_avoiding_coloring(cfg, args.k, args.lo, args.hi, _budget(args))
    match out:
        case prsearch.Avoidable(witness=w):
            payload = {"outcome": "avoidable", "coloring": _coloring_obj(w)}
            if args.out:
                _write_text(args.out, w.to_json() + "\n")
                payload["path"] = args.out
                _emit(args, "avoidable", payload)
            else:
                _emit(args, "avoidable\n" + w.to_json(), payload)
            return EX_OK
        case prsearch.Forced(nodes_explored=n):
            _emit(args, f"forced (nodes={n})", {"outcome": "forced", "nodes": n})
            return EX_NEGATIVE
        case _:
            return _emit_budget(args, out)


def _cmd_pr_check(args) -> int:
    cfg = prsearch.parse_config(_read_text(args.config))
    col = prsearch.Coloring.from_json(_read_text(args.coloring))
    inst = prsearch.check_coloring(col, cfg)
    if inst is None:
        _emit(args, "ok", {"ok": True})
        return EX_OK
    color = col.color_of(inst.term_values[0])
    where = ", ".join(f"{n} = {v}" for n, v in inst.binding)
    human = (
        f"monochromatic instance: {where} -> terms "
        f"{{{', '.join(map(str, inst.term_values))}}} in color {color}"
    )
    payload = {
        "ok": False,
        "binding": inst.binding_dict(),
        "term_values": list(inst.term_values),
        "color": color,
    }
    _emit(args, human, payload)
    return EX_NEGATIVE


def _cmd_pr_cnf(args) -> int:
    cfg = prsearch.parse_config(_read_text(args.config))
    dimacs = prsearch.export_cnf(cfg, args.k, args.lo, args.hi)
    _, _, v, c = dimacs.split("\n", 4)[3].split()  # the "p cnf" header line
    nvars, nclauses = int(v), int(c)
    if args.out:
        _write_text(args.out, dimacs)
        _emit(
            args,
            f"wrote {nvars} vars, {nclauses} clauses to {args.out}",
            {"vars": nvars, "clauses": nclauses, "path": args.out},
        )
    elif args.as_json:
        print(json.dumps({"vars": nvars, "clauses": nclauses, "dimacs": dimacs}, sort_keys=True))
    else:
        sys.stdout.write(dimacs)
    return EX_OK


def _cmd_log_transform(args) -> int:
    col = prsearch.Coloring.from_json(_read_text(args.coloring))
    out = prsearch.log_transform(col, args.base)
    payload = {"coloring": _coloring_obj(out)}
    if args.out:
        _write_text(args.out, out.to_json() + "\n")
        payload["path"] = args.out
        _emit(args, f"wrote [{out.lo}..{out.hi}] coloring to {args.out}", payload)
    else:
        _emit(args, out.to_json(), payload)
    return EX_OK


def _cmd_expip_find(args) -> int:
    members = _load_set(args.set, args.cap)
    w = expip.find_expip(members, args.depth, args.cap)
    if w is None:
        _emit(args, "no witness", {"witness": None})
        return EX_NEGATIVE
    _emit(args, " ".join(map(str, w.xs)), {"witness": list(w.xs), "depth": w.depth})
    return EX_OK


def _cmd_expip_verify(args) -> int:
    members = _load_set(args.set, args.cap)
    res = expip.verify_expip(members, args.xs, cap=args.cap)
    match res:
        case expip.Accepted():
            _emit(args, "accept", {"result": "accept"})
            return EX_OK
        case expip.Rejected(kind=kind, index=i, y=y, value=v):
            what = f"x[{i}] = {v}" if kind == "membership" else f"x[{i}]^{y} = {v}"
            _emit(
                args,
                f"reject: {what} not in set",
                {"result": "reject", "kind": kind, "index": i, "y": y, "value": v},
            )
            return EX_NEGATIVE
        case _:
            _emit(
                args,
                f"unknown at cap: x[{res.index}]^{res.y} exceeds {res.cap}",
                {"result": "unknown_at_cap", "index": res.index, "y": res.y, "cap": res.cap},
            )
            return EX_INCONCLUSIVE


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache  # built on the first run, then reused: parse_args keeps no state
def _build_parser() -> _ArgParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="as_json", action="store_true", help="machine-readable output")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap", type=_intarg, default=DEFAULT_CAP, help="value ceiling (default 2^64; 1e18 accepted)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-nodes", type=int, default=None,
                        help="search node budget (DFS nodes only, across the whole search)")
    budget.add_argument("--budget-secs", type=_secs, default=None, help="time budget, instance enumeration included")

    p = _ArgParser(prog="ultraexp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, *parents, **kw):
        sp = sub.add_parser(name, parents=[common, *parents], **kw)
        sp.set_defaults(func=fn)
        return sp

    sp = add("normalize", _cmd_normalize, cap, help="rewrite an expression to normal form")
    sp.add_argument("expr")
    sp.add_argument("--trace-json", action="store_true", help="emit the rule firings as a JSON array")

    sp = add("prove", _cmd_prove, cap, help="decide 'lhs == rhs' by normalization or refutation")
    sp.add_argument("equation", help='e.g. "2^p * 2^q == 2^(p+q)"')
    sp.add_argument("--trace-json", action="store_true", help="emit the rule firings as a JSON array")

    sp = add("eval", _cmd_eval, cap, help="evaluate a variable-free expression exactly")
    sp.add_argument("expr")

    sp = add("numfn", _cmd_numfn, help="largest-prime F, big-Omega, exponent G, head H")
    sp.add_argument("fn", choices=sorted(_NUMFN))
    sp.add_argument("n", type=int)

    sp = add("logpre", _cmd_logpre, cap, help="{n >= 1 : base^n in set}")
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--set", required=True, help="JSON array file, interval:a..b, or powers:b")

    sp = add("pr-min", _cmd_pr_min, budget, help="scan N for the first forced [lo..N], continuing one search")
    sp.add_argument("--config", required=True, help="config DSL file")
    sp.add_argument("-k", type=int, required=True, help="number of colors")
    sp.add_argument("--lo", type=int, default=1)
    sp.add_argument("--max", type=int, required=True, help="largest N to try")

    sp = add("pr-avoid", _cmd_pr_avoid, budget,
             help="search for an avoiding coloring of [lo..hi], bound by growing bound")
    sp.add_argument("--config", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--lo", type=int, default=1)
    sp.add_argument("--hi", type=int, required=True)
    sp.add_argument("--out", help="write the witness coloring JSON here")

    sp = add("pr-check", _cmd_pr_check, help="check a coloring file against a configuration")
    sp.add_argument("--coloring", required=True, help="coloring JSON file")
    sp.add_argument("--config", required=True)

    sp = add("pr-cnf", _cmd_pr_cnf, help="export the coloring problem as DIMACS CNF")
    sp.add_argument("--config", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--lo", type=int, default=1)
    sp.add_argument("--hi", type=int, required=True)
    sp.add_argument("--out", help="write DIMACS here instead of stdout")

    sp = add("log-transform", _cmd_log_transform, help="pull a coloring back along n -> base^n")
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--out", help="write the transformed coloring JSON here")

    sp = add("expip-find", _cmd_expip_find, cap, help="search for an exponential-IP witness sequence")
    sp.add_argument("--set", required=True)
    sp.add_argument("--depth", type=int, required=True)

    sp = add("expip-verify", _cmd_expip_verify, cap, help="verify a candidate witness sequence")
    sp.add_argument("--set", required=True)
    sp.add_argument("--xs", type=_xs_list, required=True, help="comma-separated, e.g. 2,2,2")

    return p


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (CapExceeded, rewrite.RuleLimitExceeded, RecursionError) as e:
        print(f"ultraexp: {e}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except MemoryError:  # its message is empty
        print("ultraexp: out of memory", file=sys.stderr)
        return EX_INCONCLUSIVE
    except ParseError as e:
        print(f"ultraexp: parse error at byte {e.offset}: {e}", file=sys.stderr)
        return EX_DATA
    except BrokenPipeError as e:  # before OSError: the output's reader is gone
        print(f"ultraexp: output closed: {e}", file=sys.stderr)
        return EX_IOERR
    except (EvalError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"ultraexp: {e}", file=sys.stderr)
        return EX_DATA


def main() -> None:
    rc = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: point it at the null device, so that the
        # interpreter's own flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = EX_IOERR
    sys.exit(rc)
