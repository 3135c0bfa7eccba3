"""Finite partition-regularity engine.

A configuration template is a list of monotone integer terms (naturals,
variables, +, *, ^) with optional constraints.  This module enumerates its
instances inside an interval, checks colorings for monochromatic instances,
searches for avoiding colorings by exhaustive backtracking, exports the
question as DIMACS CNF, and applies the log-base transform that turns
products into sums.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .expr import (
    Exp1,
    Nat,
    ParseError,
    Prod,
    Sum,
    UExpr,
    Var,
    _byte_offset,
    _Parser,
    format_expr,
    subexprs,
)

__all__ = [
    "Avoidable",
    "Boundary",
    "Budget",
    "Coloring",
    "ConfigTemplate",
    "Distinct",
    "Forced",
    "Instance",
    "Log2Le",
    "MinBound",
    "SearchBudget",
    "SearchOutcome",
    "check_coloring",
    "enumerate_instances",
    "export_cnf",
    "find_avoiding_coloring",
    "format_config",
    "log_transform",
    "min_forced_n",
    "parse_config",
]


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class MinBound:
    """var >= low (the DSL's `x > c` arrives as low = c + 1)."""

    var: str
    low: int


@dataclass(frozen=True)
class Distinct:
    names: tuple[str, ...]


@dataclass(frozen=True)
class Log2Le:
    """ceil(log2(x)) <= y."""

    x: str
    y: str


Constraint = MinBound | Distinct | Log2Le

_TERM_NODES = (Nat, Var, Sum, Prod, Exp1)


def _term_vars(t: UExpr, out: list[str]) -> None:
    for n in subexprs(t):
        if not isinstance(n, _TERM_NODES):
            raise ValueError(f"configuration terms allow only naturals, "
                             f"variables, +, *, ^; got {n!r}")
        if isinstance(n, Var) and n.name not in out:
            out.append(n.name)


@dataclass(frozen=True)
class ConfigTemplate:
    variables: tuple[str, ...]
    terms: tuple[UExpr, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a configuration needs at least one term")
        seen: list[str] = []
        for t in self.terms:
            _term_vars(t, seen)
        if set(self.variables) != set(seen) or not self.variables:
            raise ValueError(
                f"variables {self.variables} do not match the terms' "
                f"variables {tuple(seen)}"
            )
        declared = set(self.variables)
        for c in self.constraints:
            names = (
                (c.var,) if isinstance(c, MinBound)
                else c.names if isinstance(c, Distinct)
                else (c.x, c.y)
            )
            for n in names:
                if n not in declared:
                    raise ValueError(f"constraint references undeclared variable {n!r}")


@dataclass(frozen=True)
class Coloring:
    lo: int
    hi: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise ValueError("need 1 <= lo <= hi")
        if self.k < 1:
            raise ValueError("need k >= 1")
        if len(self.colors) != self.hi - self.lo + 1:
            raise ValueError("assignment length must be hi - lo + 1")
        if any(not (0 <= c < self.k) for c in self.colors):
            raise ValueError("color indices must lie in [0..k-1]")

    def color_of(self, n: int) -> int:
        if not (self.lo <= n <= self.hi):
            raise ValueError(f"{n} outside [{self.lo}..{self.hi}]")
        return self.colors[n - self.lo]

    def to_json(self) -> str:
        return json.dumps(
            {"lo": self.lo, "hi": self.hi, "k": self.k, "colors": list(self.colors)}
        )

    @classmethod
    def from_json(cls, text: str) -> "Coloring":
        d = json.loads(text)
        return cls(d["lo"], d["hi"], d["k"], tuple(d["colors"]))


@dataclass(frozen=True)
class Instance:
    binding: tuple[tuple[str, int], ...]
    term_values: tuple[int, ...]

    def binding_dict(self) -> dict[str, int]:
        return dict(self.binding)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class Avoidable:
    witness: Coloring


@dataclass(frozen=True)
class Forced:
    nodes_explored: int


@dataclass(frozen=True)
class Budget:
    nodes: int
    elapsed: float
    reason: str  # "nodes" | "time" | "n_max"


SearchOutcome = Avoidable | Forced | Budget


@dataclass(frozen=True)
class Boundary:
    last_avoidable: int | None
    witness: Coloring | None
    first_forced: int


# ---------------------------------------------------------------------------
# config DSL:  config { x, y, x^y } where x>1, y>1, distinct(x,y);

def _expect_kw(p: _Parser, word: str) -> None:
    t = p.peek()
    if t.kind != "ident" or t.text != word:
        p.fail((f"'{word}'",))
    p.next()


def _at_kw(p: _Parser, word: str) -> bool:
    t = p.peek()
    return t.kind == "ident" and t.text == word


def _parse_constraint(p: _Parser, declared: set[str]) -> Constraint:
    t = p.peek()
    if t.kind != "ident":
        p.fail(("variable name", "'distinct'", "'log2_le'"))
    if t.text == "distinct":
        p.next()
        p.require_op("(")
        names = [p.require_ident()]
        while p.eat_op(","):
            names.append(p.require_ident())
        p.require_op(")")
        if len(names) < 2:
            raise ParseError(
                "distinct(...) needs at least two variables",
                _byte_offset(p.text, t.pos),
            )
        for tok in names:
            _check_declared(p, tok, declared)
        return Distinct(tuple(tok.text for tok in names))
    if t.text == "log2_le":
        p.next()
        p.require_op("(")
        x = p.require_ident()
        p.require_op(",")
        y = p.require_ident()
        p.require_op(")")
        _check_declared(p, x, declared)
        _check_declared(p, y, declared)
        return Log2Le(x.text, y.text)
    tok = p.require_ident()
    _check_declared(p, tok, declared)
    if p.eat_op(">="):
        return MinBound(tok.text, p.require_nat())
    if p.eat_op(">"):
        return MinBound(tok.text, p.require_nat() + 1)
    p.fail(("'>'", "'>='"))


def _check_declared(p: _Parser, tok, declared: set[str]) -> None:
    if tok.text not in declared:
        raise ParseError(
            f"constraint references undeclared variable {tok.text!r}",
            _byte_offset(p.text, tok.pos),
        )


def parse_config(text: str) -> ConfigTemplate:
    p = _Parser(text, arith_only=True)
    _expect_kw(p, "config")
    p.require_op("{")
    terms = [p.parse_sum()]
    while p.eat_op(","):
        terms.append(p.parse_sum())
    p.require_op("}")
    variables: list[str] = []
    for t in terms:
        _term_vars(t, variables)
    constraints: list[Constraint] = []
    if _at_kw(p, "where"):
        p.next()
        declared = set(variables)
        constraints.append(_parse_constraint(p, declared))
        while p.eat_op(","):
            constraints.append(_parse_constraint(p, declared))
    p.require_op(";")
    p.require_end()
    return ConfigTemplate(tuple(variables), tuple(terms), tuple(constraints))


def format_config(cfg: ConfigTemplate) -> str:
    parts = [f"config {{{', '.join(format_expr(t) for t in cfg.terms)}}}"]
    if cfg.constraints:
        items = []
        for c in cfg.constraints:
            match c:
                case MinBound(var=v, low=m):
                    items.append(f"{v} >= {m}")
                case Distinct(names=ns):
                    items.append(f"distinct({', '.join(ns)})")
                case Log2Le(x=x, y=y):
                    items.append(f"log2_le({x}, {y})")
        parts.append("where " + ", ".join(items))
    return " ".join(parts) + ";"


# ---------------------------------------------------------------------------
# instance enumeration

class _Query:
    """Precomputed tables for one (cfg, lo, hi) enumeration."""

    def __init__(self, cfg: ConfigTemplate, lo: int, hi: int):
        if not (1 <= lo <= hi):
            raise ValueError("need 1 <= lo <= hi")
        self.lo, self.hi, self.sat = lo, hi, hi + 1
        self.bits = hi.bit_length()
        self.vars = cfg.variables
        self.terms = cfg.terms
        index = {v: i for i, v in enumerate(cfg.variables)}
        n = len(cfg.variables)
        self.mins = [lo] * n
        self.distinct: list[list[int]] = [[] for _ in range(n)]
        self.log2_lower: list[list[int]] = [[] for _ in range(n)]  # x's for var=y
        self.log2_upper: list[list[int]] = [[] for _ in range(n)]  # y's for var=x
        for c in cfg.constraints:
            match c:
                case MinBound(var=v, low=m):
                    i = index[v]
                    self.mins[i] = max(self.mins[i], m)
                case Distinct(names=ns):
                    for a in ns:
                        for b in ns:
                            if a != b:
                                self.distinct[index[a]].append(index[b])
                case Log2Le(x=x, y=y):
                    self.log2_lower[index[y]].append(index[x])
                    self.log2_upper[index[x]].append(index[y])
        vs: list[list[str]] = []
        for t in cfg.terms:
            out: list[str] = []
            _term_vars(t, out)
            vs.append(out)
        self.term_vars = [tuple(index[v] for v in out) for out in vs]


def _instances(cfg: ConfigTemplate, lo: int, hi: int, coloring: Coloring | None):
    """Depth-first lexicographic enumeration, optionally restricted to
    instances monochromatic under ``coloring`` (pruned, same order)."""
    q = _Query(cfg, lo, hi)
    n = len(q.vars)
    val = list(q.mins)  # unassigned slots sit at their minimum: a live lower bound
    assigned = [False] * n
    # resolve Var lookups once: eval_sat uses index() otherwise
    var_index = {v: i for i, v in enumerate(q.vars)}

    def ev(t: UExpr) -> int:
        match t:
            case Var(name=nm):
                return val[var_index[nm]]
            case Nat(value=v):
                return min(v, q.sat)
            case Sum(left=a, right=b):
                return min(ev(a) + ev(b), q.sat)
            case Prod(left=a, right=b):
                return min(ev(a) * ev(b), q.sat)
            case Exp1(base=a, exp=b):
                x = ev(a)
                if x == 1:
                    return 1
                if x >= q.sat:
                    return q.sat
                y = ev(b)
                if y == 1:
                    return x
                if (x.bit_length() - 1) * y >= q.bits + 1:
                    return q.sat
                return min(x**y, q.sat)
        raise ValueError(f"not a configuration term: {t!r}")

    def dfs(d: int):
        if d == n:
            vals = tuple(ev(t) for t in cfg.terms)
            yield Instance(
                tuple(zip(q.vars, val)),
                vals,
            )
            return
        lower = q.mins[d]
        for xi in q.log2_lower[d]:
            if assigned[xi]:
                lower = max(lower, _ceil_log2(val[xi]))
        upper = hi
        for yi in q.log2_upper[d]:
            if assigned[yi]:
                b = val[yi]
                if b < q.bits:
                    upper = min(upper, 1 << b)
        assigned[d] = True
        v = lower
        while v <= upper:
            val[d] = v
            if any(assigned[o] and val[o] == v for o in q.distinct[d]):
                v += 1
                continue
            stop = skip = False
            need = -1
            for j, t in enumerate(cfg.terms):
                x = ev(t)
                if x > hi:
                    # terms are monotone in every variable: no larger v helps
                    stop = True
                    break
                if all(assigned[i] for i in q.term_vars[j]):
                    if x < lo:
                        skip = True
                        break
                    if coloring is not None:
                        c = coloring.colors[x - lo]
                        if need == -1:
                            need = c
                        elif c != need:
                            skip = True
                            break
            if stop:
                break
            if not skip:
                yield from dfs(d + 1)
            v += 1
        assigned[d] = False
        val[d] = q.mins[d]

    yield from dfs(0)


def enumerate_instances(cfg: ConfigTemplate, lo: int, hi: int) -> list[Instance]:
    """All satisfying bindings with every term value in [lo..hi], in
    lexicographic binding order.  Bindings pushing any term past hi are
    skipped (never clamped)."""
    return list(_instances(cfg, lo, hi, None))


def check_coloring(c: Coloring, cfg: ConfigTemplate) -> Instance | None:
    """First monochromatic instance in enumeration order, or None."""
    return next(_instances(cfg, c.lo, c.hi, c), None)


# ---------------------------------------------------------------------------
# backtracking search

def _search(
    cfg: ConfigTemplate, k: int, lo: int, hi: int, budget: SearchBudget | None
) -> tuple[SearchOutcome, int]:
    if k < 1:
        raise ValueError("need k >= 1")
    budget = budget or SearchBudget()
    start = time.monotonic()

    seen: set[tuple[int, ...]] = set()
    insts: list[tuple[int, ...]] = []  # deduplicated sorted value tuples
    for inst in _instances(cfg, lo, hi, None):
        key = tuple(sorted(set(inst.term_values)))
        if key not in seen:
            seen.add(key)
            insts.append(key)

    values = sorted({v for key in insts for v in key})
    if not insts:
        witness = Coloring(lo, hi, k, (0,) * (hi - lo + 1))
        return Avoidable(witness), 0
    pos_of = {v: i for i, v in enumerate(values)}
    npos = len(values)
    inst_pos = [tuple(pos_of[v] for v in key) for key in insts]
    occurs: list[list[int]] = [[] for _ in range(npos)]
    for ii, pis in enumerate(inst_pos):
        for pi in pis:
            occurs[pi].append(ii)

    m = len(insts)
    need = [-1] * m          # the shared color of assigned members, -1 = none yet
    left = [len(p) for p in inst_pos]
    live = [True] * m        # False once two colors are present (never mono)
    assignment = [-1] * npos
    forbid = [0] * npos      # bitmask of colors ruled out by nearly-mono instances
    full = (1 << k) - 1

    def apply(pi: int, c: int, trail: list) -> bool:
        assignment[pi] = c
        for ii in occurs[pi]:
            if not live[ii]:
                continue
            r = need[ii]
            if r != -1 and r != c:
                trail.append((True, ii, 0))
                live[ii] = False
                continue
            trail.append((False, ii, r))
            need[ii] = c
            left[ii] -= 1
            if left[ii] == 0:
                return False  # completed monochromatic instance
            if left[ii] == 1:
                for pj in inst_pos[ii]:
                    if assignment[pj] == -1:
                        old = forbid[pj]
                        new = old | (1 << c)
                        if new != old:
                            trail.append((None, pj, old))
                            forbid[pj] = new
                            if new == full:
                                return False  # wiped out the last open color
                        break
        return True

    def undo(pi: int, trail: list) -> None:
        for kind, idx, prev in reversed(trail):
            if kind is None:
                forbid[idx] = prev
            elif kind:
                live[idx] = True
            else:
                need[idx] = prev
                left[idx] += 1
        assignment[pi] = -1

    nodes = 0
    max_nodes = budget.max_nodes
    max_seconds = budget.max_seconds
    stack: list[tuple[list, int, int]] = []  # (trail, color, previous max color)
    max_color = -1
    d, c = 0, 0
    while True:
        cap = min(k - 1, max_color + 1)
        descended = False
        while c <= cap:
            if not forbid[d] >> c & 1:
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    return Budget(nodes, time.monotonic() - start, "nodes"), nodes
                if max_seconds is not None and nodes % 1024 == 0:
                    if time.monotonic() - start > max_seconds:
                        return Budget(nodes, time.monotonic() - start, "time"), nodes
                trail: list = []
                if apply(d, c, trail):
                    stack.append((trail, c, max_color))
                    max_color = max(max_color, c)
                    descended = True
                    break
                undo(d, trail)
            c += 1
        if descended:
            d += 1
            c = 0
            if d == npos:
                colors = [0] * (hi - lo + 1)
                for pi, v in enumerate(values):
                    colors[v - lo] = assignment[pi]
                return Avoidable(Coloring(lo, hi, k, tuple(colors))), nodes
        else:
            if not stack:
                return Forced(nodes), nodes
            d -= 1
            trail, c, max_color = stack.pop()
            undo(d, trail)
            c += 1


def find_avoiding_coloring(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    hi: int,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Exhaustive backtracking over the positions that occur in instances
    (ascending), colors capped at one above the maximum used so far (global
    color-permutation symmetry).  Positions in no instance take color 0 in
    the witness."""
    return _search(cfg, k, lo, hi, budget)[0]


def min_forced_n(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    n_max: int,
    budget: SearchBudget | None = None,
) -> Boundary | Budget:
    """Scan N upward from lo; the budget is cumulative across the scan."""
    budget = budget or SearchBudget()
    start = time.monotonic()
    total = 0
    last: tuple[int, Coloring] | None = None
    for n in range(lo, n_max + 1):
        remaining_nodes = (
            None if budget.max_nodes is None else budget.max_nodes - total
        )
        remaining_secs = (
            None
            if budget.max_seconds is None
            else budget.max_seconds - (time.monotonic() - start)
        )
        if remaining_nodes is not None and remaining_nodes <= 0:
            return Budget(total, time.monotonic() - start, "nodes")
        if remaining_secs is not None and remaining_secs <= 0:
            return Budget(total, time.monotonic() - start, "time")
        out, nodes = _search(
            cfg, k, lo, n, SearchBudget(remaining_nodes, remaining_secs)
        )
        total += nodes
        match out:
            case Avoidable(witness=w):
                last = (n, w)
            case Forced():
                if last is None:
                    return Boundary(None, None, n)
                return Boundary(last[0], last[1], n)
            case Budget(reason=r):
                return Budget(total, time.monotonic() - start, r)
    return Budget(total, time.monotonic() - start, "n_max")


# ---------------------------------------------------------------------------
# CNF export

def export_cnf(cfg: ConfigTemplate, k: int, lo: int, hi: int) -> str:
    """DIMACS CNF, satisfiable iff an avoiding k-coloring of [lo..hi] exists.

    Variable v(n,c) = (n-lo)*k + c + 1.  Per position: one at-least-one
    clause and pairwise at-most-one clauses.  Per instance and color: one
    all-different clause over its distinct term values.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    insts = enumerate_instances(cfg, lo, hi)
    width = hi - lo + 1

    def var(n: int, c: int) -> int:
        return (n - lo) * k + c + 1

    clauses: list[list[int]] = []
    for n in range(lo, hi + 1):
        clauses.append([var(n, c) for c in range(k)])
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                clauses.append([-var(n, c1), -var(n, c2)])
    for inst in insts:
        vals = sorted(set(inst.term_values))
        for c in range(k):
            clauses.append([-var(v, c) for v in vals])

    lines = [
        f"c configuration: {format_config(cfg)}",
        f"c range [{lo}..{hi}], {k} colors, {len(insts)} instances",
        "c var(n,c) = (n - lo)*k + c + 1  maps position n, color c",
        f"p cnf {width * k} {len(clauses)}",
    ]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# log-base transform

def log_transform(c: Coloring, base: int) -> Coloring:
    """Coloring of [1..floor(log_base hi)] reading off the colors at the
    powers of base: color(n) = c at base**n."""
    if base < 2:
        raise ValueError("need base >= 2")
    if base < c.lo:
        raise ValueError(f"base {base} below the coloring's range start {c.lo}")
    hi2 = 0
    p = base
    while p <= c.hi:
        hi2 += 1
        p *= base
    if hi2 < 1:
        raise ValueError(f"no powers of {base} inside [{c.lo}..{c.hi}]")
    colors = tuple(c.color_of(base**n) for n in range(1, hi2 + 1))
    return Coloring(1, hi2, c.k, colors)
