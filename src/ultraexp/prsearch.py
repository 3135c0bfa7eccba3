"""Finite partition-regularity engine.

A configuration template is a list of monotone integer terms (naturals,
variables, +, *, ^) with optional constraints.  This module enumerates its
instances inside an interval, checks colorings for monochromatic instances,
searches for avoiding colorings by exhaustive backtracking, exports the
question as DIMACS CNF, and applies the log-base transform that turns
products into sums.
"""

from __future__ import annotations

import functools
import json
import time
import types
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
    _children,
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
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variables {self.variables} repeat a name")
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
        if {type(self.lo), type(self.hi), type(self.k)} != {int}:
            raise ValueError("lo, hi and k must be integers")
        if not (1 <= self.lo <= self.hi):
            raise ValueError("need 1 <= lo <= hi")
        if self.k < 1:
            raise ValueError("need k >= 1")
        if len(self.colors) != self.hi - self.lo + 1:
            raise ValueError("assignment length must be hi - lo + 1")
        # no Python-level loop: colorings run to tens of thousands of points
        if set(map(type, self.colors)) != {int}:
            raise ValueError("color indices must be integers")
        used = set(self.colors)
        if min(used) < 0 or max(used) >= self.k:
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
        if not isinstance(d, dict) or not isinstance(d.get("colors"), list):
            raise ValueError('a coloring is a JSON object with a "colors" list')
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

class _OutOfTime(Exception):
    """The caller's clock ran out during enumeration."""


def _power(x: int, y: int, sat: int, bits: int) -> int:
    """x ^ y saturated at sat = hi + 1, where bits = hi.bit_length()."""
    if x == 1:
        return 1
    if x >= sat:
        return sat
    if y == 1:
        return x
    if (x.bit_length() - 1) * y >= bits + 1:
        return sat
    return min(x**y, sat)


_OPS = {Sum: "min(r{} + r{}, sat)", Prod: "min(r{} * r{}, sat)",
        Exp1: "_power(r{}, r{}, sat, bits)"}
_compile = functools.lru_cache(maxsize=64)(compile)  # one code object per term shape


def _term_function(t: UExpr, index: dict[str, int], sat: int, bits: int):
    """t as one function of the value array: one assignment per node, children
    first, so any depth compiles; values past hi read as sat.  The source holds
    only register numbers, value indices and _OPS, literals come in as globals."""
    reg: dict[int, int] = {}  # keyed by id(node), so a shared subtree works
    lits: list[int] = []
    lines = ["def f(val):"]
    for node in reversed([*subexprs(t)]):
        if id(node) in reg:
            continue
        if type(node) is Var:
            rhs = f"val[{index[node.name]}]"
        elif type(node) is Nat:
            rhs = f"lit[{len(lits)}]"
            lits.append(min(node.value, sat))
        else:
            rhs = _OPS[type(node)].format(*(reg[id(c)] for c in _children(node)))
        lines.append(f"    r{len(reg)} = {rhs}")
        reg[id(node)] = len(reg)
    lines.append(f"    return r{reg[id(t)]}")
    env = {"min": min, "_power": _power, "sat": sat, "bits": bits, "lit": tuple(lits)}
    return types.FunctionType(_compile("\n".join(lines), "<term>", "exec").co_consts[0], env)


def _instances(cfg: ConfigTemplate, lo: int, hi: int, coloring: Coloring | None,
               deadline: float | None = None):
    """Depth-first lexicographic enumeration, variables assigned in
    declaration order, optionally restricted to instances monochromatic
    under ``coloring`` (pruned, same order), as (values, term_values) tuples.

    Each constraint is checked when the later of its variables is assigned,
    and each term once its last variable is; ``log2_le(x, x)`` always holds
    and is skipped.  Unassigned variables sit at their minimum, a live lower
    bound, and a term past hi cuts the branch: terms are monotone in every
    variable.  Every 1024 candidates the clock is read against
    ``deadline`` (time.monotonic), raising _OutOfTime once it has passed.
    """
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    sat, bits = hi + 1, hi.bit_length()
    index = {v: i for i, v in enumerate(cfg.variables)}
    n = len(index)
    mins = [lo] * n
    unlike: list[list[int]] = [[] for _ in range(n)]   # distinct, assigned earlier
    log_lo: list[list[int]] = [[] for _ in range(n)]   # x earlier, log2_le(x, d)
    log_hi: list[list[int]] = [[] for _ in range(n)]   # y earlier, log2_le(d, y)
    for c in cfg.constraints:
        match c:
            case MinBound(var=v, low=m):
                mins[index[v]] = max(mins[index[v]], m)
            case Distinct(names=ns):
                for a in ns:
                    unlike[index[a]] += [index[b] for b in ns if index[b] < index[a]]
            case Log2Le(x=x, y=y):
                if index[x] < index[y]:
                    log_lo[index[y]].append(index[x])
                elif index[y] < index[x]:
                    log_hi[index[x]].append(index[y])

    val = list(mins)
    tv = [0] * len(cfg.terms)  # term values, each set when its term completes
    colors = None if coloring is None else coloring.colors
    # watch[d]: (j, term) for the terms holding variable d, j = -1 while the
    # term still has a later variable; a constant term completes at d = 0
    watch: list[list] = [[] for _ in range(n)]
    for j, t in enumerate(cfg.terms):
        vs: list[str] = []
        _term_vars(t, vs)
        ids = {index[v] for v in vs} or {0}
        f = _term_function(t, index, sat, bits)
        for i in ids:
            watch[i].append((j if i == max(ids) else -1, f))
    last = n - 1
    tick = 0

    def dfs(d: int, need: int):
        nonlocal tick
        # ceil(log2(x)) <= v for x in log_lo[d], ceil(log2(v)) <= y for y in log_hi[d]
        lower = max([mins[d], *((val[i] - 1).bit_length() for i in log_lo[d])])
        upper = min([hi, *(1 << min(val[i], bits) for i in log_hi[d])])
        taken = {val[i] for i in unlike[d]}
        for v in range(lower, upper + 1):
            tick += 1
            if not tick & 1023 and deadline is not None and time.monotonic() > deadline:
                raise _OutOfTime
            if v in taken:
                continue
            val[d] = v
            c = need
            for j, f in watch[d]:
                x = f(val)
                if x > hi:
                    break
                if j < 0:
                    continue
                tv[j] = x
                if x < lo:
                    break
                if colors is not None:
                    if c == -1:
                        c = colors[x - lo]
                    elif colors[x - lo] != c:
                        break
            else:
                if d == last:
                    yield tuple(val), tuple(tv)
                else:
                    yield from dfs(d + 1, c)
                continue
            if x > hi:
                break  # terms are monotone: no larger v helps
        val[d] = mins[d]

    yield from dfs(0, -1)


def enumerate_instances(cfg: ConfigTemplate, lo: int, hi: int) -> list[Instance]:
    """All satisfying bindings with every term value in [lo..hi], in
    lexicographic binding order.  Bindings pushing any term past hi are
    skipped (never clamped)."""
    return [Instance(tuple(zip(cfg.variables, v)), t) for v, t in _instances(cfg, lo, hi, None)]


def check_coloring(c: Coloring, cfg: ConfigTemplate) -> Instance | None:
    """First monochromatic instance in enumeration order, or None."""
    for v, t in _instances(cfg, c.lo, c.hi, c):
        return Instance(tuple(zip(cfg.variables, v)), t)
    return None


# ---------------------------------------------------------------------------
# backtracking search

def _search(
    cfg: ConfigTemplate, k: int, lo: int, hi: int, budget: SearchBudget,
    start: float, nodes: int = 0,
) -> tuple[SearchOutcome, int]:
    """One search whose budget counts from ``start`` (time.monotonic) and
    from ``nodes`` DFS nodes already spent; returns the total node count."""
    if k < 1:
        raise ValueError("need k >= 1")
    max_nodes = budget.max_nodes
    deadline = None if budget.max_seconds is None else start + budget.max_seconds

    try:  # distinct sorted value tuples, in first-seen order
        insts = list(dict.fromkeys(
            tuple(sorted(set(t))) for _, t in _instances(cfg, lo, hi, None, deadline)
        ))
    except _OutOfTime:
        return Budget(nodes, time.monotonic() - start, "time"), nodes

    values = sorted({v for key in insts for v in key})
    if not insts:
        witness = Coloring(lo, hi, k, (0,) * (hi - lo + 1))
        return Avoidable(witness), nodes
    pos_of = {v: i for i, v in enumerate(values)}
    npos = len(values)
    inst_pos = [tuple(pos_of[v] for v in key) for key in insts]
    occurs: list[list[int]] = [[] for _ in range(npos)]
    for ii, pis in enumerate(inst_pos):
        for pi in pis:
            occurs[pi].append(ii)
    if deadline is not None and time.monotonic() > deadline:
        return Budget(nodes, time.monotonic() - start, "time"), nodes

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
                if deadline is not None and nodes % 1024 == 0:
                    if time.monotonic() > deadline:
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
    the witness.  The time budget covers the instance enumeration too; the
    node budget counts DFS nodes only."""
    return _search(cfg, k, lo, hi, budget or SearchBudget(), time.monotonic())[0]


def min_forced_n(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    n_max: int,
    budget: SearchBudget | None = None,
) -> Boundary | Budget:
    """Scan N upward from lo, enumerating and searching [lo..N] afresh for
    each N; one clock and one DFS node count run across the whole scan."""
    budget = budget or SearchBudget()
    start = time.monotonic()
    nodes = 0
    last: tuple[int, Coloring] | None = None
    for n in range(lo, n_max + 1):
        if budget.max_nodes is not None and nodes >= budget.max_nodes:
            return Budget(nodes, time.monotonic() - start, "nodes")
        if budget.max_seconds is not None and time.monotonic() - start >= budget.max_seconds:
            return Budget(nodes, time.monotonic() - start, "time")
        out, nodes = _search(cfg, k, lo, n, budget, start, nodes)
        match out:
            case Avoidable(witness=w):
                last = (n, w)
            case Forced():
                return Boundary(*(last or (None, None)), n)
            case Budget():
                return out
    return Budget(nodes, time.monotonic() - start, "n_max")


# ---------------------------------------------------------------------------
# CNF export

def export_cnf(cfg: ConfigTemplate, k: int, lo: int, hi: int) -> str:
    """DIMACS CNF, satisfiable iff an avoiding k-coloring of [lo..hi] exists.

    Variable v(n,c) = (n-lo)*k + c + 1.  Per position: one at-least-one
    clause and pairwise at-most-one clauses.  Per enumerated instance
    (repeats kept) and color: one clause barring its term values that color.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    width = hi - lo + 1
    lines = []
    for base in range(1, width * k + 1, k):  # var(n, 0) of each position n
        lines.append(" ".join(map(str, range(base, base + k))) + " 0")
        lines.extend(f"-{base + c1} -{base + c2} 0" for c1 in range(k) for c2 in range(c1 + 1, k))
    count = 0
    for _, t in _instances(cfg, lo, hi, None):
        count += 1
        bases = [(v - lo) * k + 1 for v in sorted(set(t))]
        lines.extend(" ".join(f"-{b + c}" for b in bases) + " 0" for c in range(k))
    header = (
        f"c configuration: {format_config(cfg)}\n"
        f"c range [{lo}..{hi}], {k} colors, {count} instances\n"
        "c var(n,c) = (n - lo)*k + c + 1  maps position n, color c\n"
        f"p cnf {width * k} {width * (1 + k * (k - 1) // 2) + count * k}\n"
    )
    return header + "\n".join(lines) + "\n"


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
