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
import re
import time
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

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
from .numth import _powers

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

    @functools.cached_property
    def _enumerators(self) -> dict:
        """``_enumerator``'s result for this object, by coloring mode, so a
        scan over N builds its source once.  No field: it is kept out of
        ==, hash and repr."""
        return {}

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

    @classmethod
    def _unchecked(cls, lo: int, hi: int, k: int, colors: tuple[int, ...]) -> "Coloring":
        """A coloring whose fields the caller builds valid, made without
        ``__post_init__``'s passes over every color."""
        c = object.__new__(cls)
        c.__dict__.update(lo=lo, hi=hi, k=k, colors=colors)
        return c

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


@dataclass(frozen=True, slots=True)
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


# Sums go unsaturated: a sum past hi stays past hi, a product or power of it
# saturates, and every term value is compared with hi before it is used.
_OPS = {Sum: "{} + {}", Prod: "min({} * {}, sat)", Exp1: "_power({}, {}, sat, bits)"}
_compile = functools.lru_cache(maxsize=64)(compile)  # one code object per source
_LOOPS = 16  # loops per generated function: CPython nests at most 20 blocks
_SORTED_INLINE = 8  # most terms whose key a sorting network builds


def _instances(cfg: ConfigTemplate, lo: int, hi: int, coloring: Coloring | None,
               deadline: float | None = None, keys: bool = False):
    """Depth-first lexicographic enumeration, variables assigned in
    declaration order, optionally restricted to instances monochromatic
    under ``coloring`` (pruned, same order), as (values, term_values) tuples.
    With ``keys`` each instance comes out instead as its key: its distinct
    term values, ascending, which is what the search and the CNF export
    constrain.  Repeats are kept, in enumeration order.

    Runs the generated source of ``_enumerator``, built once per
    configuration object and mode, in an environment holding this call's
    range, literal table and colors.  Every 1024 candidates the clock is
    read against ``deadline`` (time.monotonic), raising _OutOfTime once it
    has passed.
    """
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    colored = coloring is not None
    plans = cfg._enumerators
    if (colored, keys) not in plans:
        plans[colored, keys] = _enumerator(cfg, colored, keys)
    src, floors, nats = plans[colored, keys]
    lit = tuple(max(lo, f) for f in floors) + tuple(min(v, hi + 1) for v in nats)
    env = {"_power": _power, "_OutOfTime": _OutOfTime, "monotonic": time.monotonic,
           "deadline": float("inf") if deadline is None else deadline,
           "lo": lo, "hi": hi, "sat": hi + 1, "bits": hi.bit_length(), "lit": lit,
           "colors": coloring.colors if colored else None}
    exec(_compile(src, "<instances>", "exec"), env)
    yield from env["g0"]((), (), -1, 0)


def _sorting_network(m: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on m slots, as the (i, j), i < j,
    compare-and-swap pairs that sort them in the order given."""
    pairs = []
    p = 1
    while p < m:
        k = p
        while k:
            for j in range(k % p, m - k, 2 * k):
                for i in range(min(k, m - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


def _key_lines(held: list[str], pad: str) -> list[str]:
    """Source yielding the key of the term values read from ``held``:
    compare-and-swap lines sort copies s0.. of them, and, sorted, any
    duplicates sit side by side for dict.fromkeys to drop.  Past
    _SORTED_INLINE terms the network grows long, and one sorted() call
    does the work."""
    if len(held) == 1:
        return [f"{pad}yield ({held[0]},)"]
    if len(held) > _SORTED_INLINE:
        return [f"{pad}yield tuple(sorted({{{', '.join(held)}}}))"]
    s = [f"s{i}" for i in range(len(held))]
    out = [f"{pad}{', '.join(s)} = {', '.join(held)}"]
    out += [f"{pad}if s{i} > s{j}: s{i}, s{j} = s{j}, s{i}" for i, j in _sorting_network(len(s))]
    return out + [f"{pad}if {' < '.join(s)}: yield ({', '.join(s)})",
                  f"{pad}else: yield tuple(dict.fromkeys(({', '.join(s)})))"]


def _enumerator(cfg: ConfigTemplate, colored: bool,
                keys: bool) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """(source, floors, literals) of ``_instances``'s enumeration: the
    source reads its bounds and literals from a table ``lit``, whose first
    entries are the variables' minimums, max(lo, floor), and whose rest
    are the terms' literals, saturated at hi + 1.

    Generated code holds one ``for`` per variable, _LOOPS to a function, each
    function passing the values so far to the next as one tuple.  A loop
    runs from its variable's minimum to hi, narrowed by each ``log2_le``
    with an earlier variable, and skips its earlier ``distinct`` partners'
    values.  It evaluates each term holding its variable, later variables
    at their minimum (a live lower bound: terms are monotone).  A term past
    hi ends the loop; a completed term below lo, or, when ``colored``, off
    the color of the first completed term, skips the value.  The innermost
    body yields (values, term values), or with ``keys`` the key that
    ``_key_lines`` builds from the term values.
    """
    index = {v: i for i, v in enumerate(cfg.variables)}
    n = len(index)
    floors = [1] * n
    nats: list[int] = []
    lows = [[f"lit[{d}]"] for d in range(n)]
    highs = [["hi"] for _ in range(n)]
    unlike: list[list[str]] = [[] for _ in range(n)]
    for c in cfg.constraints:
        match c:
            case MinBound(var=v, low=m):
                floors[index[v]] = max(floors[index[v]], m)
            case Distinct(names=ns):
                for a in ns:
                    unlike[index[a]] += [f"v{index[a]} == v{index[b]}"
                                         for b in ns if index[b] < index[a]]
            case Log2Le(x=x, y=y):  # ceil(log2(x)) <= y; log2_le(x, x) always holds
                if index[x] < index[y]:
                    lows[index[y]].append(f"(v{index[x]} - 1).bit_length()")
                elif index[y] < index[x]:
                    highs[index[x]].append(f"1 << min(v{index[y]}, bits)")
    holds: list[list[int]] = [[] for _ in range(n)]  # the terms holding each variable
    done = []  # each term's last variable; a constant term completes at the first
    for j, t in enumerate(cfg.terms):
        ids = {index[x.name] for x in subexprs(t) if type(x) is Var} or {0}
        for d in ids:
            holds[d].append(j)
        done.append(max(ids))
    first = min(range(len(done)), key=lambda j: (done[j], j))

    def term(j: int, d: int, pad: str, out: list[str]) -> str:
        """Term j's value at variable d, one assignment per inner node."""
        t, reg = cfg.terms[j], {}  # keyed by id(node), so a shared subtree works
        for node in reversed([*subexprs(t)]):
            if id(node) in reg:
                continue
            if type(node) is Var:
                i = index[node.name]
                reg[id(node)] = f"v{i}" if i <= d else f"lit[{i}]"
            elif type(node) is Nat:
                reg[id(node)] = f"lit[{n + len(nats)}]"
                nats.append(node.value)
            else:
                name = f"t{j}" if node is t else f"r{len(reg)}"
                out.append(f"{pad}{name} = "
                           + _OPS[type(node)].format(*(reg[id(c)] for c in _children(node))))
                reg[id(node)] = name
        return reg[id(t)]

    src: list[str] = []
    held = ["0"] * len(done)  # where each term's value is read once completed
    for s in range(0, n, _LOOPS):
        e = min(s + _LOOPS, n)
        body: list[str] = []
        for d in range(s, e):
            pad = "    " * (d - s + 1)
            low = lows[d][0] if len(lows[d]) == 1 else f"max({', '.join(lows[d])})"
            high = highs[d][0] if len(highs[d]) == 1 else f"min({', '.join(highs[d])})"
            body += [f"{pad}for v{d} in range({low}, {high} + 1):",
                     f"{pad}    tick += 1",
                     f"{pad}    if not tick & 1023 and monotonic() > deadline:",
                     f"{pad}        raise _OutOfTime"]
            pad += "    "
            if unlike[d]:
                body.append(f"{pad}if {' or '.join(unlike[d])}: continue")
            for j in holds[d]:
                x = term(j, d, pad, body)
                body.append(f"{pad}if {x} > hi: break")
                if done[j] == d:
                    held[j] = x
                    body.append(f"{pad}if {x} < lo: continue")
                    if colored:
                        body.append(f"{pad}c = colors[{x} - lo]" if j == first
                                    else f"{pad}if colors[{x} - lo] != c: continue")
        values = ("pre + " if s else "") + f"({''.join(f'v{d}, ' for d in range(s, e))})"
        terms = f"({''.join(h + ', ' for h in held)})"
        pad = "    " * (e - s + 1)
        if e < n:
            body.append(f"{pad}tick = yield from g{e}({values}, {terms}, c, tick)")
        else:
            body += _key_lines(held, pad) if keys else [f"{pad}yield {values}, {terms}"]
        held = [f"tvs[{j}]" for j in range(len(held))]
        # the variables of earlier functions that this one reads, from its tuple
        earlier = {int(i) for i in re.findall(r"\bv(\d+)", "\n".join(body) if s else "")}
        src += [f"def g{s}(pre, tvs, c, tick):",
                *(f"    v{i} = pre[{i}]" for i in sorted(earlier) if i < s), *body, "    return tick"]
    return "\n".join(src), tuple(floors), tuple(nats)


class _Shared(dict):
    """Hands back the first copy stored of each key."""

    def __missing__(self, key):
        self[key] = key
        return key


def enumerate_instances(cfg: ConfigTemplate, lo: int, hi: int) -> list[Instance]:
    """All satisfying bindings with every term value in [lo..hi], in
    lexicographic binding order.  Bindings pushing any term past hi are
    skipped (never clamped).

    Each Instance gets its two slots set directly: the frozen dataclass's
    ``__init__`` would cost more than the enumeration itself.  Bindings
    share one (name, value) tuple per pair, which spares the collector
    most of the objects it would otherwise track."""
    names, new, pair = cfg.variables, object.__new__, _Shared().__getitem__
    set_binding, set_terms = Instance.binding.__set__, Instance.term_values.__set__
    out = []
    for values, terms in _instances(cfg, lo, hi, None):
        inst = new(Instance)
        set_binding(inst, tuple(map(pair, zip(names, values))))
        set_terms(inst, terms)
        out.append(inst)
    return out


def check_coloring(c: Coloring, cfg: ConfigTemplate) -> Instance | None:
    """First monochromatic instance in enumeration order, or None."""
    for v, t in _instances(cfg, c.lo, c.hi, c):
        return Instance(tuple(zip(cfg.variables, v)), t)
    return None


# ---------------------------------------------------------------------------
# backtracking search

_AVOID_GROWTH = 16  # find_avoiding_coloring files [lo..lo - 1 + 16^i], i = 1, 2, ...
_SCAN_GROWTH = 2  # min_forced_n enumerates [lo..lo - 1 + 2^i], i = 1, 2, ..., ahead of its N


class _Colorer:
    """The resumable DFS behind ``find_avoiding_coloring`` and ``min_forced_n``.

    Positions are colored in the order of their first appearance in an
    instance as the bound grows, ties ascending (for Schur and van der
    Waerden configurations, ascending order).  An instance's largest value
    is its last position in that order, so its colors are all known once
    its second-to-last position is colored, and it is filed there:
    ``closes[p]`` holds (the positions below p, the largest) for the
    instances whose second-to-last position is p, and ((), -1) for a
    one-position instance at p.

    ``file`` adds the instances whose largest value passed the last bound;
    ``run`` then continues the DFS from the witness of that bound.  Every
    prefix refuted under fewer instances stays refuted under more, so the
    witness found is the first, in this order, that a search from scratch
    finds.  Nodes and the deadline count across every bound.
    """

    def __init__(self, cfg: ConfigTemplate, k: int, lo: int, budget: SearchBudget, start: float):
        self.cfg, self.k, self.lo, self.start = cfg, k, lo, start
        self.max_nodes = budget.max_nodes
        self.deadline = None if budget.max_seconds is None else start + budget.max_seconds
        self.bound = lo - 1  # every instance inside [lo..bound] is filed
        self.order: list[int] = []  # position -> value
        self.pos_of: dict[int, int] = {}
        self.closes: list[list[tuple[tuple[int, ...], int]]] = []
        self.assignment: list[int] = []
        self.forbid: list[int] = []  # bitmask of colors ruled out by nearly-mono instances
        self.stack: list[tuple[list, int, int]] = []  # (trail, color, previous max color)
        self.max_color = -1
        self.d = self.c = 0  # where the DFS resumes
        self.nodes = 0

    def stop(self, reason: str) -> Budget:
        return Budget(self.nodes, time.monotonic() - self.start, reason)

    def keys(self, bound: int) -> list[tuple[int, ...]]:
        """The distinct keys of [lo..bound] whose largest value passed the
        last bound; raises _OutOfTime once the deadline has passed."""
        keys = dict.fromkeys(_instances(self.cfg, self.lo, bound, None, self.deadline, keys=True))
        last, self.bound = self.bound, bound
        return list(keys) if last < self.lo else [key for key in keys if key[-1] > last]

    def file(self, batch: list[tuple[int, ...]]) -> None:
        """File new keys with a search standing at a witness: their new
        positions go to the end of the order, and a key whose positions
        below its largest are all colored c forbids c at its largest at
        once, in the trail of its second-to-last position's depth.  Forbids
        go in by ascending depth, so every trail still undoes last in, first
        out; the first depth whose forbid leaves a position no color is
        where the DFS resumes, with the next color."""
        pos_of, order, closes, assignment = self.pos_of, self.order, self.closes, self.assignment
        fresh = set(chain.from_iterable(batch)).difference(pos_of)
        tops = set(map(itemgetter(-1), batch))
        late = fresh.difference(tops)  # no new key's largest value: they first appear inside one
        first: dict[int, int] = {}  # a late value -> the least largest value of a key holding it
        if late and len(tops) > 1:
            for key in batch:
                if not late.isdisjoint(key):
                    for v in late.intersection(key):
                        if first.get(v, key[-1]) >= key[-1]:
                            first[v] = key[-1]
        for v in sorted(fresh, key=lambda v: (first.get(v, v), v)) if first else sorted(fresh):
            pos_of[v] = len(order)
            order.append(v)
        grow = len(order) - len(closes)
        closes += [[] for _ in range(grow)]
        assignment += [-1] * grow
        self.forbid += [0] * grow

        colored = len(self.stack)
        now = []  # (depth, position, color) of the forbids that apply at once
        get = pos_of.__getitem__
        for key in batch:
            idx = sorted(map(get, key))
            top = idx.pop()
            if not idx:
                closes[top].append(((), -1))
                continue
            second = idx.pop()
            below = tuple(idx)  # a tuple of ints, which the collector stops tracking
            closes[second].append((below, top))
            if second < colored:
                c = assignment[second]
                for q in below:
                    if assignment[q] != c:
                        break
                else:
                    now.append((second, top, c))
        full = (1 << self.k) - 1
        forbid, stack = self.forbid, self.stack
        for s, top, c in sorted(now):
            old = forbid[top]
            stack[s][0].append((top, old))
            forbid[top] = old | 1 << c
            if forbid[top] == full:
                while len(stack) > s:
                    trail, c, self.max_color = stack.pop()
                    for pi, old in reversed(trail):
                        forbid[pi] = old
                self.d, self.c = s, c + 1
                return

    def run(self) -> str:
        """Continue the DFS: "avoidable" at a witness of every filed
        instance, else "forced", "nodes" or "time"."""
        k, max_nodes, deadline = self.k, self.max_nodes, self.deadline
        assignment, forbid, closes, stack = self.assignment, self.forbid, self.closes, self.stack
        npos = len(assignment)
        full = (1 << k) - 1
        nodes, max_color, d, c = self.nodes, self.max_color, self.d, self.c

        def apply(pi: int, c: int, trail: list) -> bool:
            """Color pi with c; forbid c at the last open position of each
            instance pi leaves one short of monochromatic."""
            assignment[pi] = c
            for below, top in closes[pi]:
                for q in below:
                    if assignment[q] != c:
                        break
                else:
                    if top < 0:
                        return False  # a one-position instance is always mono
                    old = forbid[top]
                    trail.append((top, old))
                    forbid[top] = old | 1 << c
                    if forbid[top] == full:
                        return False  # wiped out the last open color
            return True

        def undo(trail: list) -> None:
            for pi, old in reversed(trail):
                forbid[pi] = old

        try:
            while d < npos:
                cap = min(k - 1, max_color + 1)
                descended = False
                while c <= cap:
                    if not forbid[d] >> c & 1:
                        nodes += 1
                        if max_nodes is not None and nodes > max_nodes:
                            return "nodes"
                        if deadline is not None and nodes % 1024 == 0:
                            if time.monotonic() > deadline:
                                return "time"
                        trail: list = []
                        if apply(d, c, trail):
                            stack.append((trail, c, max_color))
                            max_color = max(max_color, c)
                            descended = True
                            break
                        undo(trail)
                    c += 1
                if descended:
                    d += 1
                    c = 0
                else:
                    if not stack:
                        return "forced"
                    d -= 1
                    trail, c, max_color = stack.pop()
                    undo(trail)
                    c += 1
            return "avoidable"
        finally:
            self.nodes, self.max_color, self.d, self.c = nodes, max_color, d, c

    def coloring(self, hi: int, assignment: list[int]) -> Coloring:
        """The witness ``assignment`` on [lo..hi]; positions in no instance
        take color 0."""
        colors = [0] * (hi - self.lo + 1)
        for v, c in zip(self.order, assignment):
            colors[v - self.lo] = c
        return Coloring._unchecked(self.lo, hi, self.k, tuple(colors))


def find_avoiding_coloring(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    hi: int,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Exhaustive backtracking over the positions that occur in instances,
    colors capped at one above the maximum used so far (global
    color-permutation symmetry).  Positions are colored in the order of
    their first appearance as the bound grows, and an instance's largest
    value comes last, so the one propagation is: once all of an instance's
    positions but its largest have color c, c is forbidden at the largest.
    A node fails when that forbids every color at some position, or when it
    colors the only position of an instance.  Positions in no instance take
    color 0 in the witness.

    The bound grows through [lo..lo - 1 + 16^i], i = 1, 2, ..., capped at
    hi: each step files the instances whose largest value is new and
    continues the DFS from the last witness, and a forced step answers for
    [lo..hi].  The
    time budget covers the instance enumeration too (its clock is read
    every 1024 candidates there, before the first node, and every 1024
    nodes); the node budget counts DFS nodes only, across every step."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    s = _Colorer(cfg, k, lo, budget or SearchBudget(), time.monotonic())
    width = _AVOID_GROWTH
    while s.bound < hi:
        try:
            batch = s.keys(min(hi, lo - 1 + width))
        except _OutOfTime:
            return s.stop("time")
        s.file(batch)
        if width == _AVOID_GROWTH and s.deadline is not None and time.monotonic() > s.deadline:
            return s.stop("time")  # the deadline passed before the first node
        width *= _AVOID_GROWTH
        match s.run():
            case "forced":
                return Forced(s.nodes)
            case "nodes" | "time" as reason:
                return s.stop(reason)
    return Avoidable(s.coloring(hi, s.assignment))


def min_forced_n(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    n_max: int,
    budget: SearchBudget | None = None,
) -> Boundary | Budget:
    """Scan N upward from lo for the first forced [lo..N].  One DFS runs
    across the scan: for each N it files the instances whose largest value
    is N and continues from N - 1's witness, so [lo..N]'s answer is
    ``find_avoiding_coloring``'s.  Instances are enumerated ahead, through
    [lo..lo - 1 + 2^i], i = 1, 2, ..., capped at n_max.  One clock and one DFS node count
    run across the whole scan, and both are checked before each N that
    adds instances."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not (1 <= lo <= n_max):
        raise ValueError("need 1 <= lo <= n_max")
    budget = budget or SearchBudget()
    s = _Colorer(cfg, k, lo, budget, time.monotonic())
    max_nodes, max_seconds = budget.max_nodes, budget.max_seconds
    if max_nodes is not None and max_nodes <= 0:
        return s.stop("nodes")
    witness: list[int] = []  # the assignment before the last N that added instances
    width = _SCAN_GROWTH
    while s.bound < n_max:
        try:
            batch = s.keys(min(n_max, lo - 1 + width))
        except _OutOfTime:
            return s.stop("time")
        width *= _SCAN_GROWTH
        batch.sort(key=itemgetter(-1))
        for n, bucket in groupby(batch, itemgetter(-1)):
            if max_seconds is not None and time.monotonic() - s.start >= max_seconds:
                return s.stop("time")
            witness = s.assignment[:]
            s.file(list(bucket))
            match s.run():
                case "forced":
                    if n == lo:
                        return Boundary(None, None, n)
                    return Boundary(n - 1, s.coloring(n - 1, witness), n)
                case "nodes" | "time" as reason:
                    return s.stop(reason)
            if max_nodes is not None and s.nodes >= max_nodes and n < n_max:
                return s.stop("nodes")
    return s.stop("n_max")


# ---------------------------------------------------------------------------
# CNF export

def export_cnf(cfg: ConfigTemplate, k: int, lo: int, hi: int) -> str:
    """DIMACS CNF, satisfiable iff an avoiding k-coloring of [lo..hi] exists.

    Variable v(n,c) = (n-lo)*k + c + 1.  Per position: one at-least-one
    clause and pairwise at-most-one clauses.  Per enumerated instance
    (repeats kept) and color: one clause barring its term values that color,
    joined from a table of the literals -v(n,c), built once per export.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    width = hi - lo + 1
    lines = []
    for base in range(1, width * k + 1, k):  # var(n, 0) of each position n
        lines.append(" ".join(map(str, range(base, base + k))) + " 0")
        lines.extend(f"-{base + c1} -{base + c2} 0" for c1 in range(k) for c2 in range(c1 + 1, k))
    negs = [{v: f"-{(v - lo) * k + c + 1}" for v in range(lo, hi + 1)} for c in range(k)]
    count = 0
    for key in _instances(cfg, lo, hi, None, keys=True):
        count += 1
        for n in negs:
            lines.append(" ".join([n[v] for v in key]) + " 0")
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
    colors = tuple(c.color_of(p) for p in _powers(base, c.hi))
    if not colors:
        raise ValueError(f"no powers of {base} inside [{c.lo}..{c.hi}]")
    return Coloring(1, len(colors), c.k, colors)
