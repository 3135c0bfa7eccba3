"""The instance enumerator that ``prsearch._instances`` replaced, kept only
as a test oracle.

For every candidate value it re-evaluates every term with the recursive
interpreter ``ev`` and rescans every constraint partner through an
``assigned`` array, so it is slow but follows the specification directly:
lexicographic bindings in declaration order, unassigned variables read at
their lower bound, a branch cut once any term passes hi.
"""

from __future__ import annotations

from ultraexp.expr import Exp1, Nat, Prod, Sum, UExpr, Var
from ultraexp.prsearch import (
    Coloring,
    ConfigTemplate,
    Distinct,
    Instance,
    Log2Le,
    MinBound,
    _term_vars,
)


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


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
