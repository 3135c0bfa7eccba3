"""The instance keys and DIMACS export that ``prsearch`` replaced, kept only
as a test oracle.

Each key is built in generic Python from the (values, term_values) pairs of
the plain enumeration, and each clause line by formatting every literal
afresh.  The generated key mode of ``prsearch._instances`` and the literal
table of ``prsearch.export_cnf`` must give the same keys, in the same order
with repeats kept, and the same bytes.
"""

from __future__ import annotations

from ultraexp.prsearch import ConfigTemplate, _instances, format_config


def _keys(cfg: ConfigTemplate, lo: int, hi: int, deadline: float | None = None):
    """Each enumerated instance's distinct term values, ascending, in
    enumeration order with repeats kept: what the search and the CNF export
    constrain."""
    for _, t in _instances(cfg, lo, hi, None, deadline):
        yield tuple(sorted(set(t)))


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
    for key in _keys(cfg, lo, hi):
        count += 1
        bases = [(v - lo) * k + 1 for v in key]
        lines.extend(" ".join(f"-{b + c}" for b in bases) + " 0" for c in range(k))
    header = (
        f"c configuration: {format_config(cfg)}\n"
        f"c range [{lo}..{hi}], {k} colors, {count} instances\n"
        "c var(n,c) = (n - lo)*k + c + 1  maps position n, color c\n"
        f"p cnf {width * k} {width * (1 + k * (k - 1) // 2) + count * k}\n"
    )
    return header + "\n".join(lines) + "\n"
