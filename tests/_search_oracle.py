"""The backtracking colorer that ``prsearch._search`` replaced, kept only as
a test oracle.

It keeps per-instance state: the shared color of the assigned members
(``need``), the count of unassigned members (``left``) and whether two
colors are present (``live``), with a three-kind undo trail.  It colors
positions in ascending order, as the new colorer does, and must give the
same outcome, witness, node count and budget reason.
"""

from __future__ import annotations

import time

from ultraexp.prsearch import (
    Avoidable,
    Budget,
    Coloring,
    ConfigTemplate,
    Forced,
    SearchBudget,
    SearchOutcome,
    _instances,
    _OutOfTime,
)


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

