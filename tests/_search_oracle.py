"""The searches that ``prsearch._Colorer`` replaced, kept only as a test
oracle, and a replay of the resumed search that pins its node counts.

``_search`` enumerates [lo..hi] whole and runs the forbid-mask DFS over its
positions in ascending order; ``min_forced_n`` runs it afresh for every N.
Both are kept as they were.

``replay`` states the resumed search as one search from scratch per bound,
in first-appearance order: at each bound it counts only the nodes past the
previous bound's witness, which the resumed search visited already.  It
shares no code with the engine but the enumeration.
"""

from __future__ import annotations

import time

from ultraexp.prsearch import (
    Avoidable,
    Boundary,
    Budget,
    Coloring,
    ConfigTemplate,
    Forced,
    SearchBudget,
    SearchOutcome,
    _AVOID_GROWTH,
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

    try:  # distinct keys, in first-seen order
        insts = dict.fromkeys(_instances(cfg, lo, hi, None, deadline, keys=True))
    except _OutOfTime:
        return Budget(nodes, time.monotonic() - start, "time"), nodes

    values = sorted({v for key in insts for v in key})
    if not insts:
        witness = Coloring(lo, hi, k, (0,) * (hi - lo + 1))
        return Avoidable(witness), nodes
    pos_of = {v: i for i, v in enumerate(values)}
    npos = len(values)
    # Positions are colored in ascending order, so an instance's colors are
    # all known once its second-largest position is: closes[p] holds (the
    # positions below p, the largest) for the instances whose second-largest
    # is p, and ((), -1) for a one-position instance at p.
    closes: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(npos)]
    for key in insts:
        if len(key) == 1:
            closes[pos_of[key[0]]].append(((), -1))
        else:
            *below, second, top = map(pos_of.__getitem__, key)
            closes[second].append((tuple(below), top))
    if deadline is not None and time.monotonic() > deadline:
        return Budget(nodes, time.monotonic() - start, "time"), nodes

    assignment = [-1] * npos
    forbid = [0] * npos      # bitmask of colors ruled out by nearly-mono instances
    full = (1 << k) - 1

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
                undo(trail)
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
            undo(trail)
            c += 1


def min_forced_n(
    cfg: ConfigTemplate,
    k: int,
    lo: int,
    n_max: int,
    budget: SearchBudget | None = None,
) -> Boundary | Budget:
    """Scan N upward from lo, enumerating and searching [lo..N] afresh for
    each N; one clock and one DFS node count run across the whole scan."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not (1 <= lo <= n_max):
        raise ValueError("need 1 <= lo <= n_max")
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
# the resumed search, replayed from scratch at each bound

def schedule(lo: int, hi: int, growth: int) -> list[int]:
    """The bounds lo - 1 + growth^i, i = 1, 2, ..., capped at hi, through
    which the engine reaches hi."""
    out = [min(hi, lo - 1 + growth)]
    while out[-1] < hi:
        out.append(min(hi, lo - 1 + growth ** (len(out) + 1)))
    return out


def first_appearance(keys) -> dict[int, int]:
    """Each value -> the least largest value of a key holding it: the
    bound at which it becomes a position."""
    first: dict[int, int] = {}
    for key in keys:
        for v in key:
            first[v] = min(first.get(v, key[-1]), key[-1])
    return first


def _dfs(closes, k, colors, forbid, max_color):
    """Yield every node of a forbid-mask DFS below ``colors``, as the
    colors from position 0 to the node's, in the order visited; return the
    first witness, or None."""
    d = len(colors)
    if d == len(closes):
        return tuple(colors)
    for c in range(min(k - 1, max_color + 1) + 1):
        if forbid[d] >> c & 1:
            continue
        node = colors + [c]
        yield node
        masks = forbid[:]
        for below, top in closes[d]:
            if all(colors[q] == c for q in below):
                if top < 0:
                    break
                masks[top] |= 1 << c
                if masks[top] == (1 << k) - 1:
                    break
        else:
            witness = yield from _dfs(closes, k, node, masks, max(max_color, c))
            if witness is not None:
                return witness
    return None


def _past(node, witness) -> bool:
    """Whether the DFS visits ``node`` after standing at ``witness``."""
    m = min(len(node), len(witness))
    return tuple(node[:m]) > witness[:m] or (tuple(node[:m]) == witness[:m] and len(node) > m)


def replay(cfg: ConfigTemplate, k: int, lo: int, bounds: list[int], max_nodes: int | None = None):
    """Yield (bound, outcome, nodes so far, witness) for each bound in turn,
    the outcome "avoidable" (with the witness on [lo..bound]), "forced" or
    "nodes" (more than ``max_nodes`` nodes); stop after the first that is
    not avoidable."""
    keys = list(dict.fromkeys(_instances(cfg, lo, bounds[-1], None, keys=True)))
    first = first_appearance(keys)
    order = sorted(first, key=lambda v: (first[v], v))
    nodes, last = 0, ()
    for b in bounds:
        npos = sum(1 for v in order if first[v] <= b)
        pos_of = {v: i for i, v in enumerate(order[:npos])}
        closes = [[] for _ in range(npos)]
        for key in keys:
            if key[-1] <= b:
                *below, top = sorted(pos_of[v] for v in key)
                if below:
                    closes[below.pop()].append((below, top))
                else:
                    closes[top].append(([], -1))
        search, past = _dfs(closes, k, [], [0] * npos, -1), False
        while True:
            try:
                node = next(search)
            except StopIteration as stop:
                witness = stop.value
                break
            past = past or _past(node, last)
            if past:
                nodes += 1
                if max_nodes is not None and nodes > max_nodes:
                    yield b, "nodes", nodes, None
                    return
        if witness is None:
            yield b, "forced", nodes, None
            return
        colors = [0] * (b - lo + 1)
        for v, c in zip(order, witness):
            colors[v - lo] = c
        yield b, "avoidable", nodes, Coloring(lo, b, k, tuple(colors))
        last = witness


def replay_avoid(cfg: ConfigTemplate, k: int, lo: int, hi: int, max_nodes: int | None = None):
    """``find_avoiding_coloring``'s answer, its Budget as ("budget", nodes,
    reason)."""
    *_, (_, outcome, nodes, witness) = replay(cfg, k, lo, schedule(lo, hi, _AVOID_GROWTH), max_nodes)
    if outcome == "nodes":
        return "budget", nodes, "nodes"
    return Avoidable(witness) if outcome == "avoidable" else Forced(nodes)


def replay_min(cfg: ConfigTemplate, k: int, lo: int, n_max: int, max_nodes: int | None = None):
    """``min_forced_n``'s answer, a Budget as ("budget", nodes, reason):
    the bounds are every N, and the node count is checked before each."""
    if max_nodes is not None and max_nodes <= 0:
        return "budget", 0, "nodes"
    last, nodes = None, 0
    for n, outcome, nodes, witness in replay(cfg, k, lo, list(range(lo, n_max + 1)), max_nodes):
        if outcome == "forced":
            return Boundary(*(last or (None, None)), n)
        if outcome == "nodes":
            return "budget", nodes, "nodes"
        last = (n, witness)
        if max_nodes is not None and nodes >= max_nodes and n < n_max:
            return "budget", nodes, "nodes"
    return "budget", nodes, "n_max"
