"""The exp-IP finder that ``expip.find_expip`` replaced, kept only as a test
oracle.

It tests every later candidate at a depth against the current products,
even once a tower already passes the largest member, so it is quadratic in
the set's size when no witness exists.
"""

from __future__ import annotations

from typing import Iterable

from ultraexp.expip import ExpIPWitness, _tower


def find_expip(A: Iterable[int], depth: int, cap: int) -> ExpIPWitness | None:
    """First witness in ascending lexicographic order, or None.  Candidates
    whose towers pass the cap are skipped: they could never be verified."""
    if depth < 1:
        raise ValueError("need depth >= 1")
    members = set(A)
    candidates = sorted(x for x in members if 2 <= x <= cap)

    # depth-first: entry i is candidates[tried[i]], the last entry still being
    # chosen from tried[-1] + 1 on; fps[i] holds the products of entries < i
    tried = [-1]
    fps: list[set[int]] = [set()]
    while tried:
        if len(tried) > depth:
            return ExpIPWitness(tuple(candidates[i] for i in tried[:-1]))
        fp = fps[-1]
        i = tried[-1] + 1
        while i < len(candidates) and not all(
            _tower(candidates[i], y, cap) in members for y in fp
        ):
            i += 1
        if i < len(candidates):
            c = candidates[i]
            tried[-1] = i
            tried.append(-1)
            fps.append(fp | {c} | {p * c for p in fp})
        else:
            tried.pop()
            fps.pop()
    return None
