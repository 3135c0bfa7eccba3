"""Finite-products sets and finite-depth exponential-IP witnesses.

A witness sequence x_1, ..., x_d inside a set A must keep every x_n in A
and every tower x_{n+1}^y in A for y ranging over the finite products of
the prefix x_1..x_n.  The verifier walks requirements in that construction
order; the finder backtracks over ascending candidates from A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .expr import CapExceeded, DEFAULT_CAP

__all__ = [
    "Accepted",
    "ExpIPWitness",
    "Rejected",
    "UnknownAtCap",
    "VerifyResult",
    "find_expip",
    "fp_set",
    "verify_expip",
]


@dataclass(frozen=True)
class ExpIPWitness:
    xs: tuple[int, ...]

    def __post_init__(self):
        if not self.xs or any(x < 2 for x in self.xs):
            raise ValueError("witness entries must be naturals >= 2")

    @property
    def depth(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class Accepted:
    pass


@dataclass(frozen=True)
class Rejected:
    """First violated requirement in construction order.

    kind "membership": xs[index] itself is outside A (y is None).
    kind "tower": xs[index]**y is outside A, y from the prefix's products.
    """

    kind: str
    index: int
    y: int | None
    value: int


@dataclass(frozen=True)
class UnknownAtCap:
    """A required tower exceeds the cap, so the verdict is undecidable."""

    index: int
    y: int
    cap: int


VerifyResult = Accepted | Rejected | UnknownAtCap


def fp_set(xs: Iterable[int], cap: int | None = None) -> set[int]:
    """All products over nonempty index subsets of xs (duplicates collapse)."""
    xs = list(xs)
    if not xs:
        raise ValueError("fp_set needs a nonempty sequence")
    if any(x < 1 for x in xs):
        raise ValueError("fp_set entries must be naturals >= 1")
    prods: set[int] = set()
    for x in xs:
        if cap is not None and x > cap:
            raise CapExceeded(f"product {x} exceeds cap {cap}")
        new = {x}
        for p in prods:
            q = p * x
            if cap is not None and q > cap:
                raise CapExceeded(f"product {q} exceeds cap {cap}")
            new.add(q)
        prods |= new
    return prods


def _tower(base: int, y: int, cap: int) -> int | None:
    """base**y, or None when it exceeds cap (base >= 2)."""
    if y > cap.bit_length():
        return None
    v = base**y
    return v if v <= cap else None


def verify_expip(A: Iterable[int], xs: Iterable[int], cap: int = DEFAULT_CAP) -> VerifyResult:
    """Walk the requirements in construction order: x_1 in A; then for each
    n, x_{n+1} in A and x_{n+1}^y in A for every y in FP(x_1..x_n)
    ascending.  Stops at the first failed or cap-undecidable requirement."""
    members = set(A)
    seq = list(xs)
    if not seq or any(x < 2 for x in seq):
        raise ValueError("sequence entries must be naturals >= 2")
    prefix_fp: set[int] = set()
    for i, x in enumerate(seq):
        if x not in members:
            return Rejected("membership", i, None, x)
        for y in sorted(prefix_fp):
            t = _tower(x, y, cap)
            if t is None:
                return UnknownAtCap(i, y, cap)
            if t not in members:
                return Rejected("tower", i, y, t)
        # extend FP with x for the next element's towers
        prefix_fp |= {x} | {p * x for p in prefix_fp}
    return Accepted()


def find_expip(A: Iterable[int], depth: int, cap: int) -> ExpIPWitness | None:
    """First witness in ascending lexicographic order, or None.  Candidates
    whose towers pass the cap are skipped: they could never be verified.
    Towers grow with the base, so once a candidate's tower over the largest
    product passes max(A) or the cap, no later candidate can fit and the
    scan at that depth stops."""
    if depth < 1:
        raise ValueError("need depth >= 1")
    members = set(A)
    top = max(members, default=0)
    candidates = sorted(x for x in members if 2 <= x <= cap)

    # depth-first: entry i is candidates[tried[i]], the last entry still being
    # chosen from tried[-1] + 1 on; fps[i] holds the products of entries < i
    tried = [-1]
    fps: list[set[int]] = [set()]
    while tried:
        if len(tried) > depth:
            return ExpIPWitness(tuple(candidates[i] for i in tried[:-1]))
        fp = fps[-1]
        y_max = max(fp, default=0)
        i = tried[-1] + 1
        while i < len(candidates) and not all(
            _tower(candidates[i], y, cap) in members for y in fp
        ):
            t = _tower(candidates[i], y_max, cap)
            i = len(candidates) if t is None or t > top else i + 1
        if i < len(candidates):
            c = candidates[i]
            tried[-1] = i
            tried.append(-1)
            fps.append(fp | {c} | {p * c for p in fp})
        else:
            tried.pop()
            fps.pop()
    return None
