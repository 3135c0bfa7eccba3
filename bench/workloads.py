"""Seeded job mixes for the three workloads, and the independent references
every job is checked against.

Nothing here calls ultraexp: expected answers come from the literature,
from constructions whose answer is known by design (chosen primes, closed
forms), or from brute force written here.  A workload is a sequence of
cycles; every cycle holds the same job classes in the same counts, drawn
afresh from the seed, so a run's percentiles and rates do not depend on how
many cycles fit in it.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

CAP = 1 << 64


@dataclass
class Job:
    """One CLI invocation.  ``check(rc, payload)`` returns None when the
    output agrees with the reference, else a short reason.  ``budget`` is the
    job's own --budget-secs.  ``verdict`` is False only where exit 2 is the
    expected outcome."""

    kind: str
    argv: list[str]
    check: Callable[[int, dict], str | None]
    budget: float | None = None
    verdict: bool = True


@dataclass
class Workdir:
    """Input files of one run, under the checkout."""

    root: str
    n: int = field(default=0)

    def file(self, text: str, suffix: str) -> str:
        self.n += 1
        path = os.path.join(self.root, f"in{self.n}{suffix}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path


def _expect(rc_want: int, **fields):
    def check(rc, payload):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        for k, v in fields.items():
            if payload.get(k) != v:
                return f"{k}={payload.get(k)!r}, expected {v!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# exact arithmetic written independently of ultraexp.numth

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int) -> int:
    # Pollard-Brent with batched gcds; n odd composite
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(n)


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _brent(m)
            todo += [d, m // d]
    return out


SMALL_PRIMES = [p for p in range(2, 1000) if is_prime(p)]


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


# ---------------------------------------------------------------------------
# expression trees: tuples rendered to the CLI grammar and evaluated here
#   ("n", v) ("v", name, attrs) (op, a, b) for op in + * ^ E2
#   ("lift", kind, base, a)

_LIFTS = (("log", 2), ("log", 3), ("pow", 2), ("Omega", None), ("F", None), ("G", None), ("H", None))


def render(t) -> str:
    op = t[0]
    if op == "n":
        return str(t[1])
    if op == "v":
        return f"{t[1]}:{{{t[2]}}}" if t[2] else t[1]
    if op == "E2":
        return f"E2({render(t[1])}, {render(t[2])})"
    if op == "lift":
        _, kind, base, a = t
        return f"{kind}({base}, {render(a)})" if base else f"{kind}({render(a)})"
    return f"({render(t[1])} {op} {render(t[2])})"


class Undefined(Exception):
    """No value: a domain error, a 0 on the way, or past the 2^64 cap."""


def _power(b: int, e: int) -> int:
    if b == 1:
        return 1
    if e > 64:
        raise Undefined
    return b**e


def value(t) -> int:
    """Exact principal value with every intermediate in [1..2^64]."""
    op = t[0]
    if op == "n":
        v = t[1]
    elif op == "v":
        raise Undefined
    elif op == "+":
        v = value(t[1]) + value(t[2])
    elif op == "*":
        v = value(t[1]) * value(t[2])
    elif op == "^":
        v = _power(value(t[1]), value(t[2]))
    elif op == "E2":
        v = _power(value(t[2]), value(t[1]))
    else:
        _, kind, base, a = t
        x = value(a)
        if kind == "pow":
            v = _power(base, x)
        elif kind == "log":
            v = 0
            while x % base == 0:
                x, v = x // base, v + 1
            if x != 1:
                raise Undefined
        else:
            if x >= CAP or (x == 1 and kind != "Omega"):
                raise Undefined
            fs = factor(x)
            p = max(fs, default=1)
            v = {"Omega": sum(fs.values()), "F": p, "G": fs.get(p, 0), "H": p ** fs.get(p, 0)}[kind]
    if not 1 <= v <= CAP:
        raise Undefined
    return v


def closed_tree(rng: random.Random, atoms: int, depth: int):
    """Variable-free tree of the soundness-fuzz size (at most 7 leaves, depth 5)."""
    if depth == 0 or atoms == 1 or rng.random() < 0.3:
        return ("n", rng.randint(1, 9)), 1
    kind = rng.randrange(5)
    if kind == 4:
        sub, used = closed_tree(rng, atoms, depth - 1)
        return ("lift", *rng.choice(_LIFTS), sub), used
    a, ua = closed_tree(rng, atoms - 1, depth - 1)
    b, ub = closed_tree(rng, atoms - ua, depth - 1)
    return (("+", "*", "^", "E2")[kind], a, b), ua + ub


def evaluable_tree(rng: random.Random):
    while True:
        t, _ = closed_tree(rng, 7, 5)
        if t[0] == "n":
            continue
        try:
            return t, value(t)
        except Undefined:
            pass


def open_tree(rng: random.Random, names: dict, depth: int):
    """Tree of the refutation-fuzz size (depth 4) over p, q (nonprincipal)
    and r."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return ("n", rng.randint(1, 6))
        v = rng.choice("pqr")
        return ("v", names[v], "nonprincipal" if v != "r" else "")
    kind = rng.randrange(5)
    if kind == 4:
        t = ("lift", *rng.choice(_LIFTS), open_tree(rng, names, depth - 1))
    else:
        t = (("+", "*", "^", "E2")[kind], open_tree(rng, names, depth - 1), open_tree(rng, names, depth - 1))
    return t


def _closed_ok(t) -> bool:
    if not _has_var(t):
        try:
            value(t)
        except Undefined:
            return False
        return True
    return all(_closed_ok(c) for c in t[1:] if isinstance(c, tuple))


def _has_var(t) -> bool:
    return t[0] == "v" or any(_has_var(c) for c in t[1:] if isinstance(c, tuple))


def var_names(rng: random.Random, n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool = [a + b for a in letters for b in letters]
    return rng.sample(pool, n)


# ---------------------------------------------------------------------------
# symbolic

# equations and verdicts from the refutation acceptance suite; variable
# names are renamed per cycle
ORACLE_CASES = (
    ("E1(p, q:{nonprincipal}) == q", "O-NOID"),
    ("p:{nonprincipal} ^ 2 == p ^ 3", "O-INJ-EXP"),
    ("p:{nonprincipal} ^ 2 * p ^ 3 == p ^ 5", "O-NEQR"),
    ("u + 2 * p:{nonprincipal} == v + 3 * p", "O-MAL"),
    ("q:{nonprincipal} + p:{nonprincipal} == s:{nonprincipal} * r:{nonprincipal,all_div}", "O-HS"),
)

OPEN_EQUATIONS = (
    "E1(p:{nonprincipal}, q:{nonprincipal}) == E1(q, p)",
    "E2(p:{nonprincipal}, q:{nonprincipal}) == E2(q, p)",
    "E1(p:{nonprincipal}, q:{nonprincipal}) == E2(q, p)",
    "E1(q:{nonprincipal}, p:{nonprincipal}) * p == p",
    "E1(q:{nonprincipal}, p:{nonprincipal}) * q == q",
    "E1(r:{nonprincipal}, p:{nonprincipal}) * E1(r, q:{nonprincipal}) == E1(r, p + q)",
    "E2(q:{nonprincipal}, p:{nonprincipal}) * p == p",
    "E2(q:{nonprincipal}, p:{nonprincipal}) * q == q",
    "E2(p:{nonprincipal}, r:{nonprincipal}) * E2(q:{nonprincipal}, r) == E2(p + q, r)",
)


def _rename(eq: str, names: dict) -> str:
    return re.sub(r"\b([pqrsuv])\b", lambda m: names[m.group(1)], eq)


def _chain(rng: random.Random, n: int):
    """n blocks 2^a_i * 4^b_i and the closed form 2^(a_0 + 2*b_0 + ...)."""
    names = var_names(rng, 2 * n)
    a, b = names[:n], names[n:]
    text = " * ".join(f"2 ^ {a[i]} * 4 ^ {b[i]}" for i in range(n))
    closed = "2 ^ (" + " + ".join(f"{a[i]} + 2 * {b[i]}" for i in range(n)) + ")"
    return text, closed


def _chain_jobs(rng: random.Random, n: int, trace: bool) -> list[Job]:
    text, closed = _chain(rng, n)
    # firings by construction: one BASEROOT per 4^b_i, and 2n - 1 SAMEBASE
    # merges of the 2n powers of two
    want_rules = {"BASEROOT": n, "SAMEBASE": 2 * n - 1}

    def check_norm(rc, p):
        if rc != 0:
            return f"exit {rc}"
        if p.get("normal_form") != closed:
            return "normal form differs from the closed form"
        rules = p.get("rules", [])
        counts = {r: rules.count(r) for r in set(rules)}
        if counts != want_rules:
            return f"firings {counts}"
        if trace:
            tr = p.get("trace", [])
            if len(tr) != len(rules) or tr[-1]["after"] != closed:
                return "trace does not end at the closed form"
            if any(x["after"] != y["before"] for x, y in zip(tr, tr[1:])):
                return "trace does not chain"
        return None

    argv = ["normalize", text, "--json"] + (["--trace-json"] if trace else [])
    return [
        Job(f"chain{n}.normalize", argv, check_norm),
        Job(f"chain{n}.prove", ["prove", f"{text} == {closed}", "--json"], _expect(0, verdict="equal")),
    ]


def _numfn_jobs(rng: random.Random, semiprime: bool) -> list[Job]:
    jobs = []
    for fn in ("F", "G", "H", "Omega"):
        if semiprime:
            fs = {}
            while len(fs) < 2:
                fs = {random_prime(rng, 32): 1, random_prime(rng, 32): 1}
        else:
            fs, n = {}, 1
            for p in rng.sample(SMALL_PRIMES, rng.randint(1, 5)):
                e = rng.randint(1, 4)
                if n * p**e < CAP:
                    fs[p], n = e, n * p**e
        n = math.prod(p**e for p, e in fs.items())
        top = max(fs)
        want = {"F": top, "G": fs[top], "H": top ** fs[top], "Omega": sum(fs.values())}[fn]
        kind = "numfn.semiprime" if semiprime else "numfn.small"
        jobs.append(Job(kind, ["numfn", fn, str(n), "--json"], _expect(0, value=want)))
    return jobs


def _expip_jobs(rng: random.Random, work: Workdir) -> list[Job]:
    base = rng.choice((2, 3))
    # powers of base up to the cap, plus noise below 2^20 whose cubes stay
    # under the cap
    members = {base**i for i in range(1, 64) if base**i <= CAP}
    members |= {rng.randrange(5, 10**5) * 7 + 1 for _ in range(20)}
    path = work.file(json.dumps(sorted(members)), ".json")

    def check_find(rc, p):
        if rc != 0:
            return f"exit {rc}"
        xs = p.get("witness") or []
        if len(xs) != 3 or p.get("depth") != 3:
            return "witness of the wrong depth"
        return None if expip_violation(members, xs) is None else "witness violates a requirement"

    good = [base, base, base]
    noise = sorted(x for x in members if x % base and x**base not in members)
    outsider = next(x for x in range(base**2 + 1, CAP) if x not in members)
    jobs = [
        Job("expip.find", ["expip-find", "--set", path, "--depth", "3", "--json"], check_find),
        Job("expip.verify", ["expip-verify", "--set", path, "--xs", ",".join(map(str, good)), "--json"],
            _expect(0, result="accept")),
    ]
    for bad in ([base, base**2, outsider], [base, rng.choice(noise)]):
        kind, index, y, v = expip_violation(members, bad)
        jobs.append(Job("expip.verify", ["expip-verify", "--set", path, "--xs", ",".join(map(str, bad)), "--json"],
                        _expect(1, result="reject", kind=kind, index=index, y=y, value=v)))
    return jobs


def expip_violation(members: set, xs: list):
    """First failed requirement in construction order, or None."""
    fp: set[int] = set()
    for i, x in enumerate(xs):
        if x not in members:
            return ("membership", i, None, x)
        for y in sorted(fp):
            if y > 64 or x**y > CAP:
                return ("cap", i, y, None)
            if x**y not in members:
                return ("tower", i, y, x**y)
        fp |= {x} | {q * x for q in fp}
    return None


def _logpre_job(rng: random.Random, work: Workdir) -> Job:
    base = rng.choice((2, 3, 5))
    exps = set(rng.sample(range(1, 40), 8))
    members = {base**e for e in exps} | {rng.randrange(2, 10**9) for _ in range(30)}
    want = sorted(n for n in range(1, 130) if base**n in members)
    path = work.file(json.dumps(sorted(members)), ".json")
    return Job("logpre", ["logpre", "--base", str(base), "--set", path, "--json"],
               _expect(0, base=base, preimage=want))


def symbolic_cycle(rng: random.Random, index: int, work: Workdir) -> list[Job]:
    """131 jobs: 101 small ones around p50, where argparse and parsing
    dominate; 4 balanced 64-bit semiprimes; and chains of 25/50/100/200
    blocks, whose 50-block normalizations hold p90.  The 200-block prove
    hits the RecursionError in dataclass __eq__ and counts as failed."""
    jobs: list[Job] = []
    for _ in range(16):
        t, v = evaluable_tree(rng)
        jobs.append(Job("eval", ["eval", render(t), "--json"], _expect(0, value=v)))
        t, v = evaluable_tree(rng)
        jobs.append(Job("normalize.small", ["normalize", render(t), "--json"], _expect(0, normal_form=str(v))))
        t, v = evaluable_tree(rng)
        jobs.append(Job("prove.closed", ["prove", f"{render(t)} == {v}", "--json"], _expect(0, verdict="equal")))
    names = dict(zip("pqrsuv", var_names(rng, 6)))
    for _ in range(16):
        while not _closed_ok(t := open_tree(rng, names, 4)):
            pass
        jobs.append(Job("prove.open", ["prove", f"{render(t)} == {render(t)}", "--json"], _expect(0, verdict="equal")))
    for eq, oracle in ORACLE_CASES:
        jobs.append(Job("prove.oracle", ["prove", _rename(eq, names), "--json"], _expect(1, verdict="not_equal", oracle=oracle)))
    for eq in OPEN_EQUATIONS:
        jobs.append(Job("prove.unknown", ["prove", _rename(eq, names), "--json"], _expect(2, verdict="unknown"), verdict=False))
    for _ in range(3):
        jobs += _numfn_jobs(rng, False)
        jobs.append(_logpre_job(rng, work))
    jobs += _expip_jobs(rng, work)
    jobs += _numfn_jobs(rng, True)
    for n, count in ((25, 4), (50, 6), (100, 1), (200, 1)):
        for i in range(count):
            jobs += _chain_jobs(rng, n, trace=(i + index) % 2 == 1)
    return jobs


# ---------------------------------------------------------------------------
# partition-regularity references: configurations, brute-force instances

@dataclass(frozen=True)
class Config:
    """A configuration as the CLI reads it, with the instances of [lo..hi]
    enumerated here in lexicographic binding order."""

    text: str
    instances: Callable[[int, int], object]  # (lo, hi) -> iterable of (binding, term_values)


def _schur(lo, hi, distinct=False):
    for x in range(lo, hi + 1):
        for y in range(lo, hi - x + 1):
            if not (distinct and x == y):
                yield (x, y), (x, y, x + y)


def _vdw(length):
    def inst(lo, hi):
        for x in range(lo, hi + 1):
            for y in range(lo, (hi - x) // (length - 1) + 1):
                yield (x, y), tuple(x + i * y for i in range(length))

    return inst


def _mult(lo, hi):
    for x in range(max(lo, 2), hi + 1):
        for y in range(max(lo, 2), hi // x + 1):
            yield (x, y), (x, y, x * y)


def _exp(lo, hi):
    for x in range(max(lo, 2), hi + 1):
        y = max(lo, 2)
        while x**y <= hi:
            yield (x, y), (x, y, x**y)
            y += 1
        if x ** max(lo, 2) > hi:
            break


def _pair(lo, hi):
    for x in range(max(lo, 2), hi + 1):
        y = max(lo, 2, (x - 1).bit_length())
        if x**y > hi:
            break
        while x**y <= hi:
            yield (x, y), (y, x**y)
            y += 1


SCHUR = Config("config {x, y, x + y};", _schur)
WEAK_SCHUR = Config("config {x, y, x + y} where distinct(x, y);", lambda lo, hi: _schur(lo, hi, True))
VDW3 = Config("config {x, x + y, x + 2 * y};", _vdw(3))
VDW4 = Config("config {x, x + y, x + 2 * y, x + 3 * y};", _vdw(4))
MULT = Config("config {x, y, x * y};", _mult)
EXP = Config("config {x, y, x ^ y} where x > 1, y > 1;", _exp)
PAIR = Config("config {y, x ^ y} where x > 1, y > 1, log2_le(x, y);", _pair)
# {x, y, x^y, a, b, a+b}: an instance is an EXP triple and a Schur triple
COMB = Config("config {x, y, x ^ y, a, b, a + b} where x > 1, y > 1;", None)


def monochromatic(cfg: Config, lo: int, colors: list[int], hi: int | None = None):
    """First monochromatic instance of [lo..hi] in lexicographic binding
    order, as (binding, term_values), or None."""
    hi = lo + len(colors) - 1 if hi is None else hi
    if cfg is COMB:
        exp_colors = {colors[t[0] - lo] for _, t in _exp(lo, hi) if len({colors[v - lo] for v in t}) == 1}
        sum_colors = {colors[t[0] - lo] for _, t in _schur(lo, hi) if len({colors[v - lo] for v in t}) == 1}
        return ("mono", sorted(exp_colors & sum_colors)) if exp_colors & sum_colors else None
    for binding, terms in cfg.instances(lo, hi):
        if len({colors[v - lo] for v in terms}) == 1:
            return binding, terms
    return None


def _coloring_ok(cfg: Config, p: dict, lo: int, hi: int, k: int) -> str | None:
    c = p.get("coloring") or p.get("witness")
    if not c or (c["lo"], c["hi"], c["k"]) != (lo, hi, k) or len(c["colors"]) != hi - lo + 1:
        return "witness has the wrong shape"
    if any(not 0 <= x < k for x in c["colors"]):
        return "witness uses a color outside [0..k-1]"
    if monochromatic(cfg, lo, c["colors"]) is not None:
        return "witness has a monochromatic instance"
    return None


def _avoid_job(kind, cfg_path, cfg, k, lo, hi, avoidable, budget=None) -> Job:
    argv = ["pr-avoid", "--config", cfg_path, "-k", str(k), "--lo", str(lo), "--hi", str(hi), "--json"]
    if budget is not None:
        argv += ["--budget-secs", str(budget)]

    def check(rc, p):
        if budget is not None and rc == 2 and p.get("outcome") == "budget":
            return None
        if avoidable:
            return f"exit {rc}, expected avoidable" if rc != 0 else _coloring_ok(cfg, p, lo, hi, k)
        return None if rc == 1 and p.get("outcome") == "forced" else f"exit {rc}, expected forced"

    return Job(kind, argv, check, budget, verdict=budget is None)


def _min_job(kind, cfg_path, cfg, k, lo, n_max, last, first) -> Job:
    argv = ["pr-min", "--config", cfg_path, "-k", str(k), "--lo", str(lo), "--max", str(n_max), "--json"]
    if first is None or n_max < first:
        return Job(kind, argv, _expect(2, outcome="budget", reason="n_max"), verdict=False)

    def check(rc, p):
        if rc != 0 or (p.get("last_avoidable"), p.get("first_forced")) != (last, first):
            return f"exit {rc}, boundary {p.get('last_avoidable')}..{p.get('first_forced')}"
        return _coloring_ok(cfg, p, lo, last, k)

    return Job(kind, argv, check)


# (name, config, k, lo, last avoidable, first forced), from the literature:
# Schur S(2..4) = 4, 13, 44; weak Schur WS(2), WS(3) = 8, 23; van der Waerden
# W(3;2) = 9, W(3;3) = 27, W(4;2) = 35; multiplicative Schur on [2..] for
# two colors: 31.
BOUNDARIES = (
    ("schur2", SCHUR, 2, 1, 4, 5),
    ("schur3", SCHUR, 3, 1, 13, 14),
    ("wschur2", WEAK_SCHUR, 2, 1, 8, 9),
    ("wschur3", WEAK_SCHUR, 3, 1, 23, 24),
    ("vdw3k2", VDW3, 2, 1, 8, 9),
    ("vdw3k3", VDW3, 3, 1, 26, 27),
    ("vdw4k2", VDW4, 2, 1, 34, 35),
    ("mult2", MULT, 2, 2, 31, 32),
)


# jobs per cycle: (avoidable, forced, min, min_open) per boundary.  The
# k=2 questions sit below p50, the Schur k=3 forced ones hold it, and the vdW
# 3-AP k=3 forced and min jobs (27 and up) hold p90.
PR_SEARCH_MIX = {
    "schur2": (4, 4, 2, 2),
    "schur3": (2, 24, 2, 2),
    "wschur2": (4, 4, 2, 2),
    "wschur3": (1, 1, 1, 1),
    "vdw3k2": (3, 3, 1, 2),
    "vdw3k3": (2, 11, 9, 2),
    "vdw4k2": (2, 2, 2, 2),
    "mult2": (3, 3, 1, 1),
}


def pr_search_cycle(rng: random.Random, index: int, work: Workdir) -> list[Job]:
    """110 boundary questions on small ranges, where the DFS does the work.
    Schur k=4 appears only at hi <= 43: [1..44] alone takes 8-10 s, and its
    swings moved jobs_per_s by 20% between runs."""
    jobs: list[Job] = []
    paths: dict[str, str] = {}
    for name, cfg, k, lo, last, first in BOUNDARIES:
        path = paths.setdefault(cfg.text, work.file(cfg.text, ".cfg"))
        avoidable, forced, scan, scan_open = PR_SEARCH_MIX[name]
        for _ in range(avoidable):
            jobs.append(_avoid_job(f"{name}.avoidable", path, cfg, k, lo, rng.randint(max(lo, last - 2), last), True))
        for _ in range(forced):
            jobs.append(_avoid_job(f"{name}.forced", path, cfg, k, lo, rng.randint(first, first + 2), False))
        for _ in range(scan):
            jobs.append(_min_job(f"{name}.min", path, cfg, k, lo, rng.randint(first, first + 3), last, first))
        for _ in range(scan_open):
            jobs.append(_min_job(f"{name}.min_open", path, cfg, k, lo, rng.randint(max(lo, last - 3), last), last, None))
    for _ in range(3):
        jobs.append(_avoid_job("schur4.avoidable", paths[SCHUR.text], SCHUR, 4, 1, rng.randint(38, 43), True))
    return jobs


# ---------------------------------------------------------------------------
# pr-bulk

# the explicit two-class coloring of [2..65535] that avoids {x, y, x^y}
TWO_CLASS = [0 if n in (2, 3) or n >= 256 else 1 for n in range(2, 65536)]


def _schur_count(n: int) -> int:
    return n * (n - 1) // 2  # pairs x, y >= 1 with x + y <= n


def _vdw3_count(n: int) -> int:
    m = (n - 1) // 2  # pairs x, y >= 1 with x + 2y <= n
    return m * n - m * (m + 1)


def _cnf_job(path: str, count, k: int, hi: int) -> Job:
    m = count(hi)
    nvars, nclauses = hi * k, hi * (1 + k * (k - 1) // 2) + m * k

    def check(rc, p):
        if rc != 0:
            return f"exit {rc}"
        d = p.get("dimacs", "")
        if (p.get("vars"), p.get("clauses")) != (nvars, nclauses):
            return f"counts {p.get('vars')}/{p.get('clauses')}, expected {nvars}/{nclauses}"
        if f"\nc range [1..{hi}], {k} colors, {m} instances\n" not in d or f"\np cnf {nvars} {nclauses}\n" not in d:
            return "DIMACS header disagrees with the closed form"
        if d.count("\n") != nclauses + 4:
            return "clause lines disagree with the header"
        return None

    return Job("cnf", ["pr-cnf", "--config", path, "-k", str(k), "--hi", str(hi), "--json"], check)


def _check_job(kind: str, cfg_path: str, cfg: Config, col_path: str, lo: int, colors: list[int]) -> Job:
    mono = monochromatic(cfg, lo, colors)

    def check(rc, p):
        if mono is None:
            return None if rc == 0 and p.get("ok") is True else f"exit {rc}, expected ok"
        binding, terms = mono
        want = {"ok": False, "binding": dict(zip("xy", binding)), "term_values": list(terms),
                "color": colors[terms[0] - lo]}
        return None if rc == 1 and p == want else f"exit {rc}, expected first instance {want}"

    return Job(kind, ["pr-check", "--config", cfg_path, "--coloring", col_path, "--json"], check)


def _coloring_file(work: Workdir, lo: int, k: int, colors: list[int]) -> str:
    return work.file(json.dumps({"lo": lo, "hi": lo + len(colors) - 1, "k": k, "colors": colors}), ".json")


def pr_bulk_cycle(rng: random.Random, index: int, work: Workdir) -> list[Job]:
    """100 jobs on wide ranges, where enumeration and output building
    dominate.  The log transforms hold p50 and the EXP scans p90; the two
    budget probes finish after their budget today and count as failed."""
    paths = {c.text: work.file(c.text, ".cfg") for c in (SCHUR, VDW3, EXP, PAIR, COMB)}
    jobs: list[Job] = []
    for _ in range(2):
        jobs.append(_cnf_job(paths[SCHUR.text], _schur_count, 2, rng.randint(235, 245)))
        jobs.append(_cnf_job(paths[SCHUR.text], _schur_count, 3, rng.randint(205, 215)))
        jobs.append(_cnf_job(paths[VDW3.text], _vdw3_count, 2, rng.randint(290, 300)))
    for _ in range(6):
        # every [2..N] is avoidable (TWO_CLASS), so the scan ends at n_max
        n_max = rng.randint(215, 225)
        jobs.append(Job("min.exp", ["pr-min", "--config", paths[EXP.text], "-k", "2", "--lo", "2", "--max", str(n_max), "--json"],
                        _expect(2, outcome="budget", reason="n_max"), verdict=False))
    for _ in range(2):
        jobs.append(_avoid_job("avoid.exp", paths[EXP.text], EXP, 2, 2, 65535, True))
        jobs.append(_avoid_job("avoid.pair", paths[PAIR.text], PAIR, 4, 2, 65536, True))
    two_class = _coloring_file(work, 2, 2, TWO_CLASS)
    for _ in range(3):
        jobs.append(_check_job("check.two_class", paths[EXP.text], EXP, two_class, 2, TWO_CLASS))
        jobs.append(Job("check.two_class", ["pr-check", "--config", paths[COMB.text], "--coloring", two_class, "--json"],
                        _expect(0, ok=True)))
    for name, cfg, lo, hi, k, reps in (("schur", SCHUR, 1, 2000, 3, 20), ("vdw3", VDW3, 1, 2000, 2, 20),
                                       ("exp", EXP, 2, 65535, 2, 16)):
        for _ in range(reps):
            colors = [rng.randrange(k) for _ in range(hi - lo + 1)]
            jobs.append(_check_job(f"check.random.{name}", paths[cfg.text], cfg,
                                   _coloring_file(work, lo, k, colors), lo, colors))
    for _ in range(20):
        k, base = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
        colors = [rng.randrange(k) for _ in range(1 << 14)]
        hi2 = max(n for n in range(1, 15) if base**n <= 1 << 14)
        want = {"lo": 1, "hi": hi2, "k": k, "colors": [colors[base**n - 1] for n in range(1, hi2 + 1)]}
        jobs.append(Job("log_transform", ["log-transform", "--coloring", _coloring_file(work, 1, k, colors),
                                          "--base", str(base), "--json"], _expect(0, coloring=want)))
    # budget probes: a correct verdict or exit 2 within the budget plus slack
    jobs.append(_avoid_job("probe.schur600", paths[SCHUR.text], SCHUR, 2, 1, 600, False, budget=0.5))
    jobs.append(_avoid_job("probe.comb120", paths[COMB.text], COMB, 2, 2, 120, True, budget=0.5))
    return jobs
