"""Multiplicative number theory: exact factorization below 2**64 and the
largest-prime-divisor maps used by the expression evaluator.

All functions are pure and exact (Python bigints, no floats).
"""

from __future__ import annotations

import math

U64 = 1 << 64

# Witness set proven complete for every n < 3.3e24, so in particular < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial division runs over the primes below _TRIAL_BOUND.  1031**2 > 2**20,
# so it completes every number below 2**20, and rho only ever sees odd
# composites with no factor <= 1024.
_TRIAL_BOUND = 1031
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, math.isqrt(p) + 1))
)

# Products of differences taken per gcd in _pollard_rho.
_BATCH = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite with no factor <= 1024; returns a nontrivial divisor.
    # Brent's cycle search, one gcd per _BATCH products of differences; a
    # batch whose gcd is n is stepped again from its start, one gcd a step.
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += _BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d
        c += 1


def _split(n: int, counts: dict[int, int]) -> None:
    if is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _split(d, counts)
    _split(n // d, counts)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as a list of (prime, exponent), primes increasing."""
    if n < 2 or n >= U64:
        raise ValueError(f"factorize expects 2 <= n < 2**64, got {n}")
    counts: dict[int, int] = {}
    rem = n
    for p in _SMALL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    if rem > 1:
        # no prime up to min(sqrt(rem), _TRIAL_BOUND - 1) divides rem, so
        # below _TRIAL_BOUND**2 it is prime
        if rem < _TRIAL_BOUND**2:
            counts[rem] = counts.get(rem, 0) + 1
        else:
            _split(rem, counts)
    return sorted(counts.items())


def largest_prime_factor(n: int) -> int:
    """The largest prime dividing n.  Undefined at 1."""
    if n < 2:
        raise ValueError("largest prime factor is undefined below 2")
    return factorize(n)[-1][0]


def big_omega(n: int) -> int:
    """Number of prime divisors counted with multiplicity; 0 at 1."""
    if n == 1:
        return 0
    return sum(e for _, e in factorize(n))


def largest_prime_exponent(n: int) -> int:
    """The exponent of the largest prime in n.  Undefined at 1."""
    if n < 2:
        raise ValueError("largest prime exponent is undefined below 2")
    return factorize(n)[-1][1]


def largest_prime_power(n: int) -> int:
    """p**e for the largest prime p dividing n and its exponent e."""
    if n < 2:
        raise ValueError("largest prime power is undefined below 2")
    p, e = factorize(n)[-1]
    return p**e


def _iroot(n: int, k: int) -> int:
    # floor k-th root: integer Newton steps down from 2**ceil(bits/k) >= root
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple[int, int] | None:
    """(d, k) with n == d**k, d minimal (k maximal, k >= 2), else None."""
    if n < 4:
        return None
    for k in range(n.bit_length(), 1, -1):
        d = _iroot(n, k)
        if d >= 2 and d**k == n:
            return d, k
    return None


def log_preimage(values, base: int) -> set[int]:
    """{n >= 1 : base**n is in values} for a finite collection of integers."""
    if base < 2:
        raise ValueError("log_preimage needs base >= 2")
    targets = set(values)
    if not targets:
        return set()
    top = max(targets)
    out = set()
    power, n = base, 1
    while power <= top:
        if power in targets:
            out.add(n)
        power *= base
        n += 1
    return out
