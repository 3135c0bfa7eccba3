import math
import random

import pytest

from ultraexp import numth


def test_factorize_examples():
    assert numth.factorize(12) == [(2, 2), (3, 1)]
    assert numth.factorize(97) == [(97, 1)]
    assert numth.factorize(2**60) == [(2, 60)]


def test_factorize_domain():
    for bad in (0, 1, 1 << 64):
        with pytest.raises(ValueError):
            numth.factorize(bad)


def test_factorize_reconstructs_fuzz():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(2, 10**12)
        fac = numth.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        primes = [p for p, _ in fac]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(numth.is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in fac)


def test_factorize_big_semiprimes():
    # no factor below the trial-division bound: exercises rho + Miller-Rabin
    p, q = 4294967291, 4294967279
    assert numth.is_prime(p) and numth.is_prime(q)
    assert numth.factorize(p * p) == [(p, 2)]
    assert numth.factorize(p * q) == [(q, 1), (p, 1)]
    assert numth.factorize((1 << 64) - 1) == [
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)
    ]


@pytest.mark.parametrize("p", [1031, 1033, 65537, 2097169, 2642239])
def test_factorize_prime_powers_past_trial_division(p):
    # past 2**20 with no factor <= 1024, so rho has to split them
    assert numth.factorize(p * p) == [(p, 2)]
    assert numth.factorize(p**3) == [(p, 3)]


@pytest.mark.parametrize("ps", [(1031, 1033, 1039), (1031, 1031, 1033), (65537, 2097169, 2097211)])
def test_factorize_three_primes_past_trial_division(ps):
    n = math.prod(ps)
    assert n < 1 << 64
    assert numth.factorize(n) == sorted((p, ps.count(p)) for p in set(ps))


def _trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    return out + [(n, 1)] * (n > 1)


# products around the trial-division table's bound (1021 is the largest
# prime in it, 1031 and 1033 the next two) and of primes past 2**16, 2**32
_BOUNDARY_PRIMES = (2, 3, 1021, 1031, 1033, 65537, 4294967311)


def test_factorize_matches_plain_trial_division():
    for n in range(2, 100_000):
        assert numth.factorize(n) == _trial_factorize(n), n
    for a in _BOUNDARY_PRIMES:
        for b in _BOUNDARY_PRIMES:
            for c in (1, 1021, 1031, 1033):
                n = a * b * c
                if 2 <= n < 1 << 64:
                    assert numth.factorize(n) == _trial_factorize(n), n


def test_is_prime_small_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert numth.is_prime(n) == trial(n), n


def test_is_prime_hard_cases():
    # Carmichael numbers defeat the plain Fermat test
    for n in (561, 1105, 1729, 41041, 825265):
        assert not numth.is_prime(n)
    assert numth.is_prime(2**61 - 1)
    assert not numth.is_prime((2**31 - 1) * (2**31 - 1))


def test_fn_examples():
    assert numth.largest_prime_factor(12) == 3
    assert numth.largest_prime_factor(97) == 97
    assert numth.largest_prime_factor(108) == 3
    assert numth.big_omega(12) == 3
    assert numth.big_omega(1) == 0
    assert numth.big_omega(1024) == 10
    assert numth.largest_prime_exponent(12) == 1
    assert numth.largest_prime_exponent(108) == 3
    assert numth.largest_prime_exponent(49) == 2
    assert numth.largest_prime_power(12) == 3
    assert numth.largest_prime_power(108) == 27
    assert numth.largest_prime_power(97) == 97


def test_fn_domain():
    for fn in (
        numth.largest_prime_factor,
        numth.largest_prime_exponent,
        numth.largest_prime_power,
    ):
        with pytest.raises(ValueError):
            fn(1)


def test_power_identities_sample():
    # the exhaustive run lives in test_acceptance.py; this is a quick guard
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randrange(2, 10**4)
        a = rng.randrange(1, 6)
        if n**a >= 1 << 64:  # outside the factorization range
            continue
        assert numth.largest_prime_factor(n**a) == numth.largest_prime_factor(n)
        assert numth.largest_prime_exponent(n**a) == a * numth.largest_prime_exponent(n)
        assert numth.largest_prime_power(n**a) == numth.largest_prime_power(n) ** a
        assert numth.big_omega(n**a) == a * numth.big_omega(n)


def test_omega_additivity_sample():
    rng = random.Random(3)
    for _ in range(200):
        n, m = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
        assert numth.big_omega(n * m) == numth.big_omega(n) + numth.big_omega(m)


def test_head_absorption_sample():
    rng = random.Random(4)
    hits = 0
    while hits < 150:
        x, y = rng.randrange(2, 10**3), rng.randrange(2, 10**3)
        if numth.largest_prime_factor(y) > numth.largest_prime_factor(x):
            assert numth.largest_prime_power(x * y) == numth.largest_prime_power(y)
            hits += 1


def test_perfect_power_examples():
    assert numth.perfect_power(4) == (2, 2)
    assert numth.perfect_power(8) == (2, 3)
    assert numth.perfect_power(64) == (2, 6)
    assert numth.perfect_power(36) == (6, 2)
    assert numth.perfect_power(2**60) == (2, 60)
    for n in (1, 2, 3, 5, 6, 7, 12, 97, 200):
        assert numth.perfect_power(n) is None


def test_perfect_power_exhaustive_small():
    powers = {d**k for d in range(2, 71) for k in range(2, 13) if d**k <= 5000}
    for n in range(1, 5001):
        pp = numth.perfect_power(n)
        assert (pp is not None) == (n in powers), n
        if pp is not None:
            d, k = pp
            assert d**k == n and d >= 2 and k >= 2
            # minimal root: the root is not itself a perfect power
            assert numth.perfect_power(d) is None


def test_log_preimage_examples():
    assert numth.log_preimage({2, 4, 8, 9}, 2) == {1, 2, 3}
    assert numth.log_preimage(set(), 2) == set()
    assert numth.log_preimage({27, 81}, 3) == {3, 4}


def test_log_preimage_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        b = set(rng.sample(range(1, 41), rng.randint(0, 12)))
        assert numth.log_preimage({2**n for n in b}, 2) == b


def test_log_preimage_base_domain():
    with pytest.raises(ValueError):
        numth.log_preimage({4}, 1)
