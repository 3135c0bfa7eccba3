import math
import random

import pytest

import _expip_oracle
from ultraexp.expip import (
    Accepted,
    ExpIPWitness,
    Rejected,
    UnknownAtCap,
    find_expip,
    fp_set,
    verify_expip,
)
from ultraexp.expr import CapExceeded

POW2 = {1 << i for i in range(1, 64)}


# ---------------------------------------------------------------------------
# finite-products sets

def test_fp_set_examples():
    assert fp_set([2, 3]) == {2, 3, 6}
    assert fp_set([2, 2]) == {2, 4}
    assert fp_set([2, 3, 5]) == {2, 3, 5, 6, 10, 15, 30}
    assert fp_set([7]) == {7}


def test_fp_set_cap():
    with pytest.raises(CapExceeded):
        fp_set([10, 10, 10], cap=99)
    assert fp_set([10, 10], cap=100) == {10, 100}


def test_fp_set_domain():
    with pytest.raises(ValueError):
        fp_set([])
    with pytest.raises(ValueError):
        fp_set([2, 0])


def test_fp_set_invariants_fuzz():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        xs = [rng.randint(1, 9) for _ in range(n)]
        fp = fp_set(xs)
        assert 1 <= len(fp) <= 2**n - 1
        total = math.prod(xs)
        assert all(total % p == 0 for p in fp)
        assert max(fp) == total
        # prefix closure and one-step recurrence
        for i in range(1, n):
            prev = fp_set(xs[:i])
            assert prev <= fp
            x = xs[i]
            assert fp_set(xs[: i + 1]) == prev | {x} | {p * x for p in prev}


# ---------------------------------------------------------------------------
# verification

def test_verify_accepts_powers_of_two():
    assert verify_expip(POW2, [2, 4]) == Accepted()
    assert verify_expip(POW2, [2, 2, 2]) == Accepted()


def test_verify_membership_reject():
    assert verify_expip({2, 3}, [2, 5]) == Rejected("membership", 1, None, 5)
    assert verify_expip({3}, [2, 3]) == Rejected("membership", 0, None, 2)


def test_verify_tower_reject():
    assert verify_expip({2, 3, 8}, [2, 3]) == Rejected("tower", 1, 2, 9)


def test_verify_unknown_at_cap():
    assert verify_expip({2, 3, 8}, [2, 3], cap=8) == UnknownAtCap(1, 2, 8)


def test_verify_stops_at_first_requirement():
    # membership of x_2 is checked before any of its towers
    assert verify_expip({2}, [2, 5]) == Rejected("membership", 1, None, 5)
    # towers go ascending through the prefix products: 5^2 rejects before
    # 5^3 (which would pass the cap)
    A = {2, 3, 9}
    assert verify_expip(A, [2, 3, 5], cap=100) == Rejected("membership", 2, None, 5)
    A = {2, 3, 9, 5}
    assert verify_expip(A, [2, 3, 5], cap=100) == Rejected("tower", 2, 2, 25)
    A = {2, 3, 9, 5, 25}
    assert verify_expip(A, [2, 3, 5], cap=100) == UnknownAtCap(2, 3, 100)


def test_verify_domain():
    with pytest.raises(ValueError):
        verify_expip({2}, [])
    with pytest.raises(ValueError):
        verify_expip({2}, [2, 1])


def test_witness_container():
    w = ExpIPWitness((2, 3, 2))
    assert w.depth == 3
    with pytest.raises(ValueError):
        ExpIPWitness(())
    with pytest.raises(ValueError):
        ExpIPWitness((2, 1))


# ---------------------------------------------------------------------------
# search

def test_find_in_powers_of_two():
    w = find_expip(POW2, 3, cap=1 << 70)
    assert w == ExpIPWitness((2, 2, 2))
    assert verify_expip(POW2, list(w.xs), cap=1 << 70) == Accepted()


def test_find_no_witness():
    assert find_expip({5}, 2, cap=1 << 64) is None
    assert find_expip(set(), 1, cap=1 << 64) is None


def test_find_smallest_lexicographic():
    # [2, 2] works in [2..27] because 2^2 = 4 is present
    w = find_expip(set(range(2, 28)), 2, cap=1 << 64)
    assert w == ExpIPWitness((2, 2))


def test_find_depth_one_needs_only_membership():
    assert find_expip({9}, 1, cap=1 << 64) == ExpIPWitness((9,))


def test_find_domain():
    with pytest.raises(ValueError):
        find_expip({2}, 0, cap=1 << 64)


def test_find_verify_round_trip_fuzz():
    rng = random.Random(32)
    cap = 1 << 40
    found = 0
    for _ in range(150):
        A = {rng.randint(2, 60) for _ in range(rng.randint(3, 25))}
        depth = rng.randint(1, 3)
        w = find_expip(A, depth, cap=cap)
        if w is None:
            continue
        found += 1
        assert w.depth == depth
        assert verify_expip(A, list(w.xs), cap=cap) == Accepted()
    assert found > 20


def test_verify_monotone_in_set():
    rng = random.Random(33)
    cap = 1 << 40
    for _ in range(100):
        A = {rng.randint(2, 40) for _ in range(rng.randint(3, 15))}
        w = find_expip(A, 2, cap=cap)
        if w is None:
            continue
        bigger = A | {rng.randint(2, 1000) for _ in range(5)}
        assert verify_expip(bigger, list(w.xs), cap=cap) == Accepted()


def _expip_corpus():
    """Seeded (set, depth, cap) cases: small random sets, unions of powers
    with noise (where most witnesses are), and intervals, under caps small
    enough to cut some towers off."""
    rng = random.Random(34)
    for i in range(600):
        cap = rng.choice((1 << 8, 1 << 16, 1 << 40))
        match i % 3:
            case 0:
                A = {rng.randint(1, 60) for _ in range(rng.randint(0, 25))}
            case 1:
                A = {b**e for b in rng.sample(range(2, 12), rng.randint(1, 3))
                     for e in range(1, rng.randint(2, 40))}
                A |= {rng.randint(2, 5000) for _ in range(rng.randint(0, 30))}
            case 2:
                A = set(range(rng.randint(1, 5), rng.randint(5, 120)))
        yield A, rng.randint(1, 5), cap


def test_find_matches_the_oracle_on_a_seeded_corpus():
    found = none = 0
    for A, depth, cap in _expip_corpus():
        w = find_expip(A, depth, cap)
        assert w == _expip_oracle.find_expip(A, depth, cap), (sorted(A), depth, cap)
        if w is None:
            none += 1
        else:
            found += 1
            assert w.depth == depth and verify_expip(A, list(w.xs), cap) == Accepted()
    assert found > 150 and none > 150
