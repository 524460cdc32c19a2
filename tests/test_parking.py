"""Parking functions, orbit statistics, and volume polynomial identities."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from cumulants.parking import (
    enumerate_parking,
    is_parking,
    moments_via_volume,
    orbit_moment_eval,
    orbit_size,
    parking_type,
    volume_bruteforce,
    volume_bruteforce_symmetric,
    volume_shape_eval,
)
from cumulants.partitions import IntegerPartition, falling_factorial, integer_partitions
from cumulants.series import LIMITS
from cumulants.transforms import (
    MomentSequence,
    MultiplierSequence,
    abel_oracle,
    free_from_moments,
    generalized_cumulants,
    moments_from_free,
    named_sequence,
)

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]


def random_seq(rng: random.Random, order: int) -> MomentSequence:
    return MomentSequence.from_values(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
    )


def test_is_parking():
    assert is_parking((1, 1, 2))
    assert is_parking((3, 1, 2))
    assert not is_parking((2, 2))
    assert not is_parking((1, 3, 3))
    assert not is_parking((0, 1))
    assert not is_parking(("1", 2))
    # permuting entries never changes the outcome
    for perm in itertools.permutations((1, 1, 3)):
        assert is_parking(perm)


def test_booleans_are_not_parking_entries():
    assert not is_parking([True])
    assert not is_parking((1, True))
    assert not is_parking((False, 1))
    assert is_parking((1,))
    with pytest.raises(ValueError):
        parking_type((True, 1))


def test_enumeration_is_the_filtered_product():
    # the literal definition: every word over 1..n that parks, in
    # lexicographic order
    for n in range(1, 7):
        words = itertools.product(range(1, n + 1), repeat=n)
        assert enumerate_parking(n) == [p for p in words if is_parking(p)]


def test_enumeration_counts_and_order():
    for n in range(1, 8):
        assert len(enumerate_parking(n)) == (n + 1) ** (n - 1)
    listed = enumerate_parking(2)
    assert listed == [(1, 1), (1, 2), (2, 1)]
    cubes = enumerate_parking(3)
    assert cubes[0] == (1, 1, 1)
    assert cubes[-1] == (3, 2, 1)
    assert cubes == sorted(cubes)
    assert all(is_parking(p) for p in cubes)
    with pytest.raises(ValueError):
        enumerate_parking(0)
    with pytest.raises(ValueError):
        enumerate_parking(LIMITS["parking functions"] + 1)


def test_enumeration_at_the_limit_is_strictly_increasing():
    # the filtered product above stops at n = 6; at the limit the order and
    # validity are checked here, on the list the enumeration returns
    listed = enumerate_parking(LIMITS["parking functions"])
    assert all(p < q for p, q in zip(listed, listed[1:]))
    assert all(is_parking(p) for p in listed)


def test_parking_type_and_orbit_size():
    assert parking_type((1, 1, 3)) == IntegerPartition((2, 1))
    assert parking_type((1, 2, 3)) == IntegerPartition((1, 1, 1))
    assert orbit_size(IntegerPartition((2, 1))) == 3
    assert orbit_size(IntegerPartition((3,))) == 1
    with pytest.raises(ValueError):
        parking_type((2, 2))
    # a one-shot iterable is read once: counted in full, and named in full when refused
    assert parking_type(iter([1, 1, 2])) == IntegerPartition((2, 1))
    with pytest.raises(ValueError, match=r"^\(2, 2\) is not a parking function$"):
        parking_type(iter([2, 2]))
    with pytest.raises(ValueError, match=r"^\(2, 2\) is not a parking function$"):
        parking_type([2, 2])
    # orbit size equals the count of distinct rearrangements
    for p in enumerate_parking(4):
        orbit = {perm for perm in itertools.permutations(p)}
        assert orbit_size(parking_type(p)) == len(orbit)


def test_type_count_formula():
    # number of parking functions with value multiplicities lambda is
    # (n! / lambda!) (n)_(l-1) / m(lambda)!
    for n in range(1, 7):
        tally: dict[tuple, int] = {}
        for p in enumerate_parking(n):
            key = parking_type(p).parts
            tally[key] = tally.get(key, 0) + 1
        for lam in integer_partitions(n):
            expected = (
                Fraction(math.factorial(n), lam.parts_factorial)
                * falling_factorial(n, lam.length - 1)
                / lam.mult_factorial
            )
            assert expected == tally.get(lam.parts, 0)


def test_orbits_are_counted_by_catalan():
    for n in range(1, 8):
        orbits = {tuple(sorted(p)) for p in enumerate_parking(n)}
        assert len(orbits) == CATALAN[n - 1]


def test_volume_bruteforce_small_cases():
    # V_2 = (x1^2 + 2 x1 x2) / 2
    assert volume_bruteforce([1, 1]) == Fraction(3, 2)
    assert volume_bruteforce([1, 0]) == Fraction(1, 2)
    x = Fraction(2, 3)
    y = Fraction(5)
    assert volume_bruteforce([x, y]) == (x * x + 2 * x * y) / 2
    assert volume_bruteforce([1]) == 1
    with pytest.raises(ValueError):
        volume_bruteforce([1] * (LIMITS["parking functions"] + 1))


def test_volume_is_abel_form_at_one_head_and_equal_tail():
    # Pitman and Stanley (2002): V_n(a, b, ..., b) = a (a + n b)^(n-1) / n!, Abel's
    # form, from no code of either volume route; a = b = 1 is the parking count
    for a, b in [(1, 1), (Fraction(2, 3), Fraction(-5, 7)), (3, Fraction(1, 2))]:
        for n in range(1, LIMITS["parking functions"] + 1):
            abel = Fraction(a) * (a + n * b) ** (n - 1) / math.factorial(n)
            assert volume_bruteforce([a] + [b] * (n - 1)) == abel, (a, b, n)


def test_volume_at_ones_counts_parking_functions():
    for n in range(1, 8):
        total = math.factorial(n) * volume_bruteforce([1] * n)
        assert total == (n + 1) ** (n - 1)


def fraction_volume(xs):
    # the literal sum over parking functions in Fraction arithmetic
    n = len(xs)
    total = Fraction(0)
    for p in enumerate_parking(n):
        term = Fraction(1)
        for v in p:
            term *= xs[v - 1]
        total += term
    return total / math.factorial(n)


def fraction_volume_symmetric(seq, n):
    total = Fraction(0)
    for p in enumerate_parking(n):
        mult: dict[int, int] = {}
        for v in p:
            mult[v] = mult.get(v, 0) + 1
        term = Fraction(1)
        for m in mult.values():
            term *= seq.moment(m)
        total += term
    return total / math.factorial(n)


def coprime_denominators(rng, count, digits=40):
    out = []
    while len(out) < count:
        q = rng.randrange(10 ** (digits - 1), 10**digits)
        if all(math.gcd(q, other) == 1 for other in out):
            out.append(q)
    return out


def test_integer_volume_sums_equal_the_fraction_sums():
    # the Fraction reference takes about 0.5 s on one small and 1.5 s on
    # one wide input at n = 6, so that size runs for the first seed only
    for seed in range(3):
        rng = random.Random(seed)
        for n in range(1, 7 if seed == 0 else 6):
            small = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(n)]
            small[rng.randrange(n)] = Fraction(0)
            wide = [
                Fraction(rng.randrange(-(10**40), 10**40), q)
                for q in coprime_denominators(rng, n)
            ]
            for xs in (small, wide):
                assert volume_bruteforce(xs) == fraction_volume(xs)
                seq = MomentSequence.from_values(xs)
                assert volume_bruteforce_symmetric(seq, n) == fraction_volume_symmetric(seq, n)


def test_shape_expansion_matches_bruteforce():
    rng = random.Random(50)
    for n in range(1, 7):
        for _ in range(5):
            seq = random_seq(rng, n)
            assert volume_shape_eval(seq, n) == volume_bruteforce_symmetric(seq, n)
    # equal variables reduce to the power sequence
    x = Fraction(3, 2)
    powers = MomentSequence.from_values([x**m for m in range(1, 6)])
    for n in range(1, 6):
        assert volume_bruteforce([x] * n) == volume_bruteforce_symmetric(powers, n)


def test_volume_errors():
    seq = named_sequence("u", 3)
    with pytest.raises(ValueError):
        volume_shape_eval(seq, 0)
    with pytest.raises(ValueError):
        volume_shape_eval(seq, 4)
    with pytest.raises(ValueError) as info:
        volume_bruteforce_symmetric(seq, 4)
    assert str(info.value) == "brute-force volumes of this sequence need 1 <= n <= 3"
    with pytest.raises(ValueError):
        orbit_moment_eval(seq, 4)


def test_barred_ones_volume_gives_catalan():
    # n! V_n at the barred all-ones sequence is the barred Catalan moment
    for n in range(1, 9):
        ubar = named_sequence("ubar", n)
        lhs = math.factorial(n) * volume_shape_eval(ubar, n)
        assert lhs == math.factorial(n) * CATALAN[n - 1]
    assert 6 * volume_shape_eval(named_sequence("ubar", 3), 3) == 30
    for n in range(1, 7):
        ubar = named_sequence("ubar", n)
        brute = math.factorial(n) * volume_bruteforce_symmetric(ubar, n)
        assert brute == math.factorial(n) * CATALAN[n - 1]


def test_abel_route_to_barred_moments():
    # with g_k = -k the single-cumulant oracle evaluates the inverse free
    # transform on barred sequences: it must return k! times Catalan at ubar
    for order in range(1, 8):
        g = MultiplierSequence.from_values([-k for k in range(1, order + 1)])
        ubar = named_sequence("ubar", order)
        assert abel_oracle(ubar, g, order) == math.factorial(order) * CATALAN[order - 1]
    rng = random.Random(51)
    for _ in range(10):
        r = random_seq(rng, 7)
        g = MultiplierSequence.from_values([-k for k in range(1, 8)])
        lhs = generalized_cumulants(r.bar(), g)
        assert lhs == moments_from_free(r).bar()
        for n in range(1, 8):
            assert abel_oracle(r.bar(), g, n) == lhs.values[n - 1]


def test_orbit_moment_eval():
    u = named_sequence("u", 7)
    for n in range(1, 8):
        assert orbit_moment_eval(u, n) == CATALAN[n - 1]
    rng = random.Random(52)
    for _ in range(10):
        a = random_seq(rng, 10)
        r = free_from_moments(a)
        for n in range(1, 11):
            assert orbit_moment_eval(r, n) == a.values[n - 1]


def test_moments_via_volume_round_trip():
    rng = random.Random(53)
    catalan = named_sequence("catalan", 6)
    assert moments_via_volume(catalan) == catalan
    for _ in range(10):
        a = random_seq(rng, 8)
        assert moments_via_volume(a) == a
