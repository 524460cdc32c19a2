"""Shape sums against literal sums over enumerated partition lattices.

Every transform below sums over integer partitions with a weight that
counts the set partitions of each shape.  Here the same quantity is summed
over the set partitions themselves, one term per lattice element, so no
integer partition and no shape weight enters the reference side.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from cumulants.parking import orbit_moment_eval
from cumulants.partitions import interval_partitions, noncrossing_partitions, set_partitions
from cumulants.transforms import (
    MomentSequence,
    MultiplierSequence,
    dot_operation,
    factorial_moments,
    generalized_cumulants,
    moments_from_classical,
    moments_from_free,
    umbral_composition,
)

N = 8
SEEDS = [0, 1, 2]


def random_sequence(rng, order):
    return MomentSequence.from_values(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order)]
    )


def block_product(values, partition):
    """values_pi: the product of values[|B| - 1] over the blocks B of pi."""
    return math.prod((values[len(b) - 1] for b in partition.blocks), start=Fraction(1))


def lattice_sums(partitions_of, term):
    """sum of term(pi) over the lattice at each degree 1..N."""
    return tuple(sum(term(pi) for pi in partitions_of(n)) for n in range(1, N + 1))


def falling(x, k):
    return math.prod((x - i for i in range(k)), start=Fraction(1))


@pytest.mark.parametrize("seed", SEEDS)
def test_classical_moments_sum_over_all_partitions(seed):
    c = random_sequence(random.Random(seed), N)
    expected = lattice_sums(set_partitions, lambda pi: block_product(c.values, pi))
    assert moments_from_classical(c).values == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_generalized_cumulants_sum_over_all_partitions(seed):
    rng = random.Random(seed)
    a = random_sequence(rng, N)
    g = MultiplierSequence.from_values(random_sequence(rng, N).values)
    expected = lattice_sums(
        set_partitions,
        lambda pi: falling(-g.g(pi.n), pi.length - 1) * block_product(a.values, pi),
    )
    assert generalized_cumulants(a, g).values == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_free_moments_sum_over_noncrossing_partitions(seed):
    r = random_sequence(random.Random(seed), N)
    expected = lattice_sums(noncrossing_partitions, lambda pi: block_product(r.values, pi))
    assert moments_from_free(r).values == expected
    assert tuple(orbit_moment_eval(r, n) for n in range(1, N + 1)) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_umbral_composition_sums_over_all_and_interval_partitions(seed):
    rng = random.Random(seed)
    outer, inner = random_sequence(rng, N), random_sequence(rng, N)

    def term(pi):
        return outer.values[pi.length - 1] * block_product(inner.values, pi)

    assert umbral_composition(outer, inner, "egf").values == lattice_sums(set_partitions, term)
    assert umbral_composition(outer, inner, "ogf").values == lattice_sums(
        interval_partitions, term
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dot_operation_sums_over_all_partitions(seed):
    rng = random.Random(seed)
    g, a = random_sequence(rng, N), random_sequence(rng, N)
    fact = factorial_moments(g).values
    expected = lattice_sums(
        set_partitions, lambda pi: fact[pi.length - 1] * block_product(a.values, pi)
    )
    assert dot_operation(g, a).values == expected
