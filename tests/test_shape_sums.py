"""Shape sums against literal sums over enumerated partition lattices.

Every transform below sums over integer partitions with a weight that
counts the set partitions of each shape.  Here the same quantity is summed
over the set partitions themselves, one term per lattice element, so no
integer partition and no shape weight enters the reference side.

The transforms group that sum by block count, as sum_l w(n, l) B_{n,l}.
The per-shape weights they were written with before the grouping are
summed here over integer partitions as a second reference, and the
grouped rows are checked against closed forms that enumerate no shape.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from cumulants.parking import orbit_moment_eval, volume_shape_eval
from cumulants.partitions import (
    d_lambda,
    integer_partitions,
    interval_partitions,
    noncrossing_partitions,
    set_partitions,
)
from cumulants.transforms import (
    MomentSequence,
    MultiplierSequence,
    _bell_row,
    abel_oracle,
    boolean_from_moments,
    boolean_from_moments_series,
    classical_from_moments,
    classical_from_moments_series,
    cumulant_matrix,
    dot_operation,
    factorial_moments,
    free_from_moments,
    generalized_cumulants,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_from_free_series,
    moments_from_generalized,
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


# ---------------------------------------------------------------------------
# per-shape weights summed over integer partitions

REF_N = 12


def shape_sums(values, weight, nmax=REF_N):
    """sum over shapes lambda of n of weight(lambda) * values_lambda, n = 1..nmax."""
    return tuple(
        sum(
            weight(lam) * math.prod((values[p - 1] for p in lam.parts), start=Fraction(1))
            for lam in integer_partitions(n)
        )
        for n in range(1, nmax + 1)
    )


def compositions(lam):
    """l!/m(lambda)!: the compositions, or interval partitions, of shape lambda."""
    return Fraction(math.factorial(lam.length), lam.mult_factorial)


@pytest.mark.parametrize("seed", SEEDS)
def test_grouped_sums_equal_the_per_shape_formulas(seed):
    rng = random.Random(seed)
    a, g = random_sequence(rng, REF_N), random_sequence(rng, REF_N)
    fact = factorial_moments(g).values
    cases = [
        (classical_from_moments(a),
         lambda lam: d_lambda(lam) * (-1) ** (lam.length - 1) * math.factorial(lam.length - 1)),
        (moments_from_classical(a), d_lambda),
        (boolean_from_moments(a), lambda lam: compositions(lam) * (-1) ** (lam.length - 1)),
        (free_from_moments(a),
         lambda lam: Fraction(falling(-lam.n, lam.length - 1), lam.mult_factorial)),
        (moments_from_free(a),
         lambda lam: Fraction(falling(lam.n, lam.length - 1), lam.mult_factorial)),
        (generalized_cumulants(a, g),
         lambda lam: d_lambda(lam) * falling(-g.g(lam.n), lam.length - 1)),
        (umbral_composition(g, a, "egf"), lambda lam: d_lambda(lam) * g.g(lam.length)),
        (umbral_composition(g, a, "ogf"), lambda lam: compositions(lam) * g.g(lam.length)),
        (dot_operation(g, a), lambda lam: d_lambda(lam) * fact[lam.length - 1]),
    ]
    for i, (got, weight) in enumerate(cases):
        assert got.values == shape_sums(a.values, weight), i
    orbit = tuple(orbit_moment_eval(a, n) for n in range(1, REF_N + 1))
    assert orbit == moments_from_free(a).values
    volume = tuple(volume_shape_eval(a, n) for n in range(1, REF_N + 1))
    assert volume == shape_sums(
        a.values,
        lambda lam: Fraction(
            falling(lam.n, lam.length - 1), lam.parts_factorial * lam.mult_factorial
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_generalized_inverse_round_trips(seed):
    rng = random.Random(seed)
    a, g = random_sequence(rng, REF_N), random_sequence(rng, REF_N)
    assert moments_from_generalized(generalized_cumulants(a, g), g) == a
    assert generalized_cumulants(moments_from_generalized(a, g), g) == a


@pytest.mark.parametrize("seed", SEEDS)
def test_cumulant_matrix_entries_equal_the_per_shape_formula(seed):
    a = random_sequence(random.Random(seed), REF_N)
    kmax = 4
    matrix = cumulant_matrix(a, REF_N, kmax)
    for k in range(1, kmax + 1):
        column = shape_sums(a.values, lambda lam: d_lambda(lam) * falling(-k, lam.length - 1))
        for n in range(1, REF_N + 1):
            assert matrix.entry(n, k) == column[n - 1], (n, k)


# ---------------------------------------------------------------------------
# grouped rows against closed forms


def exponential_row(values, n):
    """B_{n,l}(a) = n!/l! B^ord_{n,l}(a_k/k!), l = 0..n, from the one ordinary row."""
    unbarred = [v / math.factorial(k) for k, v in enumerate(values, start=1)]
    row = _bell_row(unbarred, n)
    return [math.factorial(n) * b / math.factorial(l) for l, b in enumerate(row)]


def test_exponential_row_at_ones_is_stirling_second_kind():
    # S(n, l) = l S(n-1, l) + S(n-1, l-1), S(0, 0) = 1
    ones = [Fraction(1)] * 15
    stirling = [1]
    for n in range(1, 16):
        stirling = [
            (l * stirling[l] if l < n else 0) + (stirling[l - 1] if l >= 1 else 0)
            for l in range(n + 1)
        ]
        assert exponential_row(ones, n) == stirling, n
    # and on rationals, the set-partition count d_lambda per shape: small ones
    # to n = 20 and one seeded sequence of 40-digit rationals to n = 16
    wide = random.Random(4)
    cases = [random_sequence(random.Random(seed), REF_N).values for seed in SEEDS] + [
        random_sequence(random.Random(3), 20).values,
        [Fraction(wide.randint(-10**40, 10**40), wide.randint(1, 10**40)) for _ in range(16)],
    ]
    for case, a in enumerate(cases):
        for n in range(1, len(a) + 1):
            expected = [Fraction(0)] * (n + 1)
            for lam in integer_partitions(n):
                expected[lam.length] += d_lambda(lam) * math.prod(
                    (a[p - 1] for p in lam.parts), start=Fraction(1)
                )
            assert exponential_row(a, n) == expected, (case, n)


def test_ordinary_row_at_ones_is_binomial():
    ones = [Fraction(1)] * 15
    for n in range(1, 16):
        expected = [0] + [math.comb(n - 1, l - 1) for l in range(1, n + 1)]
        assert _bell_row(ones, n) == expected, n


# ---------------------------------------------------------------------------
# every shape-sum map at the orders bench/run.py times (18-26), against
# generating-function routes that share no code with _bell_row


def test_shape_sums_at_the_timed_orders():
    rng = random.Random(26)
    a = random_sequence(rng, 26)
    assert classical_from_moments(a) == classical_from_moments_series(a)
    assert boolean_from_moments(a) == boolean_from_moments_series(a)
    assert moments_from_free(a) == moments_from_free_series(a)

    a = random_sequence(rng, 22)
    assert moments_from_free_series(free_from_moments(a)) == a
    assert classical_from_moments_series(moments_from_classical(a)) == a

    n, checked = 20, (1, 10, 20)
    a, c = random_sequence(rng, n), random_sequence(rng, n)
    for g in (MultiplierSequence.constant(3, n), MultiplierSequence.index(n),
              MultiplierSequence.from_values(random_sequence(rng, n).values)):
        cumulants, moments = generalized_cumulants(a, g), moments_from_generalized(c, g)
        for k in checked:
            assert cumulants.values[k - 1] == abel_oracle(a, g, k), (g, k)
            assert abel_oracle(moments, g, k) == c.values[k - 1], (g, k)
    matrix = cumulant_matrix(a, n, 3)
    for col in range(1, 4):
        g = MultiplierSequence.constant(col, n)
        for k in checked:
            assert matrix.entry(k, col) == abel_oracle(a, g, k), (col, k)

    g, a = random_sequence(rng, 22), random_sequence(rng, 22)
    delta = a.to_ogf() - 1
    assert umbral_composition(g, a, "ogf") == MomentSequence.from_ogf(g.to_ogf().compose(delta))
    delta = a.to_egf() - 1
    assert umbral_composition(g, a, "egf") == MomentSequence.from_egf(g.to_egf().compose(delta))
    assert dot_operation(g, a) == MomentSequence.from_egf(g.to_egf().compose(a.to_egf().log()))


# ---------------------------------------------------------------------------
# zero entries: the recurrence skips every zero entry and zero cell, and each
# skipped term is exactly 0, so the rows equal the literal per-shape sums

ZERO_N = 20


def zero_patterns(rng, order):
    """(name, values): seeded nonzero entries with zeros forced in."""
    a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
         for _ in range(order)]
    zero, kept = rng.randrange(order), rng.randrange(order)
    return [
        ("a_1 = 0", [Fraction(0)] + a[1:]),
        ("odd entries 0", [Fraction(0) if k % 2 else v for k, v in enumerate(a, start=1)]),
        (f"a_{zero + 1} = 0", a[:zero] + [Fraction(0)] + a[zero + 1:]),
        (f"only a_{kept + 1}", [v if k == kept else Fraction(0) for k, v in enumerate(a)]),
        ("all 0", [Fraction(0)] * order),
    ]


def per_shape_row(values, shapes, count):
    """sum of count(lambda) * values_lambda over the given shapes with l parts, l = 0..n."""
    row = [Fraction(0)] * (shapes[0].n + 1)
    for lam in shapes:
        row[lam.length] += count(lam) * math.prod(
            (values[p - 1] for p in lam.parts), start=Fraction(1)
        )
    return row


@pytest.mark.parametrize("seed", SEEDS)
def test_rows_with_zero_entries_equal_the_per_shape_sum(seed):
    cases = zero_patterns(random.Random(seed), ZERO_N)
    for n in range(1, ZERO_N + 1):
        shapes = integer_partitions(n)
        for name, values in cases:
            assert _bell_row(values, n) == per_shape_row(values, shapes, compositions), (name, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_generalized_maps_and_matrix_on_zero_entries(seed):
    rng = random.Random(seed)
    g = MultiplierSequence.from_values(random_sequence(rng, ZERO_N).values)
    kmax = 3
    cases = []
    for name, values in zero_patterns(rng, ZERO_N):
        a = MomentSequence.from_values(values)
        cases.append((name, a, generalized_cumulants(a, g), cumulant_matrix(a, ZERO_N, kmax)))
    for n in range(1, ZERO_N + 1):
        shapes = integer_partitions(n)
        for name, a, cumulants, matrix in cases:
            # the exponential row: d_lambda set partitions per shape
            row = per_shape_row(a.values, shapes, d_lambda)
            expected = [
                sum(falling(x, l - 1) * row[l] for l in range(1, n + 1))
                for x in [-g.g(n)] + [-k for k in range(1, kmax + 1)]
            ]
            got = [cumulants.values[n - 1]] + [matrix.entry(n, k) for k in range(1, kmax + 1)]
            assert got == expected, (name, n)
    for name, a, cumulants, _ in cases:
        assert moments_from_generalized(cumulants, g) == a, name
        assert generalized_cumulants(moments_from_generalized(a, g), g) == a, name


# ---------------------------------------------------------------------------
# the three central-limit laws past the timed orders: cumulants (0, 1, 0, ...)
# against closed forms from O(N) recurrences that share no shape or series code

CLT_N = 40  # a dense map of 40 takes tenths of a second; skipping the zeros, ms
CLT_BUDGET_S = 1.5  # about 10x the six maps' time, so only a lost pruning fails it


def even_moments(step):
    """Moments 0 at odd n, with m_0 = 1 and m_2k = m_(2k-2) * step(k)."""
    values, m = [], Fraction(1)
    for k in range(1, CLT_N // 2 + 1):
        m *= step(k)
        values += [Fraction(0), m]
    return MomentSequence.from_values(values)


def test_central_limit_laws_past_the_timed_orders():
    cumulants = MomentSequence.from_values([int(n == 2) for n in range(1, CLT_N + 1)])
    laws = [
        (moments_from_free, free_from_moments, lambda k: Fraction(2 * (2 * k - 1), k + 1)),
        (moments_from_classical, classical_from_moments, lambda k: 2 * k - 1),
        (moments_from_boolean, boolean_from_moments, lambda k: 1),
    ]  # Catalan numbers, (2k - 1)!! and ones at n = 2k
    start = time.perf_counter()
    for c2m, m2c, step in laws:
        moments = even_moments(step)
        assert c2m(cumulants) == moments, c2m.__name__
        assert m2c(moments) == cumulants, m2c.__name__
    elapsed = time.perf_counter() - start
    assert elapsed < CLT_BUDGET_S, (
        f"six maps at N = {CLT_N} took {elapsed:.2f}s, budget {CLT_BUDGET_S}s"
    )


# ---------------------------------------------------------------------------
# dense inputs past the timed orders: rows at n = 60 against closed forms that
# enumerate nothing, and two dense maps at N = 40 against their series oracles.
# A row that visits every shape fails the budget: p(60) = 966,467 shapes

DENSE_ROW_N, DENSE_MAP_N = 60, 40
DENSE_BUDGET_S = 4.0  # 2-4x the four checks' 1.0-2.0 s; visiting shapes took 15 s on the first


def test_dense_rows_and_maps_past_the_timed_orders():
    n = DENSE_ROW_N
    rng = random.Random(40)
    a = MomentSequence.from_values(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(DENSE_MAP_N)]
    )
    checks = [
        # a = (1, 1, ...): the compositions of n into l parts, C(n - 1, l - 1)
        (lambda: _bell_row([Fraction(1)] * n, n),
         [0] + [math.comb(n - 1, l - 1) for l in range(1, n + 1)]),
        # a_k = k, OGF t/(1 - t)^2: [t^n] t^l/(1 - t)^(2l) = C(n + l - 1, 2l - 1)
        (lambda: _bell_row([Fraction(k) for k in range(1, n + 1)], n),
         [0] + [math.comb(n + l - 1, 2 * l - 1) for l in range(1, n + 1)]),
        (lambda: moments_from_free(a), moments_from_free_series(a)),
        (lambda: classical_from_moments(a), classical_from_moments_series(a)),
    ]
    start = time.perf_counter()
    for i, (got, expected) in enumerate(checks):
        assert got() == expected, i
        elapsed = time.perf_counter() - start
        assert elapsed < DENSE_BUDGET_S, (
            f"checks 0..{i} took {elapsed:.2f}s, budget {DENSE_BUDGET_S}s"
        )
