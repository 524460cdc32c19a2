"""Moment/cumulant transforms: frozen examples, oracles, and invariants."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from cumulants.series import TruncatedSeries
from cumulants.transforms import (
    MomentSequence,
    MultiplierSequence,
    _NAMED,
    abel_copy_oracle,
    abel_oracle,
    boolean_convolve,
    boolean_free_transport,
    boolean_from_moments,
    boolean_from_moments_series,
    classical_convolve,
    classical_from_moments,
    classical_from_moments_series,
    cumulant_matrix,
    dot_operation,
    factorial_moments,
    free_convolve,
    free_from_moments,
    gamma_convolve,
    generalized_cumulants,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_from_free_series,
    moments_from_generalized,
    named_sequence,
    umbral_composition,
)


def seq(*values) -> MomentSequence:
    return MomentSequence.from_values(values)


def random_seq(rng: random.Random, order: int) -> MomentSequence:
    return MomentSequence.from_values(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
    )


def wide_seq(rng, order: int) -> MomentSequence:
    """Seeded 40-digit rationals."""
    return MomentSequence.from_values(
        [Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(order)]
    )


# ---------------------------------------------------------------------------
# sequence plumbing


def test_moment_sequence_basics():
    a = seq(1, "1/2", Fraction(3))
    assert a.order == 3
    assert a.moment(0) == 1
    assert a.moment(2) == Fraction(1, 2)
    for k in (-1, 4):
        with pytest.raises(ValueError):
            a.moment(k)
    assert a.truncated(2) == seq(1, "1/2")
    with pytest.raises(ValueError):
        a.truncated(4)
    with pytest.raises(TypeError):
        seq(0.5)


def test_indexes_are_plain_ints():
    a = seq(5, 7)
    for read in (a.moment, a.g, a.f):
        assert read(0) == 1 and read(2) == 7
        for k in (True, False, 1.0, 1.5, Fraction(1), "1", None, -1, 3):
            with pytest.raises(ValueError, match=rf"^index {re.escape(repr(k))} outside 0\.\.2$"):
                read(k)
    matrix = cumulant_matrix(named_sequence("u", 3), 3, 2)
    for n, k in ((True, 1), (1, True), (1.0, 1), (1, 2.0), (False, 1), (1, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            matrix.entry(n, k)
    for k in (True, 1.0, None):
        with pytest.raises(ValueError, match=rf"^column must be an integer, not {k!r}$"):
            matrix.column(k)


def test_bar_unbar():
    a = seq(1, 1, 1, 1)
    assert a.bar() == seq(1, 2, 6, 24)
    assert a.bar().unbar() == a
    rng = random.Random(3)
    b = random_seq(rng, 9)
    assert b.unbar().bar() == b


def test_scaled():
    a = seq(1, 2, 3)
    assert a.scaled(2) == seq(2, 8, 24)
    assert a.scaled(Fraction(1, 2)) == seq(Fraction(1, 2), Fraction(1, 2), Fraction(3, 8))


def test_generating_function_round_trips():
    rng = random.Random(4)
    a = random_seq(rng, 8)
    assert MomentSequence.from_egf(a.to_egf()) == a
    assert MomentSequence.from_ogf(a.to_ogf()) == a
    assert a.to_egf().coeffs[0] == 1
    bad = TruncatedSeries(2, [2, 1, 1])
    with pytest.raises(ValueError):
        MomentSequence.from_egf(bad)
    with pytest.raises(ValueError):
        MomentSequence.from_ogf(bad)


def test_moment_sequence_json():
    a = seq(1, "-1/2", 4)
    data = a.to_json()
    assert data == {"order": 3, "values": ["1", "-1/2", "4"]}
    assert MomentSequence.from_json(data) == a
    with pytest.raises(ValueError):
        MomentSequence.from_json({"order": 2, "values": ["1"]})
    with pytest.raises(ValueError):
        MomentSequence.from_json({"values": ["1"]})
    with pytest.raises(ValueError):
        MomentSequence.from_json({"order": "2", "values": ["1", "2"]})


def test_multiplier_sequence():
    g = MultiplierSequence.constant(2, 4)
    assert g.values == (2, 2, 2, 2)
    assert MultiplierSequence.index(3).values == (1, 2, 3)
    assert MultiplierSequence.from_values(["1/2", 3]).g(1) == Fraction(1, 2)


def test_any_exact_sequence_serves_as_multipliers():
    # named_sequence("uD", n) is the sequence 1..n, the same values as
    # MultiplierSequence.index(n), and the one sequence type reads as g
    rng = random.Random(18)
    for n in (1, 4, 9):
        a = random_seq(rng, n)
        named, index = named_sequence("uD", n), MultiplierSequence.index(n)
        assert generalized_cumulants(a, named) == generalized_cumulants(a, index)
        assert moments_from_generalized(a, named) == moments_from_generalized(a, index)
        assert [named.g(k) for k in range(1, n + 1)] == list(index.values)
        assert named == index


def test_named_sequences():
    assert named_sequence("u", 4) == seq(1, 1, 1, 1)
    assert named_sequence("chi", 4) == seq(1, 0, 0, 0)
    assert named_sequence("epsilon", 3) == seq(0, 0, 0)
    assert named_sequence("ubar", 4) == seq(1, 2, 6, 24)
    assert named_sequence("uD", 4) == seq(1, 2, 3, 4)
    assert named_sequence("bell", 8) == seq(1, 2, 5, 15, 52, 203, 877, 4140)
    assert named_sequence("catalan", 8) == seq(1, 2, 5, 14, 42, 132, 429, 1430)
    with pytest.raises(ValueError):
        named_sequence("zeta", 3)
    for name in (["u"], {}):  # unhashable names get the same refusal
        with pytest.raises(ValueError, match="^unknown sequence name"):
            named_sequence(name, 3)
    for name in _NAMED:
        for order in range(7):
            assert named_sequence(name, order).order == order, (name, order)


# ---------------------------------------------------------------------------
# classical pair


def test_classical_examples():
    assert classical_from_moments(seq(1, 1)) == seq(1, 0)
    assert classical_from_moments(named_sequence("bell", 8)) == named_sequence("u", 8)
    assert moments_from_classical(named_sequence("u", 8)) == named_sequence("bell", 8)
    assert moments_from_classical(seq(2, 0, 0)) == seq(2, 4, 8)


def test_classical_round_trip_and_series_oracle():
    rng = random.Random(10)
    for _ in range(20):
        a = random_seq(rng, 12)
        c = classical_from_moments(a)
        assert moments_from_classical(c) == a
        assert classical_from_moments_series(a) == c


def test_classical_recursion():
    # a_m = sum_j C(m-1, j) c_{j+1} a_{m-1-j}
    rng = random.Random(11)
    a = random_seq(rng, 12)
    c = classical_from_moments(a)
    for m in range(1, 13):
        assert a.moment(m) == sum(
            math.comb(m - 1, j) * c.moment(j + 1) * a.moment(m - 1 - j)
            for j in range(m)
        )


# ---------------------------------------------------------------------------
# boolean pair


def test_boolean_examples():
    assert boolean_from_moments(seq(1, 2, 4, 8)) == seq(1, 1, 1, 1)
    assert boolean_from_moments(seq(1, 1, 1)) == seq(1, 0, 0)
    assert boolean_from_moments(seq(0, 1, 0)) == seq(0, 1, 0)
    doubled = seq(*[2 ** (n - 1) for n in range(1, 13)])
    assert moments_from_boolean(named_sequence("u", 12)) == doubled


def test_boolean_round_trip_and_series_oracle():
    rng = random.Random(12)
    for _ in range(20):
        a = random_seq(rng, 12)
        h = boolean_from_moments(a)
        assert moments_from_boolean(h) == a
        assert boolean_from_moments_series(a) == h


# ---------------------------------------------------------------------------
# free pair


def test_free_examples():
    assert free_from_moments(named_sequence("catalan", 8)) == named_sequence("u", 8)
    assert moments_from_free(named_sequence("u", 8)) == named_sequence("catalan", 8)
    assert free_from_moments(seq(0, 1, 0, 2)) == seq(0, 1, 0, 0)
    assert moments_from_free(seq(0, 2, 0, 0)) == seq(0, 2, 0, 8)


def test_free_round_trip_and_fixed_point_oracle():
    rng = random.Random(13)
    for _ in range(20):
        a = random_seq(rng, 12)
        r = free_from_moments(a)
        assert moments_from_free(r) == a
        assert moments_from_free_series(r) == a


def fixed_point(r: MomentSequence) -> MomentSequence:
    """M = R(t M) iterated N times from M = 1: the literal definition of the moment OGF."""
    n = r.order
    big_r, t = r.to_ogf(), TruncatedSeries.identity(n)
    m = TruncatedSeries.constant(1, n)
    for _ in range(n):
        m = big_r.compose(t * m)
    return MomentSequence(m.coeffs[1:])


def test_free_series_oracle_solves_the_fixed_point():
    # the oracle reverts t / R(t); the fixed point is the equation it solves
    rng = random.Random(19)
    wide = 10**40
    for order in (1, 2, 7, 20):
        r = random_seq(rng, order)
        assert moments_from_free_series(r) == fixed_point(r)
    for order in (1, 3, 8):
        r = MomentSequence.from_values(
            [Fraction(rng.randint(-wide, wide), rng.randint(1, wide)) for _ in range(order)]
        )
        assert moments_from_free_series(r) == fixed_point(r)
    # order 0, where the fixed point has no series t to iterate with
    empty = MomentSequence(())
    assert moments_from_free_series(empty) == moments_from_free(empty) == empty


# ---------------------------------------------------------------------------
# unified family


def test_generalized_specializes_to_classical():
    rng = random.Random(14)
    for _ in range(10):
        a = random_seq(rng, 7)
        g = MultiplierSequence.constant(1, 7)
        assert generalized_cumulants(a, g) == classical_from_moments(a)
        assert moments_from_generalized(classical_from_moments(a), g) == a


def test_generalized_barred_specializations():
    rng = random.Random(15)
    for _ in range(10):
        a = random_seq(rng, 7)
        barred = a.bar()
        g2 = MultiplierSequence.constant(2, 7)
        assert generalized_cumulants(barred, g2) == boolean_from_moments(a).bar()
        gn = MultiplierSequence.index(7)
        assert generalized_cumulants(barred, gn) == free_from_moments(a).bar()


def test_generalized_barred_examples():
    barred = seq(1, 2, 4).bar()
    assert barred == seq(1, 4, 24)
    # barred boolean cumulants of 1, 2, 4 are 1!, 2!, 3!
    assert generalized_cumulants(barred, MultiplierSequence.constant(2, 3)) == seq(1, 2, 6)
    # barred all-ones cumulants generate the barred Catalan moments
    got = moments_from_generalized(seq(1, 2, 6, 24), MultiplierSequence.index(4))
    assert got == seq(1, 4, 30, 336)


def test_generalized_round_trip_random_multipliers():
    rng = random.Random(16)
    for _ in range(5):
        a = random_seq(rng, 12)
        g_int = MultiplierSequence.from_values([rng.randint(0, 5) for _ in range(12)])
        assert moments_from_generalized(generalized_cumulants(a, g_int), g_int) == a
        g_frac = MultiplierSequence.from_values(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(12)]
        )
        assert moments_from_generalized(generalized_cumulants(a, g_frac), g_frac) == a


def test_generalized_homogeneity():
    rng = random.Random(17)
    for _ in range(10):
        a = random_seq(rng, 6)
        g = MultiplierSequence.from_values(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        )
        j = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert generalized_cumulants(a.scaled(j), g) == generalized_cumulants(a, g).scaled(j)


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        generalized_cumulants(seq(1, 2), MultiplierSequence.constant(1, 3))
    for convolve in (classical_convolve, boolean_convolve, free_convolve):
        with pytest.raises(ValueError, match="sequence order mismatch: 1 != 2"):
            convolve(seq(1), seq(1, 2))
    # g matches a, so only a and b disagree, and the message names their orders
    with pytest.raises(ValueError, match="sequence order mismatch: 2 != 3"):
        gamma_convolve(seq(1, 2), seq(1, 2, 3), MultiplierSequence.constant(1, 2))


# ---------------------------------------------------------------------------
# the two independent routes for a single generalized cumulant


def test_abel_oracle_examples():
    a = seq(1, 3)
    g = MultiplierSequence.constant(2, 2)
    assert generalized_cumulants(a, g).values[1] == 1
    assert abel_oracle(a, g, 2) == 1
    assert abel_copy_oracle(a, 2, 2) == 1
    # classical special case: third cumulant of 1, 2, 5 is 1
    a = seq(1, 2, 5)
    g = MultiplierSequence.constant(1, 3)
    assert abel_oracle(a, g, 3) == 1
    assert abel_copy_oracle(a, 1, 3) == 1


def test_abel_three_routes_agree():
    rng = random.Random(18)
    for g_value in (0, 1, 2, 3, 4):
        for _ in range(5):
            a = random_seq(rng, 6)
            g = MultiplierSequence.constant(g_value, 6)
            by_partitions = generalized_cumulants(a, g)
            for n in range(1, 7):
                assert abel_oracle(a, g, n) == by_partitions.values[n - 1]
                assert abel_copy_oracle(a, g_value, n) == by_partitions.values[n - 1]


def test_abel_three_routes_agree_index_multiplier():
    rng = random.Random(19)
    g = MultiplierSequence.index(6)
    for _ in range(5):
        a = random_seq(rng, 6)
        by_partitions = generalized_cumulants(a, g)
        for n in range(1, 7):
            assert abel_oracle(a, g, n) == by_partitions.values[n - 1]
            assert abel_copy_oracle(a, n, n) == by_partitions.values[n - 1]


def test_abel_oracle_fractional_multiplier():
    rng = random.Random(20)
    a = random_seq(rng, 5)
    g = MultiplierSequence.constant(Fraction(-3, 2), 5)
    by_partitions = generalized_cumulants(a, g)
    for n in range(1, 6):
        assert abel_oracle(a, g, n) == by_partitions.values[n - 1]


def test_abel_series_oracle_to_order_eight():
    rng = random.Random(33)
    for g_value in (0, 1, 2, 3, 4):
        a = random_seq(rng, 8)
        g = MultiplierSequence.constant(g_value, 8)
        by_partitions = generalized_cumulants(a, g)
        for n in range(1, 9):
            assert abel_oracle(a, g, n) == by_partitions.values[n - 1]
    a = random_seq(rng, 8)
    g = MultiplierSequence.index(8)
    by_partitions = generalized_cumulants(a, g)
    for n in range(1, 9):
        assert abel_oracle(a, g, n) == by_partitions.values[n - 1]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def copy_oracle_by_compositions(a: MomentSequence, k: int, n: int) -> Fraction:
    """Reference: the copy oracle's earlier form, the k-fold sum of inverse
    copies expanded over every composition of m into k parts."""
    inv = [Fraction(1)]
    for m in range(1, n):
        inv.append(-sum(math.comb(m, j) * a.moment(j) * inv[m - j] for j in range(1, m + 1)))

    def copy_sum_moment(m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        if k == 0:
            return Fraction(0)
        total = Fraction(0)
        for comp in _compositions(m, k):
            coeff = math.factorial(m)
            term = Fraction(1)
            for part in comp:
                coeff //= math.factorial(part)
                term *= inv[part]
            total += coeff * term
        return total

    return sum(
        math.comb(n - 1, j) * a.moment(j + 1) * copy_sum_moment(n - 1 - j) for j in range(n)
    )


@pytest.mark.parametrize("draw", [random_seq, wide_seq], ids=["small", "wide"])
def test_copy_oracle_matches_the_composition_expansion(draw):
    rng = random.Random(34)
    for n in range(1, 8):
        for k in range(7):
            a = draw(rng, n)
            assert abel_copy_oracle(a, k, n) == copy_oracle_by_compositions(a, k, n)


def test_copy_oracle_reaches_the_abel_form_at_twelve():
    # g_n = n at n = 12: 1,352,078 compositions for the earlier expansion
    rng = random.Random(35)
    for draw in (random_seq, wide_seq):
        a = draw(rng, 12)
        assert abel_copy_oracle(a, 12, 12) == generalized_cumulants(
            a, MultiplierSequence.index(12)
        ).values[11]


def test_abel_oracle_errors():
    a = seq(1, 2)
    g = MultiplierSequence.constant(1, 2)
    with pytest.raises(ValueError):
        abel_oracle(a, g, 3)
    with pytest.raises(ValueError):
        abel_oracle(seq(1, 2, 3), g, 3)
    with pytest.raises(ValueError):
        abel_copy_oracle(a, -1, 1)
    with pytest.raises(ValueError):
        abel_copy_oracle(a, Fraction(1, 2), 1)


def test_cumulant_matrix():
    bell = named_sequence("bell", 4)
    matrix = cumulant_matrix(bell, 4, 3)
    assert matrix.rows == 4
    assert matrix.cols == 3
    assert matrix.column(1) == classical_from_moments(bell)
    assert matrix.entry(1, 2) == 1
    assert matrix.entry(2, 2) == 0
    for k in (1, 2, 3):
        expected = generalized_cumulants(bell, MultiplierSequence.constant(k, 4))
        assert matrix.column(k) == expected
    data = matrix.to_json()
    assert data["rows"] == 4 and data["cols"] == 3
    assert data["entries"][0] == ["1", "1", "1"]
    with pytest.raises(ValueError):
        cumulant_matrix(bell, 5, 3)
    with pytest.raises(ValueError):
        cumulant_matrix(bell, 4, 0)
    # rows and columns count from 1: index 0 is refused, not read as the last one
    small = cumulant_matrix(named_sequence("u", 3), 3, 2)
    for n, k in ((0, 1), (4, 1), (-1, 1), (1, 0), (1, 3), (1, -1)):
        with pytest.raises(ValueError, match="outside 1.."):
            small.entry(n, k)
    for k in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"^column {k} outside 1\.\.2$"):
            small.column(k)
    with pytest.raises(ValueError, match=r"^row 0 outside 1\.\.3$"):
        small.entry(0, 1)


# ---------------------------------------------------------------------------
# convolutions


def test_convolve_examples():
    assert classical_convolve(seq(1, 1), seq(1, 1)) == seq(2, 4)
    a = seq(1, 2, 4, 8)
    assert boolean_convolve(a, a) == seq(2, 6, 18, 54)
    b = seq(0, 1, 0, 2)
    assert free_convolve(b, b) == seq(0, 2, 0, 8)


def test_convolve_algebra():
    rng = random.Random(21)
    eps = named_sequence("epsilon", 8)
    for conv in (classical_convolve, boolean_convolve, free_convolve):
        a = random_seq(rng, 8)
        b = random_seq(rng, 8)
        c = random_seq(rng, 8)
        assert conv(a, b) == conv(b, a)
        assert conv(conv(a, b), c) == conv(a, conv(b, c))
        assert conv(a, eps) == a


def test_gamma_convolve():
    rng = random.Random(22)
    g = MultiplierSequence.from_values(
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
    )
    a = random_seq(rng, 8)
    b = random_seq(rng, 8)
    c = random_seq(rng, 8)
    eps = named_sequence("epsilon", 8)
    assert gamma_convolve(a, b, g) == gamma_convolve(b, a, g)
    assert gamma_convolve(gamma_convolve(a, b, g), c, g) == gamma_convolve(a, gamma_convolve(b, c, g), g)
    assert gamma_convolve(a, eps, g) == a
    ones = MultiplierSequence.constant(1, 8)
    assert gamma_convolve(a, b, ones) == classical_convolve(a, b)


def test_gamma_convolve_barred_matches_boolean_and_free():
    rng = random.Random(23)
    a = random_seq(rng, 6)
    b = random_seq(rng, 6)
    g2 = MultiplierSequence.constant(2, 6)
    assert gamma_convolve(a.bar(), b.bar(), g2) == boolean_convolve(a, b).bar()
    gn = MultiplierSequence.index(6)
    assert gamma_convolve(a.bar(), b.bar(), gn) == free_convolve(a, b).bar()


def test_classical_convolve_egf_product_oracle():
    rng = random.Random(24)
    for _ in range(10):
        a = random_seq(rng, 7)
        b = random_seq(rng, 7)
        product = a.to_egf() * b.to_egf()
        assert classical_convolve(a, b) == MomentSequence.from_egf(product)


def test_semi_invariance():
    # convolving with the point mass at c moves only the first cumulant
    rng = random.Random(25)
    c = Fraction(7, 3)
    point = MomentSequence.from_values([c**n for n in range(1, 7)])
    shift = seq(c, 0, 0, 0, 0, 0)
    pairs = [
        (classical_convolve, classical_from_moments),
        (boolean_convolve, boolean_from_moments),
        (free_convolve, free_from_moments),
    ]
    for conv, to_cumulants in pairs:
        a = random_seq(rng, 6)
        shifted = to_cumulants(conv(a, point))
        expected = MomentSequence(
            tuple(x + y for x, y in zip(to_cumulants(a).values, shift.values))
        )
        assert shifted == expected


# ---------------------------------------------------------------------------
# transport between the free and boolean worlds


def test_transport_catalan():
    got = boolean_free_transport(named_sequence("catalan", 6))
    assert got == seq(-1, 0, 0, 0, 0, 0)


def test_transport_intertwines_convolutions():
    rng = random.Random(26)
    for _ in range(15):
        a = random_seq(rng, 10)
        b = random_seq(rng, 10)
        lhs = boolean_free_transport(free_convolve(a, b))
        rhs = boolean_convolve(boolean_free_transport(a), boolean_free_transport(b))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# compositions and dot operations


def test_umbral_composition_ogf_counts_compositions():
    u = named_sequence("u", 8)
    got = umbral_composition(u, u, "ogf")
    assert got == seq(*[2 ** (n - 1) for n in range(1, 9)])


def test_umbral_composition_matches_series_substitution():
    rng = random.Random(27)
    for _ in range(10):
        outer = random_seq(rng, 7)
        inner = random_seq(rng, 7)
        egf = outer.to_egf().compose(inner.to_egf() - 1)
        assert umbral_composition(outer, inner, "egf") == MomentSequence.from_egf(egf)
        ogf = outer.to_ogf().compose(inner.to_ogf() - 1)
        assert umbral_composition(outer, inner, "ogf") == MomentSequence.from_ogf(ogf)
    for flavor in ("mixed", 3):
        with pytest.raises(ValueError):
            umbral_composition(outer, inner, flavor)


def test_umbral_composition_takes_each_flavor_in_one_spelling():
    a = seq(1, 2)
    for flavor in ("EGF", "Ogf", " egf", ["egf"]):
        message = f"flavor must be 'egf' or 'ogf', got {flavor!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            umbral_composition(a, a, flavor)


def test_umbral_composition_with_mobius_sequence_gives_cumulants():
    # the sequence (-1)^(n-1) (n-1)! has EGF 1 + log(1 + t)
    rng = random.Random(28)
    mob = MomentSequence.from_values(
        [(-1) ** (n - 1) * math.factorial(n - 1) for n in range(1, 8)]
    )
    for _ in range(5):
        a = random_seq(rng, 7)
        assert umbral_composition(mob, a, "egf") == classical_from_moments(a)


def test_factorial_moments():
    assert factorial_moments(named_sequence("u", 3)) == seq(1, 0, 0)
    assert factorial_moments(named_sequence("bell", 6)) == named_sequence("u", 6)
    assert factorial_moments(seq(2, 4, 8)) == seq(2, 2, 0)
    # powers of x have factorial moments (x)_n
    x = Fraction(5)
    powers = MomentSequence.from_values([x**n for n in range(1, 5)])
    assert factorial_moments(powers) == seq(5, 20, 60, 120)


def stirling_first_table(nmax: int) -> list[list[int]]:
    """Reference: the full (nmax + 1)^2 table of signed Stirling numbers of
    the first kind, (x)_n = sum_k s(n, k) x^k, that factorial_moments once built."""
    s = [[0] * (nmax + 1) for _ in range(nmax + 1)]
    s[0][0] = 1
    for n in range(nmax):
        for k in range(nmax + 1):
            val = s[n][k - 1] if k >= 1 else 0
            s[n + 1][k] = val - n * s[n][k]
    return s


@pytest.mark.parametrize("draw", [random_seq, wide_seq], ids=["small", "wide"])
def test_factorial_moments_match_the_stirling_table(draw):
    rng = random.Random(36)
    s = stirling_first_table(30)
    for order in (1, 2, 7, 30):
        a = draw(rng, order)
        expected = [sum(s[n][k] * a.moment(k) for k in range(1, n + 1)) for n in range(1, order + 1)]
        assert factorial_moments(a) == MomentSequence.from_values(expected)


def test_dot_operation_identity_and_bell():
    rng = random.Random(29)
    a = random_seq(rng, 7)
    u = named_sequence("u", 7)
    assert dot_operation(u, a) == a
    bell = named_sequence("bell", 7)
    assert dot_operation(bell, a) == moments_from_classical(a)


def test_dot_operation_chi_gives_cumulants():
    rng = random.Random(30)
    a = random_seq(rng, 7)
    chi = named_sequence("chi", 7)
    assert dot_operation(chi, a) == classical_from_moments(a)
    mob = MomentSequence.from_values(
        [(-1) ** (n - 1) * math.factorial(n - 1) for n in range(1, 8)]
    )
    assert dot_operation(chi, chi) == mob.truncated(7)


def test_dot_operation_integer_points_give_repeated_convolution():
    rng = random.Random(31)
    a = random_seq(rng, 6)
    for k in (2, 3):
        powers = MomentSequence.from_values([Fraction(k) ** n for n in range(1, 7)])
        expected = a
        for _ in range(k - 1):
            expected = classical_convolve(expected, a)
        assert dot_operation(powers, a) == expected


def test_dot_operation_series_oracle():
    rng = random.Random(32)
    for _ in range(10):
        gamma = random_seq(rng, 7)
        a = random_seq(rng, 7)
        egf = factorial_moments(gamma).to_egf().compose(a.to_egf() - 1)
        assert dot_operation(gamma, a) == MomentSequence.from_egf(egf)


def test_closed_form_anchors():
    # identities that share no code with the shape sums or the series layer:
    # Poisson (Bell) and semicircle (Catalan) moments, the constant-one
    # sequence, the paper's Abel form, and a point mass
    N = 16
    bells, row = [], [1]
    for _ in range(N):  # Bell triangle: each row starts with the last entry of the one before
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        bells.append(row[0])  # B_1..B_N
    catalan = [1]  # C_0..C_N
    for n in range(N):
        catalan.append(catalan[-1] * 2 * (2 * n + 1) // (n + 2))
    u = MomentSequence.constant(1, N)
    chi = seq(1, *[0] * (N - 1))
    assert classical_from_moments(seq(*bells)) == u
    assert free_from_moments(seq(*catalan[1:])) == u
    assert boolean_from_moments(seq(*catalan[1:])) == seq(*catalan[:-1])
    assert moments_from_classical(u) == seq(*bells)
    assert moments_from_free(u) == seq(*catalan[1:])
    assert moments_from_boolean(u) == seq(*[2 ** (n - 1) for n in range(1, N + 1)])
    point = u.scaled(Fraction(-3, 2))
    for m2c in (classical_from_moments, free_from_moments, boolean_from_moments):
        assert m2c(u) == chi, m2c.__name__
        assert m2c(point) == seq(Fraction(-3, 2), *[0] * (N - 1)), m2c.__name__
    for k in range(5):
        expected = seq(*[(1 - k) ** (n - 1) for n in range(1, N + 1)])
        assert generalized_cumulants(u, MultiplierSequence.constant(k, N)) == expected, k
    abel = seq(*[(1 - n) ** (n - 1) for n in range(1, N + 1)])
    assert generalized_cumulants(u, MultiplierSequence.index(N)) == abel
