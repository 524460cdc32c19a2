"""Incidence-algebra convolutions, Moebius recursions, and theorem checks."""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction
from itertools import product

import pytest

from cumulants.lattice import (
    SUITES,
    MultiplicativeFunction,
    _elements,
    convolve_lattice,
    eval_interval,
    mobius_by_recursion,
    mobius_function,
    verify_theorem,
)
from cumulants.parking import (
    enumerate_parking,
    orbit_moment_eval,
    volume_bruteforce_symmetric,
    volume_shape_eval,
)
from cumulants.partitions import (
    Lattice,
    SetPartition,
    _kreweras_blocks,
    integer_partitions,
    interval_partitions,
    kreweras_complement,
    leq_refinement,
    noncrossing_partitions,
    set_partitions,
    single_block,
    singletons,
)
from cumulants.series import LIMITS, TruncatedSeries
from cumulants.transforms import (
    MomentSequence,
    MultiplierSequence,
    abel_copy_oracle,
    abel_oracle,
    boolean_from_moments,
    classical_from_moments,
    free_from_moments,
    moments_from_boolean,
    moments_from_classical,
    cumulant_matrix,
    moments_from_free,
    named_sequence,
)

BELL = [1, 2, 5, 15, 52, 203, 877]
CATALAN = [1, 2, 5, 14, 42, 132, 429]
ENUMERATE = {
    Lattice.ALL: set_partitions,
    Lattice.NC: noncrossing_partitions,
    Lattice.INTERVAL: interval_partitions,
}
LATTICE_CAPS = {lattice: LIMITS[lattice.value] for lattice in Lattice}


def random_seq(rng: random.Random, order: int) -> MomentSequence:
    return MomentSequence.from_values(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
    )


def test_multiplicative_function_basics():
    f = MultiplicativeFunction.from_values([2, 3, 5])
    assert f.f(2) == 3
    pi = SetPartition.from_blocks(3, [[1, 2], [3]])
    assert f.on_partition(pi) == 6
    assert MultiplicativeFunction.zeta(3).on_partition(pi) == 1
    assert MultiplicativeFunction.delta(4).values == (1, 0, 0, 0)
    assert MultiplicativeFunction.mobius(4).values == (1, -1, 2, -6)


def test_eval_interval():
    f = MultiplicativeFunction.from_values([2, 3, 5, 7])
    bottom = singletons(4)
    pi = SetPartition.from_blocks(4, [[1, 2], [3, 4]])
    assert eval_interval(f, bottom, pi) == 9
    assert eval_interval(f, pi, single_block(4)) == 3
    mu = MultiplicativeFunction.mobius(3)
    assert eval_interval(mu, singletons(3), single_block(3)) == 2


def test_convolve_zeta_squared_counts_elements():
    zeta = MultiplicativeFunction.zeta(12)
    for n in range(1, 8):
        assert convolve_lattice(zeta, zeta, n, Lattice.ALL) == BELL[n - 1]
        assert convolve_lattice(zeta, zeta, n, Lattice.NC) == CATALAN[n - 1]
    for n in range(1, 13):
        assert convolve_lattice(zeta, zeta, n, Lattice.INTERVAL) == 2 ** (n - 1)


def test_convolve_bounds_and_order_checks():
    zeta = MultiplicativeFunction.zeta(20)
    for lattice, limit in LATTICE_CAPS.items():
        with pytest.raises(ValueError):
            convolve_lattice(zeta, zeta, limit + 1, lattice)
        with pytest.raises(ValueError):
            convolve_lattice(zeta, zeta, 0, lattice)
    short = MultiplicativeFunction.zeta(2)
    with pytest.raises(ValueError):
        convolve_lattice(short, zeta, 3, Lattice.ALL)
    # the shorter of the two functions bounds n, in either position
    three = MultiplicativeFunction.zeta(3)
    for f, g in ((three, zeta), (zeta, three), (three, three)):
        with pytest.raises(ValueError) as info:
            convolve_lattice(f, g, 4, Lattice.NC)
        assert str(info.value) == "convolutions of these functions need 1 <= n <= 3"


def test_unknown_lattice_is_a_value_error():
    zeta = MultiplicativeFunction.zeta(3)
    for call in (
        lambda: convolve_lattice(zeta, zeta, 3, "nc"),
        lambda: mobius_by_recursion(3, "nc"),
        lambda: mobius_function(3, "nc"),
        lambda: mobius_function(0, "nc"),
    ):
        with pytest.raises(ValueError, match="unknown lattice: 'nc'"):
            call()


def _draw(rng: random.Random, order: int, digits: int) -> MultiplicativeFunction:
    """Small p/q (digits 0) or coprime p/q of the given digits, one of them set to 0."""
    values = []
    for _ in range(order):
        if not digits:
            values.append(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            continue
        p, q = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        while math.gcd(p, q) != 1:
            q = rng.randrange(10 ** (digits - 1), 10**digits)
        values.append(Fraction(rng.choice((-1, 1)) * p, q))
    values[rng.randrange(order)] = Fraction(0)
    return MultiplicativeFunction.from_values(values)


def test_convolve_matches_per_block_reference():
    # the literal sum with one Fraction product per block, on both sides
    for seed, digits in ((46, 0), (47, 40)):
        rng = random.Random(seed)
        for lattice, limit in LATTICE_CAPS.items():
            f, g = _draw(rng, limit, digits), _draw(rng, limit, digits)
            for n in range(1, limit + 1):
                expected = Fraction(0)
                for tau in ENUMERATE[lattice](n):
                    if lattice is Lattice.NC:
                        upper = g.on_partition(kreweras_complement(tau))
                    else:
                        upper = g.f(tau.length)
                    expected += f.on_partition(tau) * upper
                assert convolve_lattice(f, g, n, lattice) == expected


def test_delta_is_identity():
    rng = random.Random(40)
    f = MultiplicativeFunction.from_sequence(random_seq(rng, 6))
    delta = MultiplicativeFunction.delta(6)
    for lattice in (Lattice.ALL, Lattice.NC, Lattice.INTERVAL):
        for n in range(1, 7):
            assert convolve_lattice(delta, f, n, lattice) == f.f(n)
            assert convolve_lattice(f, delta, n, lattice) == f.f(n)


def test_mobius_recursion_values():
    for n in range(1, 7):
        assert mobius_by_recursion(n, Lattice.ALL) == (-1) ** (n - 1) * math.factorial(n - 1)
    assert mobius_by_recursion(7, Lattice.ALL) == 720
    nc_values = [1, -1, 2, -5, 14, -42, 132]
    for n in range(1, 8):
        assert mobius_by_recursion(n, Lattice.NC) == nc_values[n - 1]
    for n in range(1, 13):
        assert mobius_by_recursion(n, Lattice.INTERVAL) == (-1) ** (n - 1)


def _mobius_by_scan(n: int, lattice: Lattice) -> Fraction:
    """The defining recursion with every lower ideal found by testing all
    |L|^2 pairs for refinement."""
    elements = sorted(ENUMERATE[lattice](n), key=lambda p: -p.length)
    mu = {}
    for pi in elements:
        if pi == singletons(n):
            mu[pi] = Fraction(1)
            continue
        mu[pi] = -sum(mu[tau] for tau in elements if tau != pi and leq_refinement(tau, pi))
    return mu[single_block(n)]


def test_mobius_recursion_matches_pair_scan():
    for lattice in (Lattice.ALL, Lattice.NC, Lattice.INTERVAL):
        for n in range(1, 7):
            assert mobius_by_recursion(n, lattice) == _mobius_by_scan(n, lattice)
    for n in (7, 8, 9):
        assert mobius_by_recursion(n, Lattice.INTERVAL) == _mobius_by_scan(n, Lattice.INTERVAL)
    assert isinstance(mobius_by_recursion(5, Lattice.NC), Fraction)


def test_lower_intervals_are_products_over_blocks():
    # the premise of the recursion: [0_n, tau] is the product, over tau's
    # blocks, of the same-kind partitions of each block
    for lattice, enumerate_ in ENUMERATE.items():
        for n in range(1, 7):
            elements = enumerate_(n)
            for tau in elements:
                scanned = {sigma for sigma in elements if leq_refinement(sigma, tau)}
                relabelled = [
                    [[[block[x - 1] for x in b] for b in p.blocks] for p in enumerate_(len(block))]
                    for block in tau.blocks
                ]
                generated = {
                    SetPartition.from_blocks(n, [b for part in parts for b in part])
                    for parts in product(*relabelled)
                }
                assert scanned == generated


def test_mobius_inverts_zeta():
    mu = MultiplicativeFunction.mobius(7)
    zeta = MultiplicativeFunction.zeta(7)
    assert convolve_lattice(mu, zeta, 2, Lattice.ALL) == 0
    for n in range(1, 8):
        expected = Fraction(1 if n == 1 else 0)
        assert convolve_lattice(mu, zeta, n, Lattice.ALL) == expected
        assert convolve_lattice(zeta, mu, n, Lattice.ALL) == expected
    mu_i = mobius_function(8, Lattice.INTERVAL)
    zeta8 = MultiplicativeFunction.zeta(8)
    for n in range(1, 9):
        expected = Fraction(1 if n == 1 else 0)
        assert convolve_lattice(mu_i, zeta8, n, Lattice.INTERVAL) == expected
    mu_nc = mobius_function(6, Lattice.NC)
    zeta6 = MultiplicativeFunction.zeta(6)
    for n in range(1, 7):
        expected = Fraction(1 if n == 1 else 0)
        assert convolve_lattice(mu_nc, zeta6, n, Lattice.NC) == expected


def test_classical_transforms_as_full_lattice_convolutions():
    rng = random.Random(41)
    a = random_seq(rng, 7)
    c = classical_from_moments(a)
    m_mf = MultiplicativeFunction.from_sequence(a)
    c_mf = MultiplicativeFunction.from_sequence(c)
    mu = MultiplicativeFunction.mobius(7)
    zeta = MultiplicativeFunction.zeta(7)
    for n in range(1, 8):
        assert convolve_lattice(m_mf, mu, n, Lattice.ALL) == c.values[n - 1]
        assert convolve_lattice(c_mf, zeta, n, Lattice.ALL) == a.values[n - 1]
    assert moments_from_classical(c) == a


def test_boolean_transforms_as_interval_convolutions():
    rng = random.Random(42)
    a = random_seq(rng, 8)
    h = boolean_from_moments(a)
    m_mf = MultiplicativeFunction.from_sequence(a)
    h_mf = MultiplicativeFunction.from_sequence(h)
    mu_i = mobius_function(8, Lattice.INTERVAL)
    zeta = MultiplicativeFunction.zeta(8)
    for n in range(1, 9):
        assert convolve_lattice(m_mf, mu_i, n, Lattice.INTERVAL) == h.values[n - 1]
        assert convolve_lattice(h_mf, zeta, n, Lattice.INTERVAL) == a.values[n - 1]
    assert moments_from_boolean(h) == a


def test_free_transforms_as_noncrossing_convolutions():
    rng = random.Random(43)
    a = random_seq(rng, 6)
    r = free_from_moments(a)
    m_mf = MultiplicativeFunction.from_sequence(a)
    r_mf = MultiplicativeFunction.from_sequence(r)
    mu_nc = mobius_function(6, Lattice.NC)
    zeta = MultiplicativeFunction.zeta(6)
    for n in range(1, 7):
        assert convolve_lattice(m_mf, mu_nc, n, Lattice.NC) == r.values[n - 1]
        assert convolve_lattice(r_mf, zeta, n, Lattice.NC) == a.values[n - 1]
    assert moments_from_free(r) == a


def test_noncrossing_convolution_commutes():
    rng = random.Random(44)
    f = MultiplicativeFunction.from_sequence(random_seq(rng, 6))
    g = MultiplicativeFunction.from_sequence(random_seq(rng, 6))
    for n in range(1, 7):
        assert convolve_lattice(f, g, n, Lattice.NC) == convolve_lattice(g, f, n, Lattice.NC)


def test_verify_theorem_reports():
    for which in ("T1", "T2", "T3", "COMMUTATIVITY"):
        for n in (1, 3, 6):
            report = verify_theorem(n, which, seed=5)
            assert report["theorem"] == which
            assert report["n"] == n
            assert report["pass"] is True
            assert report["checked"] >= 1
            assert "counterexample" not in report
    with pytest.raises(ValueError):
        verify_theorem(7, "T1")
    with pytest.raises(ValueError):
        verify_theorem(3, "T9")
    with pytest.raises(ValueError, match="^unknown theorem 5$"):
        verify_theorem(3, 5)


def free_cumulant_ogf(values) -> TruncatedSeries:
    seq = MomentSequence.from_values(values)
    return free_from_moments(seq).to_ogf()


def test_fourier_transform_is_multiplicative():
    # shift a unital multiplicative function to a moment sequence by
    # a_k = f_{k+1}; noncrossing convolution then multiplies the free
    # cumulant generating polynomials of the shifted sequences
    rng = random.Random(45)
    order = 5
    for _ in range(10):
        f_vals = [Fraction(1)] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)
        ]
        g_vals = [Fraction(1)] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)
        ]
        f = MultiplicativeFunction.from_values(f_vals)
        g = MultiplicativeFunction.from_values(g_vals)
        h_vals = [convolve_lattice(f, g, n, Lattice.NC) for n in range(1, order + 2)]
        assert h_vals[0] == 1
        r_f = free_cumulant_ogf(f_vals[1:])
        r_g = free_cumulant_ogf(g_vals[1:])
        r_h = free_cumulant_ogf(h_vals[1:])
        assert r_h == r_f * r_g


def test_fourier_zeta_squared_gives_catalan():
    zeta = MultiplicativeFunction.zeta(7)
    h_vals = [convolve_lattice(zeta, zeta, n, Lattice.NC) for n in range(1, 7)]
    assert h_vals == CATALAN[:6]
    r_h = free_cumulant_ogf(h_vals[1:])
    square = TruncatedSeries(5, [1, 2, 1, 0, 0, 0])
    assert r_h == square
    ones = named_sequence("u", 5)
    assert free_from_moments(ones).to_ogf() == TruncatedSeries(5, [1, 1, 0, 0, 0, 0])


def test_sizes_must_be_plain_integers():
    # True == 1 and 3.0 == 3 pass a bare range check; every entry point
    # refuses them through the one size rule, with its own range message
    f = MultiplicativeFunction.zeta(3)
    u = MomentSequence.constant(1, 3)
    cases = [
        (set_partitions, "set partition enumeration supports 1 <= n <= 11"),
        (noncrossing_partitions, "noncrossing enumeration supports 1 <= n <= 12"),
        (interval_partitions, "interval partition enumeration supports 1 <= n <= 16"),
        (enumerate_parking, "parking enumeration supports 1 <= n <= 7"),
        (lambda n: volume_bruteforce_symmetric(u, n), "brute-force volume supports 1 <= n <= 7"),
        (
            lambda n: mobius_by_recursion(n, Lattice.NC),
            "nc lattice computations support 1 <= n <= 7",
        ),
        (
            lambda n: convolve_lattice(f, f, n, Lattice.ALL),
            "all lattice computations support 1 <= n <= 7",
        ),
        (lambda n: verify_theorem(n, "T2"), "theorem checks support 1 <= n <= 6"),
    ]
    for call, message in cases:
        for n in (True, 2.0, 3.0, "3"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(n)
        call(2)


_U3 = MomentSequence.constant(1, 3)


@pytest.mark.parametrize(
    "call, least",
    [
        (integer_partitions, 0),
        (lambda n: volume_shape_eval(_U3, n), 1),
        (lambda n: orbit_moment_eval(_U3, n), 1),
        (lambda n: abel_oracle(_U3, MultiplierSequence.constant(1, 3), n), 1),
        (lambda n: abel_copy_oracle(_U3, 2, n), 1),
        (lambda n: abel_copy_oracle(_U3, n, 1), 0),
        (lambda n: cumulant_matrix(_U3, n, 2), 1),
        (lambda n: cumulant_matrix(_U3, 2, n), 1),
    ],
    ids=[
        "integer_partitions", "volume_shape_eval", "orbit_moment_eval", "abel_oracle",
        "abel_copy_oracle", "abel_copy_oracle-k", "cumulant_matrix-nmax", "cumulant_matrix-kmax",
    ],
)
def test_degrees_take_the_size_rule(call, least):
    # degrees go through the same rule as sizes: True and 2.0 are refused
    # with a ValueError, not read as 1 or left to fail with a TypeError
    for n in (True, False, 2.0, "2", least - 1):
        with pytest.raises(ValueError, match=rf"^.* {least} <= n <= \S+$"):
            call(n)
    call(least)
    call(2)


def test_every_suite_record_counts_its_cases():
    # every record comes from one rule, so each reports how many pairs it compared
    for name, (_, suite) in SUITES.items():
        for n in range(1, 4):
            for check in suite(n, 0):
                assert isinstance(check["name"], str) and check["pass"] is True, (name, n)
                checked = check["checked"]
                assert type(checked) is int and checked >= 1, (name, n, check["name"])


def test_verify_theorem_refuses_a_seed_that_is_not_an_int():
    # a counterexample's seed must replay with ``cumulants verify --seed``, which takes an int
    for seed in ("x", 1.5, True):
        message = f"seed must be an integer, not {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_theorem(3, "T1", seed=seed)


def test_verify_theorem_takes_each_name_in_one_spelling():
    for which in ("t1", "T2 ", "Commutativity", b"T3"):
        with pytest.raises(ValueError, match=f"^unknown theorem {re.escape(repr(which))}$"):
            verify_theorem(3, which)


def test_oracles_and_public_enumerations_list_the_same_lattices():
    # the oracles read bare block tuples; the public functions wrap the same ones, in order
    for lattice, limit in LATTICE_CAPS.items():
        for n in range(1, limit + 1):
            assert _elements(n, lattice) == tuple(p.blocks for p in ENUMERATE[lattice](n))
    for n in range(1, 8):
        for p in noncrossing_partitions(n):
            assert _kreweras_blocks(n, p.blocks) == kreweras_complement(p).blocks


def _entered(thunk, watched) -> set:
    """Names of the watched functions that one call of thunk runs, from a cold lattice cache."""
    _elements.cache_clear()
    names = {fn.__code__: fn.__qualname__ for fn in watched}
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen.add(names[frame.f_code])

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(outer)
    return seen


def test_lattice_oracles_build_no_set_partition():
    # a tracked object per element is what the cyclic collector rescans; the oracles use tuples
    watched = (SetPartition.__init__, SetPartition.bulk, kreweras_complement)
    assert _entered(lambda: kreweras_complement(singletons(3)), watched) == {
        "SetPartition.__init__", "kreweras_complement",
    }
    assert _entered(lambda: noncrossing_partitions(3), watched) == {"SetPartition.bulk"}
    zeta = MultiplicativeFunction.zeta(12)
    calls = {
        "mobius NC(7)": lambda: mobius_by_recursion(7, Lattice.NC),
        "convolve NC(7)": lambda: convolve_lattice(zeta, zeta, 7, Lattice.NC),
        "convolve ALL(7)": lambda: convolve_lattice(zeta, zeta, 7, Lattice.ALL),
        "convolve INTERVAL(12)": lambda: convolve_lattice(zeta, zeta, 12, Lattice.INTERVAL),
        "T2 at n = 6": lambda: verify_theorem(6, "T2"),
    }
    for name, call in calls.items():
        assert not _entered(call, watched), name
