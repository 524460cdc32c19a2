"""Truncated series arithmetic against hand-expanded and classical values."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from cumulants.lattice import MultiplicativeFunction, mobius_function
from cumulants.partitions import Lattice
from cumulants.series import DomainError, TruncatedSeries, as_fraction
from cumulants.transforms import MomentSequence, named_sequence


def F(x) -> Fraction:
    return Fraction(x)


def random_series(rng, order, constant=None, linear=None):
    coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = F(constant)
    if linear is not None:
        coeffs[1] = F(linear)
    return TruncatedSeries(order, coeffs)


ORDER_TAKERS = {
    "named_sequence": lambda order: named_sequence("u", order),
    "constant": lambda order: MomentSequence.constant(1, order),
    "index": MomentSequence.index,
    "truncated": lambda order: MomentSequence.constant(1, 3).truncated(order),
    "TruncatedSeries": lambda order: TruncatedSeries(order, [1]),
    "power": lambda exponent: TruncatedSeries(2, [1, 1]).power(exponent),
    "delta": MultiplicativeFunction.delta,
    "mobius": MultiplicativeFunction.mobius,
    "mobius_function": lambda order: mobius_function(order, Lattice.NC),
}


@pytest.mark.parametrize(
    "taker, order, message",
    [
        (name, order, f"order must be an integer, not {order!r}")
        for name in ORDER_TAKERS if name != "power"
        for order in (True, False, 2.0, "2")
    ]
    + [("power", flag, f"exponent must be a number, not {flag}") for flag in (True, False)]
    + [
        ("named_sequence", -1, "order must be nonnegative"),
        ("constant", -1, "order must be nonnegative"),
        ("index", -1, "order must be nonnegative"),
        ("TruncatedSeries", -1, "order must be nonnegative"),
        ("delta", -1, "order must be nonnegative"),
        ("mobius", -1, "order must be nonnegative"),
        ("mobius_function", -1, "order must be nonnegative"),
        ("truncated", -1, "cannot truncate order 3 to -1"),
    ],
)
def test_orders_are_plain_integers(taker, order, message):
    with pytest.raises(ValueError) as info:
        ORDER_TAKERS[taker](order)
    assert str(info.value).endswith(message)  # truncated says "truncation order"


def test_constructor_pads_and_validates():
    s = TruncatedSeries(3, [1, 2])
    assert s.coeffs == (F(1), F(2), F(0), F(0))
    with pytest.raises(ValueError):
        TruncatedSeries(1, [1, 2, 3])
    with pytest.raises(ValueError):
        TruncatedSeries(-1, [])
    with pytest.raises(TypeError):
        TruncatedSeries(1, [0.5, 1])
    # t truncated at t^0 is zero
    assert TruncatedSeries.identity(0) == TruncatedSeries(0, [0])
    assert TruncatedSeries.identity(1) == TruncatedSeries(1, [0, 1])


def test_add_and_order_mismatch():
    a = TruncatedSeries(2, [1, 2, 3])
    b = TruncatedSeries(2, [0, 1, 1])
    assert (a + b).coeffs == (F(1), F(3), F(4))
    assert (a - b).coeffs == (F(1), F(1), F(2))
    with pytest.raises(ValueError):
        a + TruncatedSeries(3, [1])
    assert (a + 1).coeffs == (F(2), F(2), F(3))
    assert (1 - a).coeffs == (F(0), F(-2), F(-3))


def test_mul_truncates():
    one_plus_t = TruncatedSeries(3, [1, 1])
    one_minus_t = TruncatedSeries(3, [1, -1])
    assert (one_plus_t * one_minus_t).coeffs == (F(1), F(0), F(-1), F(0))
    geom = TruncatedSeries(3, [1, 1, 1, 1])
    assert (geom * one_minus_t).coeffs == (F(1), F(0), F(0), F(0))
    assert (geom * geom).coeffs == (F(1), F(2), F(3), F(4))
    assert (geom * 2).coeffs == (F(2), F(2), F(2), F(2))


def test_reciprocal_examples():
    one_minus_t = TruncatedSeries(4, [1, -1])
    assert one_minus_t.reciprocal().coeffs == (F(1), F(1), F(1), F(1), F(1))
    flat = TruncatedSeries(4, [1, 1, 1, 1, 1])
    assert flat.reciprocal().coeffs == (F(1), F(-1), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        TruncatedSeries(3, [0, 1]).reciprocal()


def test_reciprocal_random_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randint(0, 16)
        f = random_series(rng, order, constant=rng.choice([1, -1, 2, Fraction(3, 2)]))
        assert (f * f.reciprocal()).coeffs == TruncatedSeries.constant(1, order).coeffs


def test_compose_requires_delta():
    f = TruncatedSeries(3, [1, 1])
    with pytest.raises(ValueError):
        f.compose(TruncatedSeries(3, [1, 1]))
    with pytest.raises(ValueError):
        f.compose(TruncatedSeries(2, [0, 1]))


def test_compose_bell_generating_function():
    # substituting e^t - 1 into e^s produces the Bell number EGF
    n = 4
    exp = TruncatedSeries(n, [Fraction(1, math.factorial(k)) for k in range(n + 1)])
    delta = exp - 1
    bell_egf = exp.compose(delta)
    moments = [math.factorial(k) * bell_egf.coeffs[k] for k in range(n + 1)]
    assert moments == [F(1), F(1), F(2), F(5), F(15)]


def test_compose_reciprocal_geometric_inverse():
    # 1 + s/(1+s) composed with e^t - 1 gives 2 - e^{-t}
    for n in (4, 12):
        t_over = TruncatedSeries(n, [0, 1]) * TruncatedSeries(n, [1, 1]).reciprocal()
        f = t_over + 1
        exp = TruncatedSeries(n, [Fraction(1, math.factorial(k)) for k in range(n + 1)])
        result = f.compose(exp - 1)
        expected = [F(1)] + [
            -Fraction((-1) ** k, math.factorial(k)) for k in range(1, n + 1)
        ]
        assert list(result.coeffs) == expected


def test_revert_examples():
    t = TruncatedSeries(5, [0, 1])
    assert t.revert() == t
    # t/(1-t) reverts to t/(1+t)
    f = t * TruncatedSeries(5, [1, -1]).reciprocal()
    assert f.revert().coeffs == (F(0), F(1), F(-1), F(1), F(-1), F(1))
    with pytest.raises(ValueError):
        TruncatedSeries(3, [0, 0, 1]).revert()
    with pytest.raises(ValueError):
        TruncatedSeries(3, [1, 1]).revert()


def test_revert_at_order_zero():
    # an order-0 series has no linear coefficient: identity(0) is its own inverse
    zero = TruncatedSeries.identity(0)
    assert zero.revert() == zero == zero.compose(zero)
    with pytest.raises(ValueError, match="^reversion requires a delta series$"):
        TruncatedSeries(0, [1]).revert()
    with pytest.raises(ValueError, match="^no compositional inverse: linear coefficient is zero$"):
        TruncatedSeries(1, [0, 0]).revert()


def test_revert_is_two_sided_inverse():
    rng = random.Random(11)
    t = None
    for _ in range(20):
        order = rng.randint(1, 16)
        d = random_series(rng, order, constant=0, linear=rng.choice([1, -1, 2, Fraction(1, 3)]))
        w = d.revert()
        t = TruncatedSeries.identity(order)
        assert d.compose(w) == t
        assert w.compose(d) == t


def _lagrange_coefficients(d: TruncatedSeries) -> list[Fraction]:
    """[t^k] of the reversion via (1/k) [t^{k-1}] (t/d)^k; independent oracle.

    The powers of t/d are a running product, since `revert` runs `power`.
    """
    n = d.order
    inverse = TruncatedSeries(n, d.coeffs[1:]).reciprocal()  # t/d(t)
    powered = TruncatedSeries.constant(1, n)
    out = [Fraction(0)]
    for k in range(1, n + 1):
        powered = powered * inverse
        out.append(powered.coeffs[k - 1] / k)
    return out


def test_revert_matches_lagrange_inversion():
    rng = random.Random(23)
    for _ in range(10):
        order = rng.randint(1, 10)
        d = random_series(rng, order, constant=0, linear=rng.choice([1, 2, Fraction(-1, 2)]))
        assert list(d.revert().coeffs) == _lagrange_coefficients(d)


def _revert_by_composition(d: TruncatedSeries) -> TruncatedSeries:
    """Solve d(w(t)) = t one coefficient at a time: the t^m equation is
    linear in w_m once w_1..w_{m-1} are known."""
    n = d.order
    w = [Fraction(0)] * (n + 1)
    w[1] = 1 / d.coeffs[1]
    for m in range(2, n + 1):
        residue = d.compose(TruncatedSeries(n, w)).coeffs[m]
        w[m] = -residue / d.coeffs[1]
    return TruncatedSeries(n, w)


def test_revert_matches_coefficientwise_solution():
    rng = random.Random(29)
    orders = [rng.randint(1, 16) for _ in range(12)] + [22]
    for order in orders:
        d = random_series(rng, order, constant=0, linear=rng.choice([1, -3, Fraction(2, 5)]))
        assert d.revert() == _revert_by_composition(d)


def test_revert_past_order_29_gives_the_catalan_numbers():
    # t - t^2 = t (1 - t) reverts to t C(t) = sum C_(m-1) t^m, C the Catalan
    # generating function (1 - sqrt(1 - 4t)) / 2t; the closed form shares no code with revert
    w = TruncatedSeries(40, [0, 1, -1]).revert()
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(40)]
    assert w.coeffs == (0, *catalan)


def test_log_exp():
    n = 6
    exp = TruncatedSeries(n, [Fraction(1, math.factorial(k)) for k in range(n + 1)])
    t = TruncatedSeries.identity(n)
    assert exp.log() == t
    assert t.exp() == exp
    with pytest.raises(ValueError):
        TruncatedSeries(2, [2, 1]).log()
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 1]).exp()


def test_log_exp_random_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        order = rng.randint(0, 14)
        f = random_series(rng, order, constant=1)
        assert f.log().exp() == f
        d = random_series(rng, order, constant=0)
        assert d.exp().log() == d


def _repeated_product(f: TruncatedSeries, count: int) -> TruncatedSeries:
    """f * f * ... * f, count factors, by plain multiplication."""
    acc = TruncatedSeries.constant(1, f.order)
    for _ in range(count):
        acc = acc * f
    return acc


def test_power():
    n = 6
    geom = TruncatedSeries(n, [1] * (n + 1))
    assert geom.power(3) == geom * geom * geom
    assert geom.power(0) == TruncatedSeries.constant(1, n)
    assert geom.power(-2) * _repeated_product(geom, 2) == TruncatedSeries.constant(1, n)
    rng = random.Random(5)
    f = random_series(rng, n, constant=1)
    half = f.power(Fraction(1, 2))
    assert half * half == f
    assert f.power(Fraction(2)) == f * f
    # against routes that share no step with the recurrence: repeated products,
    # the inverse identity f^-e f^e = 1 and exp(e log f), on seeded small and
    # 40-digit rationals
    for top, den in ((6, 4), (10**40, 10**40)):
        rng = random.Random(top)
        for order in range(11):
            tail = [Fraction(rng.randint(-top, top), rng.randint(1, den)) for _ in range(order)]
            f = TruncatedSeries(order, [Fraction(rng.randint(1, top), rng.randint(1, den))] + tail)
            for e in range(7):
                assert f.power(e) == _repeated_product(f, e), (order, e)
            one = TruncatedSeries.constant(1, order)
            for e in range(1, 5):
                assert f.power(-e) * _repeated_product(f, e) == one, (order, -e)
            unit = TruncatedSeries(order, [1] + tail)
            for e in (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
                assert unit.power(e) == (unit.log() * e).exp(), (order, e)
            # a zero constant term: t^v g with g_0 != 0, v up to past the order
            for v in range(1, order + 2):
                shifted = TruncatedSeries(order, ([0] * v + list(f.coeffs))[: order + 1])
                for e in range(7):
                    assert shifted.power(e) == _repeated_product(shifted, e), (order, v, e)
    zero, one = TruncatedSeries(4), TruncatedSeries.constant(1, 4)
    assert zero.power(0) == one and zero.power(3) == zero
    t2 = TruncatedSeries(4, [0, 0, 1, 5])
    assert t2.power(0) == one
    assert t2.power(2) == TruncatedSeries(4, [0, 0, 0, 0, 1])
    assert t2.power(3) == zero  # v e = 6 > N = 4
    assert TruncatedSeries(0, [0]).power(1) == TruncatedSeries(0)
    for coeffs, exponent, message in [
        ([1, 1], True, "exponent must be a number, not True"),
        ([2, 1], Fraction(1, 2), "fractional power requires constant term 1"),
        ([0, 1], Fraction(-5, 3), "fractional power requires constant term 1"),
        ([0, 1], -1, "series with zero constant term has no reciprocal"),
        ([0, 0], Fraction(-4, 2), "series with zero constant term has no reciprocal"),
    ]:
        with pytest.raises(ValueError) as info:
            TruncatedSeries(3, coeffs).power(exponent)
        assert str(info.value) == message
        # a bool exponent breaks an argument rule; the other four lie outside the domain
        assert type(info.value) is (ValueError if exponent is True else DomainError)


def test_json_roundtrip():
    s = TruncatedSeries(3, [1, Fraction(-1, 2), 0, Fraction(7, 3)])
    data = s.to_json()
    assert data == {"order": 3, "coeffs": ["1", "-1/2", "0", "7/3"]}
    assert TruncatedSeries.from_json(data) == s
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"order": 2, "coeffs": ["1"]})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"coeffs": ["1"]})


def test_booleans_are_not_exact_values():
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        TruncatedSeries(1, [0, True])
    with pytest.raises(ValueError, match="'order'"):
        TruncatedSeries.from_json({"order": True, "coeffs": ["0", "1"]})
    with pytest.raises(ValueError, match="'coeffs'"):
        TruncatedSeries.from_json({"order": 1, "coeffs": [False, True]})


# the full text of each JSON reader's error, on the same five faults
JSON_ERRORS = [
    (TruncatedSeries, {"order": 1}, "series JSON needs 'order' and 'coeffs': 'coeffs'"),
    (TruncatedSeries, {"order": True, "coeffs": ["0", "1"]},
     "series 'order' must be an integer, not True"),
    (TruncatedSeries, {"order": 1, "coeffs": "01"}, "series 'coeffs' must be a JSON array"),
    (TruncatedSeries, {"order": 1, "coeffs": ["0", 0.5]},
     "series 'coeffs': cannot use 0.5 as an exact coefficient"),
    (TruncatedSeries, {"order": 3, "coeffs": ["1"]}, "coefficient count 1 does not match order 3"),
    (MomentSequence, {"order": 1}, "sequence JSON needs 'order' and 'values': 'values'"),
    (MomentSequence, {"order": True, "values": ["1"]},
     "sequence 'order' must be an integer, not True"),
    (MomentSequence, {"order": 1, "values": "1"}, "sequence 'values' must be a JSON array"),
    (MomentSequence, {"order": 1, "values": [0.5]},
     "sequence 'values': cannot use 0.5 as an exact coefficient"),
    (MomentSequence, {"order": 3, "values": ["1"]}, "value count 1 does not match order 3"),
]


@pytest.mark.parametrize("cls, data, text", JSON_ERRORS)
def test_json_error_messages(cls, data, text):
    with pytest.raises(ValueError) as caught:
        cls.from_json(data)
    assert str(caught.value) == text
