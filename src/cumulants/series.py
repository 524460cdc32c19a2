"""Truncated formal power series over exact rational coefficients.

Every argument rule of the package lives here too: `as_fraction`, the order
checks, `check_size` and its caps, `LIMITS`, so that `transforms` needs no
other module of the package.  A series carries an explicit truncation order N
and exactly N + 1 coefficients c_0..c_N; every operation stays at that order
and never rounds.  Series with unit constant term support log and fractional
powers, delta series (zero constant term) support exp, composition and
reversion.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce int, str or Fraction to Fraction; floats and bools are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        # int() reads each digit run (numerator, denominator, decimals, exponent) in
        # quadratic time and Fraction("1e20000000") builds 10**20000000, so the runs
        # and the exponent are held to the int<->str digit limit, CPython's default
        # if it is off; a long run is refused in CPython's words, before any int()
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if len(value) > limit:  # no shorter string holds a longer run
            runs = re.findall(r"[\d_]+", value)  # digits, with underscores between them
            longest = max([len(r) - r.count("_") for r in runs], default=0)
            if longest > limit:
                raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                                 f"conversion: value has {longest} digits")
        mantissa, e, exponent = value.lower().partition("e")
        try:
            power = int(exponent) if e else 0
        except ValueError:  # malformed: Fraction reports it
            power = 0
        if power and abs(power) + sum(ch.isdigit() for ch in mantissa) > limit:
            size = len(str(abs(power)))
            if size > 20:  # named by its length, which may reach the digit limit
                sign = "negative " if power < 0 else ""
                raise ValueError(f"{sign}exponent of {size} digits writes out past {limit} digits")
            raise ValueError(f"exponent {power} writes out past {limit} digits")
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact coefficient")


def _check_int(value, what: str) -> None:
    """Orders are plain ints: a bool or any other non-int is refused before use."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {value!r}")


def _check_order(order, what: str = "order") -> None:
    """The order of a new sequence or series: a plain int, at least 0."""
    _check_int(order, what)
    if order < 0:
        raise ValueError(f"{what} must be nonnegative")


class DomainError(ValueError):
    """Operands a series operation refuses: outside its domain, or of unequal orders."""


def _check_orders(a, b, kind: str = "sequence") -> None:
    """Two operands of one operation share one order."""
    if a.order != b.order:
        raise DomainError(f"{kind} order mismatch: {a.order} != {b.order}")


def check_size(n, limit, what: str, least: int = 1) -> None:
    """The one size and degree rule: an int, not a bool, in least..limit."""
    if not isinstance(n, int) or isinstance(n, bool) or not least <= n <= limit:
        raise ValueError(f"{what} {least} <= n <= {limit}")


# the largest n of each exponential path, with its cost there (fresh Python 3.11, one Xeon core)
LIMITS = {
    "set partitions": 11,  # B_11 = 678,570: 1.2-1.4 s, 154 MiB; B_12 would need 0.9 GiB
    "noncrossing partitions": 12,  # the 208,012 of NC(12): 0.29-0.35 s, 58 MiB
    "interval partitions": 16,  # the 32,768 of n = 16: 35-45 ms, 18 MiB
    "parking functions": 7,  # the 262,144 of n = 7: 64-80 ms, 39 MiB, a volume of them 0.2 s
    "all": 7,  # lattice convolutions and Moebius recursions, over B_7 = 877 elements: 1.5-2.5 ms
    "nc": 7,  # over the 429 elements of NC(7): 4-7 ms; 15 ms at n = 8
    "interval": 12,  # over the 2,048 interval partitions of 12: 6.5 ms; 12 ms at n = 13
    "theorem checks": 6,  # the four theorems of `verify_theorem` at n = 6: 7-14 ms
    "matrix": 12,  # `matrix --nmax 12 --kmax 12`: 14 ms
    "volume": 24,  # `volume --n 24`: 0.18-0.30 s, shape sums over every degree up to n
    "abel suite": 12,  # `verify --suite abel --n 12`: 0.89-0.90 s
    "transport suite": 12,  # `verify --suite transport --n 12`: 0.29-0.32 s
    "parametrization suite": 12,  # `verify --suite parametrization --n 12`: 0.26-0.29 s
    "volume shape checks": 6,  # the brute-force side: 27 ms at n = 6, 0.28-0.45 s at n = 7
}


def falling_factorial(x, k: int):
    """(x)_k = x (x - 1) ... (x - k + 1), with (x)_0 = 1; exact for int or Fraction."""
    result = 1
    for i in range(k):  # math.prod over a generator reads 1.3-2.2x slower on int x, k <= 20
        result = result * (x - i)
    return result


def exact_json(data, kind: str, key: str) -> tuple[int, list[Fraction]]:
    """The integer 'order' and the exact entries under key of a JSON object.

    Errors name the kind of object and the key; the caller checks the count.
    """
    try:
        order, raw = data["order"], data[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{kind} JSON needs 'order' and '{key}': {exc}") from exc
    _check_order(order, f"{kind} 'order'")
    field = f"{kind} '{key}'"
    if not isinstance(raw, list):
        raise ValueError(f"{field} must be a JSON array")
    try:
        return order, [as_fraction(v) for v in raw]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


# bound once: each value type's __init__ sets its fields through it, past
# Frozen.__setattr__, without looking up object.__setattr__ on every call
_setattr = object.__setattr__


class Frozen:
    """Base of the immutable value types: fields are set once, in ``__init__``.

    Each subclass names its fields in FIELDS and writes ``__init__`` only
    to check or coerce them, setting each through ``_setattr``.  Equality
    (same class only), the hash, the repr and pickling all read the tuple
    of fields.  The classes do not use ``dataclasses``, whose import pulls
    in ``inspect``, ``ast`` and ``dis`` and costs every CLI start-up about
    15 ms.
    """

    __slots__ = ()  # so that a subclass with __slots__ has no __dict__
    FIELDS: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return type(self), self._fields()


class TruncatedSeries(Frozen):
    """Coefficients c_0..c_N of a power series truncated at t^N.

    Immutable: coefficients live in a tuple and all operations return new
    series.  Missing trailing coefficients in the constructor are padded
    with zeros.
    """

    __slots__ = FIELDS = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        _check_order(order)
        cs = [as_fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError(f"got {len(cs)} coefficients for truncation order {order}")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        _setattr(self, "order", order)
        _setattr(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        return cls(order, [value])

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t, which is zero at order 0."""
        return cls(order, [0, 1] if order else [0])

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.order}, {[str(c) for c in self.coeffs]})"

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            _check_orders(self, other, "series")
            return TruncatedSeries(
                self.order,
                [a + b for a, b in zip(self.coeffs, other.coeffs)],
            )
        c = as_fraction(other)
        return TruncatedSeries(self.order, (self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            _check_orders(self, other, "series")
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n - i + 1):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return TruncatedSeries(n, out)
        c = as_fraction(other)
        return TruncatedSeries(self.order, [c * x for x in self.coeffs])

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse, the e = -1 case of `power`; requires a nonzero constant term."""
        return self.power(-1)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute a delta series for t, truncating at the common order.

        Evaluated by Horner's rule; the inner series must have zero
        constant term so that truncation is exact.
        """
        _check_orders(self, inner, "series")
        if inner.coeffs[0] != 0:
            raise DomainError("composition requires a delta series (zero constant term)")
        acc = TruncatedSeries.constant(self.coeffs[self.order], self.order)
        for k in range(self.order - 1, -1, -1):
            acc = acc * inner + self.coeffs[k]
        return acc

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse of a delta series with nonzero linear term.

        Lagrange inversion: with d = t g, the inverse w has w_m equal to
        [t^(m-1)] g^(-m) / m, read off one power of g truncated at t^(m-1).
        """
        if self.coeffs[0] != 0:
            raise DomainError("reversion requires a delta series")
        if self.order and self.coeffs[1] == 0:  # order 0 is identity(0), its own inverse
            raise DomainError("no compositional inverse: linear coefficient is zero")
        w = [Fraction(0)]
        for m in range(1, self.order + 1):
            g = TruncatedSeries(m - 1, self.coeffs[1:m + 1])  # d / t, cut at t^(m-1)
            w.append(g.power(-m).coeffs[m - 1] / m)
        return TruncatedSeries(self.order, w)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise DomainError("log requires constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        # from f' = f * c': m f_m = sum_{k<=m} k c_k f_{m-k}
        for m in range(1, n + 1):
            s = sum(k * out[k] * self.coeffs[m - k] for k in range(1, m))
            out[m] = (m * self.coeffs[m] - s) / m
        return TruncatedSeries(n, out)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential of a delta series."""
        if self.coeffs[0] != 0:
            raise DomainError("exp requires a delta series")
        n = self.order
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            s = sum(k * self.coeffs[k] * out[m - k] for k in range(1, m + 1))
            out[m] = Fraction(s, m)
        return TruncatedSeries(n, out)

    def power(self, exponent) -> "TruncatedSeries":
        """h = f**e by Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), from f h' = e f' h:
        m f_0 h_m = sum_{k=1..m} ((e+1)k - m) f_k h_(m-k), with h_0 = f_0^e.

        Fractional exponents require constant term 1.  A zero constant term
        takes only e >= 0: f = t^v g with g_0 != 0 gives f^e = t^(v e) g^e.
        """
        if isinstance(exponent, bool):
            raise ValueError(f"exponent must be a number, not {exponent!r}")
        e = as_fraction(exponent)
        if e.denominator == 1:
            e = int(e)  # so that the weights stay integers
        elif self.coeffs[0] != 1:
            raise DomainError("fractional power requires constant term 1")
        n = self.order
        v = next((i for i, c in enumerate(self.coeffs) if c), n + 1)
        if v and e < 0:
            raise DomainError("series with zero constant term has no reciprocal")
        shift = v * e if v else 0  # a fractional e comes with v = 0
        if e == 0 or shift > n:  # f^0 = 1, or t^(v e) lies past t^n
            return TruncatedSeries.constant(int(e == 0), n)
        g = self.coeffs[v:v + n - shift + 1]
        h = [g[0] ** e.numerator]  # g_0 = 1 when e is fractional
        for m in range(1, n - shift + 1):
            s = sum(((e + 1) * k - m) * g[k] * h[m - k] for k in range(1, m + 1))
            h.append(s / (m * g[0]))
        return TruncatedSeries(n, [0] * shift + h)

    __pow__ = power

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        order, coeffs = exact_json(data, "series", "coeffs")
        if len(coeffs) != order + 1:
            raise ValueError(f"coefficient count {len(coeffs)} does not match order {order}")
        return cls(order, coeffs)
