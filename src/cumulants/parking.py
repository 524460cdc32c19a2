"""Parking functions, their orbit statistics, and volume polynomial evaluation.

The volume polynomial of the standard simplex admits two expansions: the
brute-force average over parking functions and a closed sum over integer
shapes.  Evaluated symmetrically at a barred free-cumulant sequence, the
shape sum returns barred moments, which puts parking-function geometry and
the free moment/cumulant transform in one picture.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .partitions import IntegerPartition, falling_factorial
from .series import as_fraction
from .transforms import MomentSequence, _free_weight, _shape_sum, free_from_moments

PARKING_LIMIT = 7


def is_parking(entries) -> bool:
    """True when the nondecreasing rearrangement satisfies p_(j) <= j."""
    seq = list(entries)
    if any(not isinstance(p, int) or p < 1 for p in seq):
        return False
    return all(p <= j for j, p in enumerate(sorted(seq), start=1))


@functools.lru_cache(maxsize=None)
def _parking_functions(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    counts = [0] * (n + 1)
    prefix: list[int] = []

    def feasible(placed: int) -> bool:
        # every value class j still needs #{p_i <= j} >= j achievable
        running = 0
        for j in range(1, n + 1):
            running += counts[j]
            if running + (n - placed) < j:
                return False
        return True

    def rec(placed: int) -> None:
        if placed == n:
            out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            counts[v] += 1
            prefix.append(v)
            if feasible(placed + 1):
                rec(placed + 1)
            prefix.pop()
            counts[v] -= 1

    rec(0)
    return tuple(out)


def enumerate_parking(n: int) -> list[tuple[int, ...]]:
    """All parking functions of length n in lexicographic order."""
    if not 1 <= n <= PARKING_LIMIT:
        raise ValueError(f"parking enumeration supports 1 <= n <= {PARKING_LIMIT}")
    return list(_parking_functions(n))


def parking_type(entries) -> IntegerPartition:
    """Shape of a parking function: its nonzero value multiplicities."""
    if not is_parking(entries):
        raise ValueError(f"{tuple(entries)!r} is not a parking function")
    mult: dict[int, int] = {}
    for v in entries:
        mult[v] = mult.get(v, 0) + 1
    return IntegerPartition(tuple(sorted(mult.values(), reverse=True)))


def orbit_size(shape: IntegerPartition) -> int:
    """Size of the permutation orbit of a parking function of this shape."""
    return math.factorial(shape.n) // shape.parts_factorial


def volume_bruteforce(xs) -> Fraction:
    """V_n(x) = (1/n!) sum over parking functions of x_{p_1} ... x_{p_n}."""
    values = [as_fraction(x) for x in xs]
    n = len(values)
    if not 1 <= n <= PARKING_LIMIT:
        raise ValueError(f"brute-force volume supports 1 <= n <= {PARKING_LIMIT}")
    total = Fraction(0)
    for p in _parking_functions(n):
        term = Fraction(1)
        for v in p:
            term *= values[v - 1]
        total += term
    return total / math.factorial(n)


def volume_bruteforce_symmetric(seq: MomentSequence, n: int) -> Fraction:
    """Brute-force volume with x_j^m replaced by the m-th sequence entry.

    Powers of one variable collapse to a single entry indexed by the
    multiplicity, so each parking function contributes the product of
    entries over its value multiplicities.
    """
    if not 1 <= n <= PARKING_LIMIT:
        raise ValueError(f"brute-force volume supports 1 <= n <= {PARKING_LIMIT}")
    if seq.order < n:
        raise ValueError(f"sequence must provide entries up to {n}")
    total = Fraction(0)
    for p in _parking_functions(n):
        mult: dict[int, int] = {}
        for v in p:
            mult[v] = mult.get(v, 0) + 1
        term = Fraction(1)
        for m in mult.values():
            term *= seq.moment(m)
        total += term
    return total / math.factorial(n)


def volume_shape_eval(seq: MomentSequence, n: int) -> Fraction:
    """Shape expansion of the volume polynomial, evaluated symmetrically.

    V_n = sum over shapes lambda of n of (1/lambda!) (n)_(l-1) / m(lambda)!
    times the monomial of shape lambda; symmetric substitution sends that
    monomial to the product of sequence entries over the parts.  Since
    d_lambda = n! / (lambda! m(lambda)!), that is sum_l (n)_(l-1)/n! B_{n,l}.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if seq.order < n:
        raise ValueError(f"sequence must provide entries up to {n}")
    return _shape_sum(
        seq.values, n, lambda n, l: Fraction(falling_factorial(n, l - 1), math.factorial(n))
    )


def orbit_moment_eval(cumulants: MomentSequence, n: int) -> Fraction:
    """One-per-orbit polynomial evaluated at free cumulants gives moments.

    R_n = sum over shapes of (n)_(l-1) / m(lambda)! times one orbit
    representative monomial, the ordinary row weighted like moments_from_free;
    at a free cumulant sequence this reproduces the n-th moment.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if cumulants.order < n:
        raise ValueError(f"sequence must provide entries up to {n}")
    return _shape_sum(cumulants.values, n, _free_weight, ordinary=True)


def moments_via_volume(moments: MomentSequence) -> MomentSequence:
    """Round trip moments -> free cumulants -> volume evaluation -> moments.

    Bars the free cumulants, evaluates the degree-n volume polynomial
    symmetrically (giving the barred n-th moment after the n! prefactor),
    then unbars.  Must reproduce the input exactly.
    """
    barred_cumulants = free_from_moments(moments).bar()
    barred = [
        math.factorial(n) * volume_shape_eval(barred_cumulants, n)
        for n in range(1, moments.order + 1)
    ]
    return MomentSequence.from_values(barred).unbar()
