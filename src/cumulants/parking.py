"""Parking functions, their orbit statistics, and volume polynomial evaluation.

The volume polynomial of the standard simplex admits two expansions: the
brute-force average over parking functions and a closed sum over integer
shapes.  Evaluated symmetrically at barred free cumulants, the shape sum
V_n is the moment m_n and n! V_n the barred one, which puts parking
functions and the free moment/cumulant transform in one picture.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .partitions import IntegerPartition
from .series import LIMITS, as_fraction, check_size
from .transforms import MomentSequence, _abel_weight, _shape_sum, free_from_moments


def is_parking(entries) -> bool:
    """True when the nondecreasing rearrangement satisfies p_(j) <= j."""
    seq = list(entries)
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in seq):
        return False
    return all(p <= j for j, p in enumerate(sorted(seq), start=1))


def _parking_functions(n: int) -> list[tuple[int, ...]]:
    # One state, the thresholds t.  For a prefix with l entries still to
    # place, f(j) = #{entries <= j} - j has f(0) = 0, f(n) = -l and falls
    # by at most 1 per step, so t_k, the first j with f(j) = -k, exists
    # for k = 1..l, and the next entry may be any v in 1..t_l.  Appending
    # v raises f by one from v on, so t'_k = t_k if t_k < v, else t_(k+1):
    # v drops the first threshold >= v.  The empty prefix has t = (1..n).
    # Completions depend on t alone and are kept for the last three
    # entries only: kept for every length, they hold a second copy of
    # the output (+38 MiB at n = 7).
    tails = {}

    def walk(prefix, t, out):
        # out += prefix + each completion of t; an empty prefix fills the table
        if not t:
            out.append(prefix)
        elif len(t) <= 3 and prefix:
            if t not in tails:
                tails[t] = walk((), t, [])
            out.extend(map(prefix.__add__, tails[t]))
        else:
            for i, (lo, hi) in enumerate(zip((0,) + t, t)):
                child = t[:i] + t[i + 1:]  # v in lo+1..hi drops hi
                for v in range(lo + 1, hi + 1):
                    walk(prefix + (v,), child, out)
        return out

    return walk((), tuple(range(1, n + 1)), [])


def enumerate_parking(n: int) -> list[tuple[int, ...]]:
    """All parking functions of length n in lexicographic order."""
    check_size(n, LIMITS["parking functions"], "parking enumeration supports")
    return _parking_functions(n)


def parking_type(entries) -> IntegerPartition:
    """Shape of a parking function: its nonzero value multiplicities."""
    entries = tuple(entries)  # read a one-shot iterable once
    if not is_parking(entries):
        raise ValueError(f"{entries!r} is not a parking function")
    return IntegerPartition(tuple(sorted(Counter(entries).values(), reverse=True)))


def orbit_size(shape: IntegerPartition) -> int:
    """Size of the permutation orbit of a parking function of this shape."""
    return math.factorial(shape.n) // shape.parts_factorial


def volume_bruteforce(xs) -> Fraction:
    """V_n(x) = (1/n!) sum over parking functions of x_{p_1} ... x_{p_n}.

    Each term has degree n, so the sum runs on the integers d x_j, d the
    common denominator, and is divided by d^n n! once at the end.
    """
    values = [as_fraction(x) for x in xs]
    n = len(values)
    check_size(n, LIMITS["parking functions"], "brute-force volume supports")
    d = math.lcm(*(x.denominator for x in values))
    scaled = [0] + [x.numerator * (d // x.denominator) for x in values]
    total = sum(math.prod(map(scaled.__getitem__, p)) for p in _parking_functions(n))
    return Fraction(total, d**n * math.factorial(n))


def volume_bruteforce_symmetric(seq: MomentSequence, n: int) -> Fraction:
    """Brute-force volume with x_j^m replaced by the m-th sequence entry.

    Powers of one variable collapse to a single entry indexed by the
    multiplicity, so each parking function contributes the product of
    entries over its value multiplicities.  The multiplicities sum to n,
    so the sum runs on the integers d^m a_m, d the common denominator of
    a_1..a_n, and is divided by d^n n! once at the end.
    """
    check_size(n, LIMITS["parking functions"], "brute-force volume supports")
    check_size(n, seq.order, "brute-force volumes of this sequence need")
    entries = [seq.moment(m) for m in range(1, n + 1)]
    d = math.lcm(*(a.denominator for a in entries))
    scaled = [0] + [a.numerator * (d**m // a.denominator) for m, a in enumerate(entries, 1)]
    total = 0
    for p in _parking_functions(n):
        mult: dict[int, int] = {}  # Counter(p) reads 2.4-3.1x slower at n = 5-7
        for v in p:
            mult[v] = mult.get(v, 0) + 1
        term = 1
        for m in mult.values():
            term *= scaled[m]
        total += term
    return Fraction(total, d**n * math.factorial(n))


def volume_shape_eval(seq: MomentSequence, n: int) -> Fraction:
    """Shape expansion of the volume polynomial, evaluated symmetrically.

    V_n = sum over shapes lambda of n of (1/lambda!) (n)_(l-1) / m(lambda)!
    times the monomial of shape lambda; symmetric substitution sends that
    monomial to the product of sequence entries over the parts: sum_l
    (n)_(l-1)/l! B^ord_{n,l}(a_k/k!), the free-moment polynomial read unbarred.
    """
    check_size(n, seq.order, "volume shape sums need")
    return _shape_sum(seq.unbar().values, n, _abel_weight)


def orbit_moment_eval(cumulants: MomentSequence, n: int) -> Fraction:
    """One-per-orbit polynomial evaluated at free cumulants gives moments.

    R_n = sum over shapes of (n)_(l-1) / m(lambda)! times one orbit
    representative monomial: the Abel weight (n)_(l-1)/l! on the ordinary row,
    as in moments_from_free.  At free cumulants it gives the n-th moment.
    """
    check_size(n, cumulants.order, "orbit shape sums need")
    return _shape_sum(cumulants.values, n, _abel_weight)


def moments_via_volume(moments: MomentSequence) -> MomentSequence:
    """Round trip moments -> free cumulants -> volume evaluation -> moments.

    Bars the free cumulants and evaluates the degree-n volume polynomial
    symmetrically there: V_n(bar r) is the moment m_n (n! V_n(bar r) is
    the barred moment).  Must reproduce the input exactly.
    """
    barred_cumulants = free_from_moments(moments).bar()
    return MomentSequence.from_values(
        volume_shape_eval(barred_cumulants, n) for n in range(1, moments.order + 1)
    )
