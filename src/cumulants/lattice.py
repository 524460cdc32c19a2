"""Literal incidence-algebra computations on the three partition lattices.

Everything here is enumeration-backed: convolutions are explicit sums over
lattice elements, Moebius values come from the defining recursion at the
top element summed over every element of each lattice up to the order,
not from any closed form, and the theorem checkers compare those sums
against the generating-function and transform routes computed elsewhere.
That independence is the point; keep it when modifying.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .partitions import (
    Lattice,
    SetPartition,
    check_size,
    interval_partitions,
    interval_type,
    kreweras_complement,
    noncrossing_partitions,
    set_partitions,
)
from .series import _check_order
from .transforms import (
    MomentSequence,
    free_from_moments,
    moments_from_free,
    named_sequence,
)

CONVOLVE_LIMITS = {Lattice.ALL: 7, Lattice.NC: 7, Lattice.INTERVAL: 12}
THEOREM_LIMIT = 6


class MultiplicativeFunction(MomentSequence):
    """Multiplicative function determined by its diagonal values f_1..f_N.

    On an interval of type (k_1, ..., k_n) the function evaluates to the
    product of f_i**k_i, so the values at full intervals [0_n, 1_n]
    determine it everywhere.
    """

    @classmethod
    def from_sequence(cls, seq: MomentSequence) -> "MultiplicativeFunction":
        return cls(seq.values)

    @classmethod
    def zeta(cls, order: int) -> "MultiplicativeFunction":
        return cls.constant(1, order)

    @classmethod
    def delta(cls, order: int) -> "MultiplicativeFunction":
        """Convolution identity: 1 at n = 1, else 0."""
        return cls(named_sequence("chi", order).values)

    @classmethod
    def mobius(cls, order: int) -> "MultiplicativeFunction":
        """Closed-form Moebius values (-1)^(n-1) (n-1)! of the full lattice."""
        _check_order(order)
        return cls(
            tuple(
                Fraction((-1) ** (n - 1) * math.factorial(n - 1))
                for n in range(1, order + 1)
            )
        )

    def on_partition(self, partition: SetPartition) -> Fraction:
        """f_tau = product of f over the block sizes of tau."""
        out = Fraction(1)
        for block in partition.blocks:
            out *= self.f(len(block))
        return out


def eval_interval(
    func: MultiplicativeFunction, sigma: SetPartition, pi: SetPartition
) -> Fraction:
    """f(sigma, pi) = prod_i f_i^(k_i) over the interval type of [sigma, pi]."""
    k = interval_type(sigma, pi).k
    powers = (func.f(i) ** k_i for i, k_i in enumerate(k, start=1) if k_i)
    return math.prod(powers, start=Fraction(1))


@functools.lru_cache(maxsize=None)
def _elements(n: int, lattice: Lattice) -> tuple[SetPartition, ...]:
    if lattice is Lattice.ALL:
        return tuple(set_partitions(n))
    if lattice is Lattice.NC:
        return tuple(noncrossing_partitions(n))
    return tuple(interval_partitions(n))


def _check_bounds(n: int, lattice: Lattice) -> None:
    if lattice not in CONVOLVE_LIMITS:
        raise ValueError(f"unknown lattice: {lattice!r}")
    check_size(n, CONVOLVE_LIMITS[lattice], f"{lattice.value} lattice computations support")


def convolve_lattice(
    f: MultiplicativeFunction, g: MultiplicativeFunction, n: int, lattice: Lattice
) -> Fraction:
    """(f * g)(0_n, 1_n) as a literal sum over the lattice.

    On the full and interval lattices the upper interval [tau, 1_n] is a
    smaller lattice of the same kind, so g enters through g_{l(tau)}; on
    the noncrossing lattice it enters through the Kreweras complement.
    Terms are multiplied out on integers and summed per exact denominator.
    """
    _check_bounds(n, lattice)
    if f.order < n or g.order < n:
        raise ValueError(f"functions must provide values up to n = {n}")
    # f_s at index s, g_s at n + s
    nums, dens = zip((1, 1), *(v.as_integer_ratio() for v in f.values[:n] + g.values[:n]))
    sums: dict[int, int] = {}
    for tau in _elements(n, lattice):
        sizes = [len(b) for b in tau.blocks]
        if lattice is Lattice.NC:
            sizes += [n + len(b) for b in kreweras_complement(tau).blocks]
        else:
            sizes.append(n + tau.length)
        num = den = 1
        for i in sizes:
            num *= nums[i]
            den *= dens[i]
        sums[den] = sums.get(den, 0) + num
    return sum(Fraction(num, den) for den, num in sums.items())


def mobius_function(order: int, lattice: Lattice) -> MultiplicativeFunction:
    """Multiplicative Moebius function from the defining recursion, no closed form used.

    For m > 1, sum_{tau <= 1_m} mu(0_m, tau) = 0.  Every lower interval
    [0_m, tau] is the product, over the blocks of tau, of smaller lattices
    of the same kind, so mu(0_m, tau) is the product of mu_{|b|} over
    those blocks and mu_m = mu(0_m, 1_m) is the one unknown at degree m.
    """
    _check_order(order)
    _check_bounds(max(order, 1), lattice)  # order 0 is the empty function, of a known lattice
    mu = [None, 1]  # mu[m] = mu(0_m, 1_m); the recursion stays within the integers
    for m in range(2, order + 1):
        below_top = (tau for tau in _elements(m, lattice) if tau.length > 1)
        mu.append(-sum(math.prod(mu[len(b)] for b in tau.blocks) for tau in below_top))
    return MultiplicativeFunction.from_values(mu[1 : order + 1])


def mobius_by_recursion(n: int, lattice: Lattice) -> Fraction:
    """mu(0_n, 1_n) from the defining recursion of `mobius_function`."""
    _check_bounds(n, lattice)
    return mobius_function(n, lattice).f(n)


def _random_sequence(rng: random.Random, order: int) -> MomentSequence:
    """Seeded test input: numerators -6..6 over denominators 1..4."""
    return MomentSequence.from_values(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
    )


def _check(name: str, pairs, seed: int, **fields) -> dict:
    """Compare lazily generated (expected, got) pairs up to the first mismatch.

    A failing check carries a counterexample that reproduces it: the
    seed, the 0-based index of the failing pair and both values.
    """
    check = {"name": name, **fields, "pass": True, "checked": 0}
    for case, (expected, got) in enumerate(pairs):
        check["checked"] += 1
        if expected != got:
            expected, got = (
                v.to_json() if isinstance(v, MomentSequence) else str(v) for v in (expected, got)
            )
            check["pass"] = False
            check["counterexample"] = dict(seed=seed, case=case, expected=expected, got=got)
            break
    return check


def verify_theorem(n: int, which: str, seed: int = 0) -> dict:
    """Executable checks of the composition/convolution correspondences.

    T1: EGF composition against full-lattice convolution.
    T2: free moment/cumulant transforms against noncrossing convolution
        with the recursion-built Moebius function, plus the Catalan case.
    T3: OGF composition against interval-lattice convolution.
    COMMUTATIVITY: the noncrossing convolution is symmetric.

    Returns a JSON-ready report with a counterexample on failure.
    """
    name = which.upper() if isinstance(which, str) else None
    if name not in ("T1", "T2", "T3", "COMMUTATIVITY"):
        raise ValueError(f"unknown theorem {which!r}")
    check_size(n, THEOREM_LIMIT, "theorem checks support")
    rng = random.Random(seed)
    f_mf = MultiplicativeFunction.from_sequence(_random_sequence(rng, n))
    g_mf = MultiplicativeFunction.from_sequence(_random_sequence(rng, n))

    def composition_pairs():
        if name == "T1":
            lattice, to, read = Lattice.ALL, MomentSequence.to_egf, MomentSequence.from_egf
        else:
            lattice, to, read = Lattice.INTERVAL, MomentSequence.to_ogf, MomentSequence.from_ogf
        composed = read(to(f_mf).compose(to(g_mf) - 1))
        for m, expected in enumerate(composed.values, start=1):
            yield expected, convolve_lattice(g_mf, f_mf, m, lattice)

    def free_pairs():
        mu_nc = mobius_function(n, Lattice.NC)
        zeta = MultiplicativeFunction.zeta(n)
        moments = _random_sequence(rng, n)
        cumulants = free_from_moments(moments)
        back = moments_from_free(cumulants)
        m_mf = MultiplicativeFunction.from_sequence(moments)
        r_mf = MultiplicativeFunction.from_sequence(cumulants)
        for m in range(1, n + 1):
            yield cumulants.moment(m), convolve_lattice(m_mf, mu_nc, m, Lattice.NC)
            yield back.moment(m), convolve_lattice(r_mf, zeta, m, Lattice.NC)
        yield named_sequence("u", n), free_from_moments(named_sequence("catalan", n))

    def commutativity_pairs():
        for m in range(1, n + 1):
            forward = convolve_lattice(f_mf, g_mf, m, Lattice.NC)
            yield forward, convolve_lattice(g_mf, f_mf, m, Lattice.NC)

    pairs = {"T2": free_pairs, "COMMUTATIVITY": commutativity_pairs}.get(name, composition_pairs)
    check = _check(name, pairs(), seed, n=n)
    return {"theorem": check.pop("name"), **check}
