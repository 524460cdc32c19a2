"""Literal incidence-algebra computations on the three partition lattices.

Everything here is enumeration-backed: convolutions are explicit sums over
lattice elements, Moebius values come from the defining recursion at the
top element summed over every element of each lattice up to the order,
not from any closed form, and the theorem checkers compare those sums
against the generating-function and transform routes computed elsewhere.
That independence is the point; keep it when modifying.

Every verification check lives here too: `_check`, `verify_theorem` and
`SUITES`, the five suites of ``cumulants verify``.  They are not yet a
module of their own, because the benchmark tracer looks `verify_theorem`
up here by name and wraps only the modules already imported.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .parking import (
    PARKING_LIMIT, moments_via_volume, volume_bruteforce, volume_bruteforce_symmetric,
    volume_shape_eval,
)
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
    MomentSequence, MultiplierSequence, _abel_pairing, abel_copy_oracle, abel_oracle,
    boolean_convolve, boolean_free_transport, boolean_from_moments, classical_from_moments,
    free_convolve, free_from_moments, generalized_cumulants, moments_from_free, named_sequence,
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


# the suites of `cumulants verify`: each takes (n, seed) and returns its list of checks


def _suite_lattice(n: int, seed: int) -> list:
    checks = []
    for which in ("T1", "T2", "T3", "COMMUTATIVITY"):
        report = verify_theorem(min(n, THEOREM_LIMIT), which, seed=seed)
        checks.append({"name": report.pop("theorem"), **report})

    def delta_pairs():
        for k in range(1, n + 1):
            mu = MultiplicativeFunction.mobius(k)
            zeta = MultiplicativeFunction.zeta(k)
            expected = Fraction(1 if k == 1 else 0)
            yield expected, convolve_lattice(mu, zeta, k, Lattice.ALL)
            yield expected, convolve_lattice(zeta, mu, k, Lattice.ALL)

    checks.append(_check("MU_STAR_ZETA", delta_pairs(), seed, n=n))
    return checks


def _suite_abel(n: int, seed: int) -> list:
    rng = random.Random(seed)

    def pairs(g):
        for _ in range(10):
            seq = _random_sequence(rng, n)
            partition_sum = generalized_cumulants(seq, g)
            for m in range(1, n + 1):
                yield abel_oracle(seq, g, m), partition_sum.values[m - 1]
                yield abel_copy_oracle(seq, int(g.g(m)), m), partition_sum.values[m - 1]

    multipliers = {f"g={k}": MultiplierSequence.constant(k, n) for k in range(5)}
    multipliers["g=n"] = MultiplierSequence.index(n)
    return [_check(label, pairs(g), seed) for label, g in multipliers.items()]


def _suite_volume(n: int, seed: int) -> list:
    rng = random.Random(seed)
    # at all-ones each parking function adds 1/n!, so this is their count
    total = math.factorial(n) * volume_bruteforce([1] * n)
    ok = total == (n + 1) ** (n - 1)
    checks = [{"name": "PARKING_COUNT", "pass": ok, "n_factorial_volume_at_ones": str(total)}]

    def shape_pairs():
        for k in range(1, min(n, 6) + 1):
            seq = _random_sequence(rng, k)
            yield volume_bruteforce_symmetric(seq, k), volume_shape_eval(seq, k)

    catalan_pairs = (
        (named_sequence("catalan", k).values[-1], volume_shape_eval(named_sequence("ubar", k), k))
        for k in range(1, min(n, 6) + 1)
    )

    def round_trips():
        for _ in range(10):
            seq = _random_sequence(rng, 8)
            yield seq, moments_via_volume(seq)

    checks.append(_check("SHAPE_VS_BRUTEFORCE", shape_pairs(), seed))
    checks.append(_check("CATALAN_VOLUME", catalan_pairs, seed))
    checks.append(_check("MOMENTS_VIA_VOLUME", round_trips(), seed))
    return checks


def _suite_transport(n: int, seed: int) -> list:
    rng = random.Random(seed)

    def pairs():
        for _ in range(10):
            a = _random_sequence(rng, n)
            b = _random_sequence(rng, n)
            yield (
                boolean_convolve(boolean_free_transport(a), boolean_free_transport(b)),
                boolean_free_transport(free_convolve(a, b)),
            )

    checks = [_check("INTERTWINING", pairs(), seed)]
    catalan = named_sequence("catalan", n)
    expected = MomentSequence.from_values([-1] + [0] * (n - 1))
    checks.append(
        {"name": "CATALAN_TRANSPORT", "pass": boolean_free_transport(catalan) == expected}
    )
    return checks


def _suite_parametrization(n: int, seed: int) -> list:
    rng = random.Random(seed)

    def recursion_pairs():
        for _ in range(10):
            a = _random_sequence(rng, n)
            c = classical_from_moments(a)
            for m in range(1, n + 1):
                yield a.moment(m), _abel_pairing(c, (1,) + a.values, m)

    def barred_pairs():
        for _ in range(10):
            a = _random_sequence(rng, n)
            barred = a.bar()
            g2 = MultiplierSequence.constant(2, n)
            yield boolean_from_moments(a).bar(), generalized_cumulants(barred, g2)
            gn = MultiplierSequence.index(n)
            yield free_from_moments(a).bar(), generalized_cumulants(barred, gn)

    def homogeneity_pairs():
        for _ in range(10):
            a = _random_sequence(rng, n)
            j = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            g = _random_sequence(rng, n)
            yield generalized_cumulants(a, g).scaled(j), generalized_cumulants(a.scaled(j), g)

    checks = [_check("CLASSICAL_RECURSION", recursion_pairs(), seed)]
    checks.append(_check("BARRED_SPECIALIZATIONS", barred_pairs(), seed))
    checks.append(_check("HOMOGENEITY", homogeneity_pairs(), seed))
    return checks


# name -> (largest n, suite)
SUITES = {
    "lattice": (CONVOLVE_LIMITS[Lattice.ALL], _suite_lattice),
    "abel": (12, _suite_abel),
    "volume": (PARKING_LIMIT, _suite_volume),
    "transport": (12, _suite_transport),
    "parametrization": (12, _suite_parametrization),
}
