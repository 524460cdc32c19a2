"""Integer partitions, set partitions, and the three partition lattices.

Set partitions are kept canonical (blocks sorted internally and by least
element) so they hash and compare structurally.  The enumerators build
bare block tuples, canonical as built, for the lattice oracles to read;
the public enumerations wrap a whole list of them in `SetPartition` with
``SetPartition.bulk``, `kreweras_complement` wraps one, and
``SetPartition.from_blocks`` is the validating constructor for outside
input.  Set and noncrossing partitions come from one restricted-growth
generator with a growth rule per lattice: every block stays growable,
or only those no other block has enclosed yet.  Interval partitions keep
their own composition enumerator, about twice as fast as the generator
restricted to one growable block.  Enumeration orders are fixed:
restricted growth strings for set and noncrossing partitions, reverse
lexicographic for integer partitions, and first-block-size order for
interval partitions.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from enum import Enum
from fractions import Fraction
from itertools import repeat

from .series import LIMITS, Frozen, _setattr, check_size, falling_factorial


class Lattice(Enum):
    ALL = "all"
    NC = "nc"
    INTERVAL = "interval"


class IntegerPartition(Frozen):
    """Nonincreasing positive parts; the shape of a set partition."""

    __slots__ = FIELDS = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be nonincreasing")
        _setattr(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        return Counter(self.parts)

    @property
    def parts_factorial(self) -> int:
        return math.prod(map(math.factorial, self.parts))

    @property
    def mult_factorial(self) -> int:
        return math.prod(map(math.factorial, self.multiplicities().values()))


def integer_partitions(n: int) -> list[IntegerPartition]:
    """Partitions of n, reverse lexicographic from (n) to (1,...,1), built afresh per call."""
    check_size(n, math.inf, "integer partitions need", least=0)

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [IntegerPartition(p) for p in rec(n, n)]


def d_lambda(shape: IntegerPartition) -> int:
    """Number of set partitions of [n] whose block sizes give this shape."""
    return math.factorial(shape.n) // (shape.parts_factorial * shape.mult_factorial)


class SetPartition(Frozen):
    """Partition of {1..n} into disjoint blocks, stored canonically."""

    __slots__ = FIELDS = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        _setattr(self, "n", n)
        _setattr(self, "blocks", blocks)

    @classmethod
    def bulk(cls, n: int, canonical) -> list["SetPartition"]:
        """One partition of [n] per canonical block tuple: unchecked, no ``__init__`` frame each."""
        out = list(map(object.__new__, repeat(cls, len(canonical))))
        deque(map(cls.n.__set__, out, repeat(n)), 0)
        deque(map(cls.blocks.__set__, out, canonical), 0)
        return out

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "SetPartition":
        """Sort and check blocks from outside; they must partition 1..n."""
        check_size(n, math.inf, "a set partition needs", least=0)
        cleaned = []
        for block in blocks:
            b = tuple(block)
            if not b:
                raise ValueError("blocks must be nonempty")
            cleaned.append(b)
        seen = [x for b in cleaned for x in b]
        # element types first: sorting a str or None next to an int fails
        plain = all(isinstance(x, int) and not isinstance(x, bool) for x in seen)
        if len(seen) != n or not plain or sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}")
        cleaned = sorted((tuple(sorted(b)) for b in cleaned), key=lambda b: b[0])
        return cls(n, tuple(cleaned))

    @property
    def length(self) -> int:
        return len(self.blocks)

    def shape(self) -> IntegerPartition:
        return IntegerPartition(tuple(sorted((len(b) for b in self.blocks), reverse=True)))

    @property
    def block_index(self) -> dict[int, int]:
        """Element -> position of its block, built afresh on each call."""
        out: dict[int, int] = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return out


def singletons(n: int) -> SetPartition:
    """The minimum of the refinement order: all blocks of size one."""
    return SetPartition.from_blocks(n, [[i] for i in range(1, n + 1)])


def single_block(n: int) -> SetPartition:
    """The maximum of the refinement order: one block, none at n = 0."""
    return SetPartition.from_blocks(n, [list(range(1, n + 1))] if n else [])


def _restricted_growth(n: int, noncrossing: bool) -> list[tuple[tuple[int, ...], ...]]:
    """Partitions of [n] as block tuples in restricted-growth-string order, under one growth rule.

    Elements are placed in increasing order: element i joins each growable
    block in turn, then opens a new growable block, so blocks come out sorted
    and ordered by least element, canonical as built.  For set partitions
    every block stays growable.  For noncrossing ones, joining i to a block
    encloses each later growable block, which could take no further element
    without crossing, so only growable[:pos + 1] stays.  Each prefix goes
    down as one tuple of block tuples: a join regrows one block, an opening
    appends a one-element block built once per call, and unchanged blocks
    are shared by every descendant, so each element adds at most one.
    """
    results = []
    opened = [((i,),) for i in range(n + 1)]

    def rec(i, blocks, growable):
        if i == n:
            for j in growable:
                grown = list(blocks)
                grown[j] += (n,)
                results.append(tuple(grown))
            results.append(blocks + opened[n])
            return
        for pos, j in enumerate(growable):
            grown = list(blocks)
            grown[j] += (i,)
            rec(i + 1, tuple(grown), growable[: pos + 1] if noncrossing else growable)
        rec(i + 1, blocks + opened[i], growable + (len(blocks),))

    rec(1, (), ())
    return results


def set_partitions(n: int) -> list[SetPartition]:
    """All set partitions of [n] in restricted-growth-string order."""
    check_size(n, LIMITS["set partitions"], "set partition enumeration supports")
    return SetPartition.bulk(n, _restricted_growth(n, noncrossing=False))


def is_noncrossing(partition: SetPartition) -> bool:
    """True unless two blocks interleave in an a < b < a' < b' pattern."""
    blocks = partition.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted(
                [(x, 0) for x in blocks[i]] + [(x, 1) for x in blocks[j]]
            )
            switches = sum(
                1 for k in range(1, len(merged)) if merged[k][1] != merged[k - 1][1]
            )
            if switches >= 3:
                return False
    return True


def noncrossing_partitions(n: int) -> list[SetPartition]:
    """All noncrossing partitions of [n] in restricted-growth-string order.

    Generated directly, so the cost follows the Catalan number, not the
    Bell number.
    """
    check_size(n, LIMITS["noncrossing partitions"], "noncrossing enumeration supports")
    return SetPartition.bulk(n, _restricted_growth(n, noncrossing=True))


def is_interval(partition: SetPartition) -> bool:
    """True when every block is a run of consecutive integers."""
    return all(b[-1] - b[0] + 1 == len(b) for b in partition.blocks)


def interval_partitions(n: int) -> list[SetPartition]:
    check_size(n, LIMITS["interval partitions"], "interval partition enumeration supports")
    return SetPartition.bulk(n, _interval_blocks(n))


def _interval_blocks(n: int) -> list[tuple[tuple[int, ...], ...]]:
    # own composition enumerator: _restricted_growth with one growable block ran about 2x slower
    out = []
    # runs of consecutive integers, left to right: canonical as built.
    # runs[s] holds s..e for e = s..n, built once; the last ends the partition
    runs = [()] + [[tuple(range(s, e + 1)) for e in range(s, n + 1)] for s in range(1, n + 1)]

    def rec(start, acc):
        for run in runs[start][:-1]:
            rec(run[-1] + 1, acc + (run,))
        out.append(acc + (runs[start][-1],))

    rec(1, ())
    return out


def leq_refinement(sigma: SetPartition, pi: SetPartition) -> bool:
    """Whether every block of sigma sits inside one block of pi."""
    if sigma.n != pi.n:
        raise ValueError("partitions live on different ground sets")
    owner = pi.block_index
    for block in sigma.blocks:
        first = owner[block[0]]
        if any(owner[x] != first for x in block[1:]):
            return False
    return True


def interval_type(sigma: SetPartition, pi: SetPartition) -> tuple[int, ...]:
    """(k_1, ..., k_n): k_i = number of pi-blocks that are unions of exactly i sigma-blocks."""
    if not leq_refinement(sigma, pi):
        raise ValueError("interval type needs sigma <= pi in refinement order")
    owner = pi.block_index
    k = Counter(Counter(owner[block[0]] for block in sigma.blocks).values())
    return tuple(k[i] for i in range(1, pi.n + 1))


def kreweras_complement(partition: SetPartition) -> SetPartition:
    """Kreweras complement: the cycles of the permutation pi^-1 gamma.

    pi cycles each block in increasing order and gamma = (1 2 ... n).  On
    the interleaved ground set 1, 1', 2, 2', ..., n, n' the result is the
    coarsest partition of the primed points whose union with the input
    stays noncrossing (Nica-Speicher, Lecture 9).  The input is
    noncrossing exactly when pi and pi^-1 gamma have n + 1 cycles between
    them (Biane 1997), which is how crossing input is rejected.
    """
    n = partition.n
    if not n:  # gamma has no cycle here; the one element of NC(0) is its own complement
        return partition
    return SetPartition(n, _kreweras_blocks(n, partition.blocks))


def _kreweras_blocks(n: int, blocks) -> tuple[tuple[int, ...], ...]:
    """The cycles of pi^-1 gamma, from and to block tuples of [n], n >= 1."""
    pred = [0] * (n + 1)
    for block in blocks:
        prev = block[-1]
        for x in block:
            pred[x] = prev
            prev = x
    # pi^-1 gamma sends i to the predecessor of i + 1, reading n + 1 as 1
    image = [0] + pred[2:] + [pred[1]]
    seen = [False] * (n + 1)
    cycles = []
    # each cycle is found from its least element, so the sorted cycles come
    # out ordered by least element: canonical as built
    for start in range(1, n + 1):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = image[x]
        if cycle:
            cycles.append(tuple(sorted(cycle)))
    if len(blocks) + len(cycles) != n + 1:
        raise ValueError("Kreweras complement is defined for noncrossing partitions only")
    return tuple(cycles)


def count_by_shape(shape: IntegerPartition, lattice: Lattice) -> Fraction:
    """Number of lattice elements with the given block-size shape."""
    n, length = shape.n, shape.length
    if lattice is Lattice.ALL:
        return Fraction(d_lambda(shape))
    if lattice is Lattice.NC:
        return Fraction(falling_factorial(n, length - 1), shape.mult_factorial)
    if lattice is Lattice.INTERVAL:
        return Fraction(math.factorial(length), shape.mult_factorial)
    raise ValueError(f"unknown lattice: {lattice!r}")
