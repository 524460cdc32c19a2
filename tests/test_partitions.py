"""Partition enumeration, lattice predicates, and shape counting."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cumulants.lattice import _elements
from cumulants.partitions import (
    IntegerPartition,
    Lattice,
    SetPartition,
    count_by_shape,
    d_lambda,
    falling_factorial,
    integer_partitions,
    interval_partitions,
    interval_type,
    is_interval,
    is_noncrossing,
    kreweras_complement,
    leq_refinement,
    noncrossing_partitions,
    set_partitions,
    single_block,
    singletons,
)

BELL = [1, 2, 5, 15, 52, 203, 877, 4140]
CATALAN = [1, 2, 5, 14, 42, 132, 429]


def sp(n, *blocks):
    return SetPartition.from_blocks(n, blocks)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(-2, 2) == 6
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_integer_partition_validation():
    with pytest.raises(ValueError):
        IntegerPartition((1, 2))
    with pytest.raises(ValueError):
        IntegerPartition((2, 0))
    lam = IntegerPartition((3, 1, 1))
    assert lam.n == 5
    assert lam.length == 3
    assert lam.multiplicities() == {3: 1, 1: 2}
    assert lam.parts_factorial == 6
    assert lam.mult_factorial == 2


def test_integer_partitions_reverse_lex():
    assert [p.parts for p in integer_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert integer_partitions(0) == [IntegerPartition(())]
    assert len(integer_partitions(10)) == 42
    listed = [p.parts for p in integer_partitions(7)]
    assert listed == sorted(listed, reverse=True)


def test_d_lambda():
    assert d_lambda(IntegerPartition((2, 1))) == 3
    assert d_lambda(IntegerPartition((1, 1, 1))) == 1
    assert d_lambda(IntegerPartition((2, 2))) == 3
    # shape counts add up to the Bell numbers
    for n in range(1, 8):
        assert sum(d_lambda(lam) for lam in integer_partitions(n)) == BELL[n - 1]


def test_set_partition_canonical_form():
    left = SetPartition.from_blocks(4, [[3, 4], [2, 1]])
    right = SetPartition.from_blocks(4, [(1, 2), (4, 3)])
    assert left == right
    assert left.blocks == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(2, [[1, 2], []])
    # n = 0: bottom and top are both the empty partition
    empty = SetPartition.from_blocks(0, [])
    assert empty.blocks == () and singletons(0) == single_block(0) == empty


def test_booleans_and_floats_are_not_parts_or_elements():
    for parts in ((True,), (2, True), (1.0,)):
        with pytest.raises(ValueError, match="^parts must be positive integers$"):
            IntegerPartition(parts)
    for blocks in ([[True, 2]], [[2], [True]], [[1.0, 2]], [[1, "a"]], [[1, None]]):
        with pytest.raises(ValueError, match="^blocks do not partition 1..2$"):
            SetPartition.from_blocks(2, blocks)
    for n, blocks in ((True, [[1]]), ("2", [[1], [2]])):
        with pytest.raises(ValueError, match="^a set partition needs 0 <= n <= inf$"):
            SetPartition.from_blocks(n, blocks)
    # the count is compared before 1..n is built
    with pytest.raises(ValueError, match=f"^blocks do not partition 1..{10**12}$"):
        SetPartition.from_blocks(10**12, [[1]])


def test_set_partitions_counts_and_order():
    for n in range(1, 9):
        assert len(set_partitions(n)) == BELL[n - 1]
    listed = set_partitions(3)
    assert listed[0] == single_block(3)
    assert listed[-1] == singletons(3)
    with pytest.raises(ValueError):
        set_partitions(0)
    with pytest.raises(ValueError):
        set_partitions(13)


def restricted_growth_partitions(n):
    # every string r with r_1 = 0 and r_i <= 1 + max(r_1..r_(i-1)), in
    # lexicographic order, read as the partition with blocks {i : r_i = k}
    strings = [[0]]
    for _ in range(n - 1):
        strings = [r + [v] for r in strings for v in range(max(r) + 2)]
    out = []
    for r in strings:
        blocks = [[i + 1 for i in range(n) if r[i] == k] for k in range(max(r) + 1)]
        out.append(SetPartition.from_blocks(n, blocks))
    return out


def test_enumerations_are_canonical_and_in_growth_string_order():
    for n in range(1, 9):
        reference = restricted_growth_partitions(n)
        every = set_partitions(n)
        intervals = interval_partitions(n)
        assert every == reference
        # first-block-size order is the reverse of growth-string order
        assert intervals == [p for p in reversed(reference) if is_interval(p)]
        for listed in (every, intervals):
            assert len(set(listed)) == len(listed)
            for p in listed:
                checked = SetPartition.from_blocks(n, p.blocks)
                assert checked == p and hash(checked) == hash(p)
    bell = [1]
    for n in range(1, 10):
        count = len(set_partitions(n))
        assert count == sum(math.comb(n - 1, k) * bell[k] for k in range(n))
        bell.append(count)
    for n in range(1, 15):
        assert len(interval_partitions(n)) == 2 ** (n - 1)


def blocks_repr(partitions) -> str:
    """repr([p.blocks for p in partitions]), with each distinct block's repr built once."""
    seen: dict[tuple[int, ...], str] = {}

    def one(blocks):
        inner = ", ".join([seen.get(b) or seen.setdefault(b, repr(b)) for b in blocks])
        return f"({inner},)" if len(blocks) == 1 else f"({inner})"

    return "[" + ", ".join([one(p.blocks) for p in partitions]) + "]"


def test_enumerations_match_recorded_digests():
    # SHA-256 of repr([p.blocks for p in ...]), recorded from the enumerators
    # that placed every element, the last included, one call at a time
    recorded = {
        (set_partitions, 10): "cb271f622a5aa333fe43d2e60067e2575a7b8db2c1a6da3371f09fde0cbf4698",
        (noncrossing_partitions, 11): (
            "63c84ee42a9096bd7d171ab005fb1c3a3d94bee169df20a5ba2cff8380f0c1e8"
        ),
        (interval_partitions, 16): (
            "4dd5c0308d0d7fd3672795b78385a8a7901fd8e2589fd1fef89a51632f9fb7d3"
        ),
    }
    assert blocks_repr(set_partitions(4)) == repr([p.blocks for p in set_partitions(4)])
    for (enumerate_, n), digest in recorded.items():
        # the lists make no reference cycles, and with the collector running
        # each collection rescans them: a third of this test's time
        gc.disable()
        try:
            listed = blocks_repr(enumerate_(n)).encode()
        finally:
            gc.enable()
        assert hashlib.sha256(listed).hexdigest() == digest, enumerate_.__name__


def test_enumerations_share_unchanged_blocks():
    # each element adds at most one block tuple of its own, and each of 1..n
    # opens its one-element block once per call: B(9) read 38,154 distinct
    # block tuples when every prefix re-tupled its blocks, against 21,155 here
    for n in range(3, 10):
        public = (set_partitions, noncrossing_partitions, interval_partitions)
        listings = [[p.blocks for p in enumerate_(n)] for enumerate_ in public]
        # uncached, so the session keeps no B(9)
        listings += [_elements.__wrapped__(n, lattice) for lattice in Lattice]
        for listed in listings:
            distinct = len({id(block) for blocks in listed for block in blocks})
            assert distinct <= len(listed) + n, (n, len(listed), distinct)


def test_shape():
    assert sp(4, [1, 2], [3, 4]).shape() == IntegerPartition((2, 2))
    assert sp(5, [1, 3, 5], [2], [4]).shape() == IntegerPartition((3, 1, 1))


def test_is_noncrossing():
    assert not is_noncrossing(sp(4, [1, 3], [2, 4]))
    assert is_noncrossing(sp(4, [1, 4], [2, 3]))
    assert all(is_noncrossing(p) for p in set_partitions(3))
    for n in range(1, 8):
        assert len(noncrossing_partitions(n)) == CATALAN[n - 1]


def test_is_interval():
    assert is_interval(sp(4, [1, 2], [3, 4]))
    assert not is_interval(sp(4, [1, 4], [2, 3]))
    assert is_interval(single_block(6))
    for n in range(1, 11):
        assert len(interval_partitions(n)) == 2 ** (n - 1)
    assert all(is_interval(p) for p in interval_partitions(6))
    with pytest.raises(ValueError):
        interval_partitions(17)


def test_leq_refinement():
    assert leq_refinement(singletons(4), sp(4, [1, 2], [3, 4]))
    assert leq_refinement(sp(4, [1, 2], [3, 4]), single_block(4))
    assert not leq_refinement(sp(4, [1, 3], [2], [4]), sp(4, [1, 2], [3, 4]))
    assert leq_refinement(sp(3, [1, 2], [3]), sp(3, [1, 2], [3]))
    with pytest.raises(ValueError):
        leq_refinement(singletons(3), singletons(4))


def test_interval_type_examples():
    t = interval_type(singletons(4), sp(4, [1, 2], [3, 4]))
    assert type(t) is tuple and t == (0, 2, 0, 0)
    t = interval_type(sp(4, [1], [2], [3, 4]), sp(4, [1, 2], [3, 4]))
    assert type(t) is tuple and t == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        interval_type(sp(4, [1, 3], [2], [4]), sp(4, [1, 2], [3, 4]))


def test_interval_type_invariants():
    # sum k_i = l(pi) and sum i k_i = l(sigma) on every comparable pair
    for n in (3, 4, 5):
        elements = set_partitions(n)
        for pi in elements:
            for sigma in elements:
                if not leq_refinement(sigma, pi):
                    continue
                t = interval_type(sigma, pi)
                assert type(t) is tuple
                assert sum(t) == pi.length
                assert sum(i * k for i, k in enumerate(t, start=1)) == sigma.length


def test_interval_type_from_bottom_is_shape():
    for pi in set_partitions(5):
        t = interval_type(singletons(5), pi)
        mult = {}
        for size in pi.shape().parts:
            mult[size] = mult.get(size, 0) + 1
        assert t == tuple(mult.get(i, 0) for i in range(1, 6))


def test_kreweras_examples():
    assert kreweras_complement(singletons(3)) == single_block(3)
    assert kreweras_complement(single_block(3)) == singletons(3)
    assert kreweras_complement(sp(3, [1, 2], [3])) == sp(3, [1], [2, 3])
    with pytest.raises(ValueError):
        kreweras_complement(sp(4, [1, 3], [2, 4]))
    # the one element of NC(0) is its own complement
    assert kreweras_complement(sp(0)) == sp(0)


def test_kreweras_bijection_and_order_reversal():
    for n in (2, 3, 4, 5, 6):
        elements = noncrossing_partitions(n)
        images = {kreweras_complement(p) for p in elements}
        assert len(images) == len(elements)
        assert all(is_noncrossing(q) for q in images)
        # double complement preserves the shape
        for p in elements:
            assert kreweras_complement(kreweras_complement(p)).shape() == p.shape()
    # order reversal on a comparable pair
    a = sp(4, [1, 2], [3], [4])
    b = sp(4, [1, 2], [3, 4])
    assert leq_refinement(a, b)
    assert leq_refinement(kreweras_complement(b), kreweras_complement(a))


def test_count_by_shape_examples():
    assert count_by_shape(IntegerPartition((2, 1)), Lattice.ALL) == 3
    assert count_by_shape(IntegerPartition((2, 2)), Lattice.NC) == 2
    assert count_by_shape(IntegerPartition((2, 1)), Lattice.INTERVAL) == 2


def test_count_by_shape_refuses_an_unknown_lattice():
    with pytest.raises(ValueError, match="^unknown lattice: 'nc'$"):
        count_by_shape(IntegerPartition((2, 1)), "nc")


def test_count_by_shape_matches_enumeration():
    enumerations = {
        Lattice.ALL: set_partitions,
        Lattice.NC: noncrossing_partitions,
        Lattice.INTERVAL: interval_partitions,
    }
    for n in range(1, 8):
        for lattice, enum in enumerations.items():
            tally: dict[tuple, int] = {}
            for p in enum(n):
                key = p.shape().parts
                tally[key] = tally.get(key, 0) + 1
            for lam in integer_partitions(n):
                expected = count_by_shape(lam, lattice)
                assert expected == tally.get(lam.parts, 0)
                assert expected.denominator == 1


def test_count_by_shape_totals():
    for n in range(1, 9):
        lams = integer_partitions(n)
        assert sum(count_by_shape(l, Lattice.ALL) for l in lams) == BELL[n - 1]
        assert sum(count_by_shape(l, Lattice.INTERVAL) for l in lams) == 2 ** (n - 1)
    for n in range(1, 8):
        lams = integer_partitions(n)
        assert sum(count_by_shape(l, Lattice.NC) for l in lams) == CATALAN[n - 1]


def _kreweras_by_search(partition: SetPartition) -> SetPartition:
    """Coarsest partition of the primed points 1', ..., n' whose union with
    the input stays noncrossing on 1, 1', 2, 2', ..., n, n'; a search over
    every set partition, so only for small n."""
    n = partition.n
    primal = [tuple(2 * x - 1 for x in b) for b in partition.blocks]
    valid = [
        cand
        for cand in set_partitions(n)
        if is_noncrossing(
            SetPartition.from_blocks(2 * n, primal + [tuple(2 * x for x in b) for b in cand.blocks])
        )
    ]
    best = min(valid, key=lambda p: p.length)
    assert all(leq_refinement(other, best) for other in valid)
    return best


def test_kreweras_matches_search():
    for n in range(1, 7):
        for p in noncrossing_partitions(n):
            assert kreweras_complement(p) == _kreweras_by_search(p)


def test_kreweras_blocks_are_canonical():
    for n in range(1, 9):
        for p in noncrossing_partitions(n):
            k = kreweras_complement(p)
            assert k == SetPartition.from_blocks(n, k.blocks)


def test_kreweras_rejects_exactly_the_crossing_partitions():
    for n in range(1, 8):
        for p in set_partitions(n):
            if is_noncrossing(p):
                kreweras_complement(p)
            else:
                with pytest.raises(ValueError):
                    kreweras_complement(p)


def test_kreweras_is_the_coarsest_noncrossing_complement():
    # beyond the search's reach: pi with K(pi) interleaved is noncrossing,
    # and merging any two blocks of K(pi) makes it cross
    rng = random.Random(46)
    for n in (8, 9):
        for p in rng.sample(noncrossing_partitions(n), 40):
            k = kreweras_complement(p)
            primal = [tuple(2 * x - 1 for x in b) for b in p.blocks]
            barred = [tuple(2 * x for x in b) for b in k.blocks]
            assert is_noncrossing(SetPartition.from_blocks(2 * n, primal + barred))
            for i in range(len(barred)):
                for j in range(i + 1, len(barred)):
                    merged = [b for m, b in enumerate(barred) if m not in (i, j)]
                    merged.append(barred[i] + barred[j])
                    assert not is_noncrossing(SetPartition.from_blocks(2 * n, primal + merged))
            assert kreweras_complement(k).shape() == p.shape()


def test_noncrossing_enumeration_matches_filtering():
    for n in range(1, 10):
        expected = [p for p in set_partitions(n) if is_noncrossing(p)]
        assert noncrossing_partitions(n) == expected
    assert len(noncrossing_partitions(10)) == 16796
    with pytest.raises(ValueError):
        noncrossing_partitions(0)
    with pytest.raises(ValueError):
        noncrossing_partitions(13)


def test_enumerations_are_not_kept_after_use():
    # a fresh interpreter, so no earlier test has filled a cache
    script = (
        "import gc, tracemalloc\n"
        "from cumulants.partitions import set_partitions, noncrossing_partitions, interval_partitions\n"
        "from cumulants.parking import enumerate_parking, volume_bruteforce\n"
        "from cumulants.transforms import classical_from_moments, named_sequence\n"
        "tracemalloc.start()\n"
        "for fn, n in ((set_partitions, 8), (noncrossing_partitions, 9), (interval_partitions, 10)):\n"
        "    fn(n)\n"
        "enumerate_parking(6)\n"
        "volume_bruteforce([1] * 6)\n"
        "classical_from_moments(named_sequence(\"u\", 24))\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert int(done.stdout) < 512 * 1024
