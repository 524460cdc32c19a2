"""The immutable value types: equality, hashing, immutability, repr, pickling, start-up,
the benchmark's traced methods and its output checks."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from cumulants.lattice import MultiplicativeFunction
from cumulants.partitions import (
    IntegerPartition,
    SetPartition,
    interval_partitions,
    noncrossing_partitions,
    set_partitions,
)
from cumulants.series import TruncatedSeries
from cumulants.transforms import CumulantMatrix, MomentSequence

HALF = (Fraction(1), Fraction(1, 2))

# class, field values, expected repr
CASES = [
    (IntegerPartition, ((2, 1),), "IntegerPartition(parts=(2, 1))"),
    (SetPartition, (3, ((1, 3), (2,))), "SetPartition(n=3, blocks=((1, 3), (2,)))"),
    (MomentSequence, (HALF,), "MomentSequence(values=(Fraction(1, 1), Fraction(1, 2)))"),
    (CumulantMatrix, ((HALF,),), "CumulantMatrix(entries=((Fraction(1, 1), Fraction(1, 2)),))"),
    (
        MultiplicativeFunction,
        (HALF,),
        "MultiplicativeFunction(values=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (TruncatedSeries, (1, HALF), "TruncatedSeries(1, ['1', '1/2'])"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equality_holds_within_one_class_only(cls, fields, text):
    assert cls(*fields) == cls(*fields)
    assert not cls(*fields) != cls(*fields)
    subclass = type("Sub", (cls,), {})
    assert subclass(*fields) != cls(*fields)
    assert cls(*fields) != subclass(*fields)
    assert cls(*fields) != fields
    for other, other_fields, _ in CASES:
        if other is not cls:
            assert cls(*fields) != other(*other_fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(cls, fields, text):
    assert hash(cls(*fields)) == hash(fields)
    assert {cls(*fields): 1}[cls(*fields)] == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    value = cls(*fields)
    for name in cls.FIELDS:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert value == cls(*fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, text):
    assert repr(cls(*fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, text):
    value = cls(*fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value


def test_integer_partition_validation_messages():
    with pytest.raises(ValueError, match="^parts must be nonincreasing$"):
        IntegerPartition((1, 2))
    with pytest.raises(ValueError, match="^parts must be positive integers$"):
        IntegerPartition((0,))
    assert IntegerPartition([3, 1]).parts == (3, 1)


def test_set_partitions_carry_no_per_object_state():
    partition = set_partitions(4)[7]
    assert not hasattr(partition, "__dict__")
    expected = {x: i for i, block in enumerate(partition.blocks) for x in block}
    index = partition.block_index
    assert index == expected
    index[1] = 99
    assert partition.block_index == expected


@pytest.mark.parametrize(
    "enumerate_", [set_partitions, noncrossing_partitions, interval_partitions],
    ids=lambda f: f.__name__,
)
def test_bulk_built_partitions_are_the_validated_values(enumerate_):
    # the enumerations build through SetPartition.bulk, past __init__ and from_blocks
    for n in range(1, 7):
        for partition in enumerate_(n):
            twin = SetPartition.from_blocks(n, partition.blocks)
            assert type(partition) is SetPartition and partition == twin
            assert hash(partition) == hash(twin) and repr(partition) == repr(twin)
            copied = pickle.loads(pickle.dumps(partition))
            assert type(copied) is SetPartition and copied == partition
            for name in SetPartition.FIELDS:
                with pytest.raises(AttributeError):
                    setattr(partition, name, None)
            assert not hasattr(partition, "__dict__")
    assert SetPartition.bulk(3, []) == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one has imported pytest
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cumulants.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == ""


def test_every_traced_name_resolves():
    # a fresh interpreter, since install patches the package's modules; the CLI
    # calls then show that its commands reach the wrapped functions
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import cumulants.cli
        sys.path.insert(0, {str(root / 'bench')!r})
        import tracing
        tracer = tracing.Tracer()
        print(tracing.install(tracer), sum(len(names) for names in tracing.TRACED.values()))
        pair = '[{{"order": 2, "values": ["1", "2"]}}, {{"order": 2, "values": ["0", "1"]}}]'
        sys.stdin = io.StringIO(pair)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cumulants.cli.main(["transform", "--theory", "abel", "--direction", "m2c",
                                    "--g", "n", "--input", "u", "--order", "6"]),
                cumulants.cli.main(["convolve", "--theory", "free"]),
            ]
        print(*codes)
        print(*sorted(tracer.summarize()["per_name"]))
    """)
    env = dict(
        os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    counts, codes, names = done.stdout.splitlines()
    wrapped, listed = map(int, counts.split())
    assert wrapped == listed > 0
    assert codes == "0 0"
    assert {
        "transforms.generalized_cumulants",
        "transforms.free_convolve",
        "transforms.free_from_moments",
    } <= set(names.split())


def test_benchmark_output_checks_pass_their_self_test():
    # bench/selftest.py runs one round of every workload through the program and
    # its independent output checks: each must accept the true output and reject
    # perturbed copies; a fresh interpreter, as the benchmark's children are
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "selftest.py")], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "selftest: passed"
