"""Every cap of `series.LIMITS` runs at its value and refuses one past it.

The table-driven test runs each capped entry point, library function or
CLI subcommand, at its cap and one past it, where it must be refused with
a message that names the cap.  The static guard reads the source and
fails on a size check whose upper bound is an integer literal, so that a
new cap cannot bypass the table.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

from cumulants.cli import main
from cumulants.lattice import (
    MultiplicativeFunction,
    convolve_lattice,
    mobius_by_recursion,
    verify_theorem,
)
from cumulants.parking import enumerate_parking, volume_bruteforce, volume_bruteforce_symmetric
from cumulants.partitions import (
    Lattice,
    interval_partitions,
    noncrossing_partitions,
    set_partitions,
)
from cumulants.series import LIMITS
from cumulants.transforms import MomentSequence

SRC = Path(__file__).resolve().parents[1] / "src" / "cumulants"
ONES = MomentSequence.constant(1, 8)
ZETA = MultiplicativeFunction.zeta(13)


def cli(command: str):
    """The CLI as an entry point of n: exit 0 returns its JSON, exit 2 raises its message."""

    def call(n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.format(n).split())
        if code == 2:
            assert out.getvalue() == "", command
            raise ValueError(err.getvalue())
        assert (code, err.getvalue()) == (0, ""), command
        return json.loads(out.getvalue())

    return call


def lattice_calls(lattice: Lattice) -> list:
    return [
        lambda n: convolve_lattice(ZETA, ZETA, n, lattice),
        lambda n: mobius_by_recursion(n, lattice),
    ]


# every entry point each cap bounds; `verify --suite volume` runs at its cap
# in test_volume_suite_shape_checks_stop_at_six, and test_cli.py refuses it one past
ENTRY_POINTS = {
    "set partitions": [set_partitions],
    "noncrossing partitions": [noncrossing_partitions],
    "interval partitions": [interval_partitions],
    "parking functions": [
        enumerate_parking,
        lambda n: volume_bruteforce([1] * n),
        lambda n: volume_bruteforce_symmetric(ONES, n),
    ],
    "all": lattice_calls(Lattice.ALL) + [cli("verify --suite lattice --n {}")],
    "nc": lattice_calls(Lattice.NC),
    "interval": lattice_calls(Lattice.INTERVAL),
    "theorem checks": [
        lambda n, which=which: verify_theorem(n, which)
        for which in ("T1", "T2", "T3", "COMMUTATIVITY")
    ],
    "matrix": [
        cli("matrix --nmax {} --kmax 1 --input u"),
        cli("matrix --nmax 1 --kmax {} --input u"),
    ],
    "volume": [cli("volume --n {}")],
    "abel suite": [cli("verify --suite abel --n {}")],
    "transport suite": [cli("verify --suite transport --n {}")],
    "parametrization suite": [cli("verify --suite parametrization --n {}")],
}


def test_every_cap_has_its_entry_points():
    # the one cap that refuses nothing: it stops two checks of the volume suite
    assert set(ENTRY_POINTS) == set(LIMITS) - {"volume shape checks"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_entry_point_runs_at_its_cap_and_refuses_one_past(name):
    cap = LIMITS[name]
    for call in ENTRY_POINTS[name]:
        call(cap)
        with pytest.raises(ValueError, match=rf"\b{cap}$"):
            call(cap + 1)


def test_volume_suite_shape_checks_stop_at_six():
    report = cli("verify --suite volume --n {}")(LIMITS["parking functions"])
    checked = {check["name"]: check["checked"] for check in report["checks"]}
    assert report["n"] == 7 and report["pass"] is True
    assert checked["SHAPE_VS_BRUTEFORCE"] == checked["CATALAN_VOLUME"] == 6


def literal_caps(source: str) -> list[str]:
    """Size checks whose upper bound holds an integer literal.

    They are the bound of a ``check_size`` call, the upper end of a range
    check ``lo <= n <= hi`` and any argument of a ``min`` clamp.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        bound = None
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "check_size":
                limit = [k.value for k in node.keywords if k.arg == "limit"]
                bound = (node.args[1:2] or limit or [None])[0]
            elif name == "min":
                bound = node
        elif isinstance(node, ast.Compare) and len(node.ops) > 1:
            bound = node.comparators[-1]
        if bound is not None and any(
            isinstance(n, ast.Constant) and type(n.value) is int for n in ast.walk(bound)
        ):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_cap_is_an_integer_literal():
    for path in sorted(SRC.glob("*.py")):
        assert literal_caps(path.read_text(encoding="utf-8")) == [], path.name


def test_the_static_guard_finds_literal_caps():
    source = (
        "check_size(n, 6, 'x')\n"
        "check_size(n, what='x', limit=12)\n"
        "ok = 1 <= n <= 24\n"
        "k = range(1, min(n, 6) + 1)\n"
        "check_size(n, LIMITS['a'], 'x')\n"
        "ok = 1 <= n <= LIMITS['a']\n"
        "ok = n < 3\n"
        "k = max(n, 1)\n"
    )
    assert {int(line.split(":")[0]) for line in literal_caps(source)} == {1, 2, 3, 4}
