"""Seeded fuzz test of the CLI boundary, run in-process through cli.main.

Arguments and JSON inputs are drawn from a small grammar: numerals of
every accepted and refused form, sequences and series whose order is
right or wrong, pairs, and malformed JSON, read from stdin or from a
file, a few of which are not UTF-8.  Every subcommand runs on them at
orders up to 8, and every size flag at 0, 1 and one past its limit.
Each argv passes argparse; the contract checked on every case:

- the exit code is 0, 1 or 2, never 3 (an internal error);
- exit 0 or 1 writes one JSON document to stdout and nothing to stderr;
- exit 2 writes nothing to stdout and one ``error:`` line to stderr.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from cumulants.cli import _SUITES, main
from cumulants.series import LIMITS

CASES = 800
MAX_ORDER = 8
THEORIES = ["classical", "boolean", "free", "abel"]
NAMES = ["u", "chi", "epsilon", "ubar", "uD", "bell", "catalan"]
SERIES_OPS = ["add", "mul", "compose", "reciprocal", "revert", "log", "exp"]


def numeral(rng):
    """One JSON entry: mostly exact numerals, sometimes a value the decoder refuses."""
    kind = rng.randrange(10)
    if kind < 3:
        return str(rng.randint(-9, 9))
    if kind == 3:
        return f"{rng.randint(-9, 9)}/{rng.randint(0, 9)}"  # includes n/0
    if kind == 4:
        mantissa = rng.choice(["1", "-2", "2.5", "-0.125", "3"])
        return f"{mantissa}e{rng.choice(['', '+', '-'])}{rng.randint(0, 6)}"
    if kind == 5:
        return rng.choice(["1e5000", "1e-5000", "1e20000000", "1e-20000000", "1e-40", "7E+3"])
    if kind == 6:
        return rng.choice("123456789") * rng.choice([30, 4301])  # past the digit limit or not
    if kind == 7:
        return rng.choice(["2.5", "-0.5", "", "abc", "1/2/3", " 4 ", "0x10"])
    if kind == 8:
        return rng.randint(-5, 5)  # JSON integers are exact too
    return rng.choice([1.5, True, False, None, [1], {"a": 1}])


def entry(rng):
    """A small integer, or now and then any numeral of the grammar."""
    return numeral(rng) if rng.random() < 0.15 else str(rng.randint(-4, 4))


def order_field(rng, order):
    """Usually the right order, sometimes a wrong or mistyped one."""
    if rng.random() < 0.8:
        return order
    return rng.choice([order + 1, order - 1, -1, str(order), float(order), True, None])


def sequence(rng):
    order = rng.randint(0, MAX_ORDER)
    count = order if rng.random() < 0.85 else max(order + rng.choice([-1, 1]), 0)
    return {"order": order_field(rng, order), "values": [entry(rng) for _ in range(count)]}


def series(rng):
    order = rng.randint(0, MAX_ORDER)
    count = order + 1 if rng.random() < 0.85 else order + rng.choice([0, 2])
    coeffs = [entry(rng) for _ in range(count)]
    if coeffs and rng.random() < 0.5:
        coeffs[0] = rng.choice(["0", "1"])
    return {"order": order_field(rng, order), "coeffs": coeffs}


def document(rng, item):
    """JSON text holding one item, or a pair of them when item is a tuple of two."""
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(["", "[", "{", "nan", '{"order": 1,', "[1, 2", "\x00", "{" * 2000])
    if roll < 0.14:
        return json.dumps(rng.choice([[], {}, 3, "u", None, {"order": 1}]))
    if isinstance(item, tuple):
        pair = [item[0](rng), item[1](rng)]
        if rng.random() < 0.1:
            pair = rng.choice([pair[:1], pair + pair[:1]])  # one or three items
        elif rng.random() < 0.5:
            pair[1] = dict(pair[0])  # one order for both, so the pair reaches the computation
        return json.dumps(pair)
    return json.dumps(item(rng))


def size_flag(rng, limit):
    return rng.choice([0, 1, limit + 1, rng.randint(1, min(limit, MAX_ORDER))])


def order_flag(rng):
    return [] if rng.random() < 0.5 else [f"--order={rng.choice([-1, 0, 1, 3, MAX_ORDER, 9])}"]


def multiplier(rng, order):
    kind = rng.randrange(4)
    if kind == 0:
        return "n"
    if kind == 1:
        return numeral(rng) if rng.random() < 0.3 else str(rng.randint(-3, 4))
    count = order if rng.random() < 0.7 else order + 1
    return ",".join(str(rng.randint(-3, 3)) for _ in range(max(count, 1)))


def with_input(rng, argv, item, path):
    """Read the input from stdin or the file at path (JSON text, now and then
    behind a byte that is not UTF-8) or, for single sequences, a named one."""
    if item is sequence and rng.random() < 0.3:
        return argv + [f"--input={rng.choice(NAMES)}"], ""
    text = document(rng, item)
    if rng.random() < 0.7:
        return argv + ["--input=-"], text
    path.write_bytes((b"\xff" if rng.random() < 0.15 else b"") + text.encode("utf-8"))
    return argv + [f"--input={path}"], ""


def draw(rng, path):
    """One (argv, stdin text) case; a file input is written to path."""
    command = rng.choice(["transform", "convolve", "matrix", "series", "volume", "verify"])
    if command in ("transform", "convolve"):
        theory = rng.choice(THEORIES)
        argv = [command, f"--theory={theory}"]
        if command == "transform":
            argv.append(f"--direction={rng.choice(['m2c', 'c2m'])}")
        if (theory == "abel") != (rng.random() < 0.1):
            argv.append(f"--g={multiplier(rng, rng.randint(0, MAX_ORDER))}")
        argv += order_flag(rng)
        item = sequence if command == "transform" else (sequence, sequence)
        return with_input(rng, argv, item, path)
    if command == "matrix":
        argv = [command, f"--nmax={size_flag(rng, LIMITS['matrix'])}",
                f"--kmax={size_flag(rng, LIMITS['matrix'])}"]
        return with_input(rng, argv, sequence, path)
    if command == "volume":
        argv = [command, f"--n={size_flag(rng, LIMITS['volume'])}"]
        if rng.random() < 0.3:
            return argv, ""  # the default input, u
        return with_input(rng, argv, sequence, path)
    if command == "series":
        op = rng.choice(SERIES_OPS)
        item = (series, series) if op in ("add", "mul", "compose") else series
        return with_input(rng, [command, f"--op={op}"], item, path)
    suite = rng.choice(sorted(_SUITES))
    n = rng.choice([0, 1, _SUITES[suite][0] + 1])
    return [command, f"--suite={suite}", f"--n={n}", f"--seed={rng.randint(-5, 5)}"], ""


def test_cli_fuzz_exit_codes_and_streams(capsys, monkeypatch, tmp_path):
    rng = random.Random(20)
    codes = {0: 0, 1: 0, 2: 0}
    for case in range(CASES):
        argv, text = draw(rng, tmp_path / f"input-{case}.json")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit:
            pytest.fail(f"case {case}: argparse refused {argv}")
        out, err = capsys.readouterr()
        where = f"case {case}: {argv} on {text[:200]!r}"
        assert code in codes, f"{where} exited {code}: {err}"
        codes[code] += 1
        if code == 2:
            assert out == "", where
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), where
        else:
            assert err == "", where
            assert out.endswith("\n") and out.count("\n") == 1, where
            json.loads(out)
    # the grammar reaches both sides of the boundary
    assert codes[0] > CASES // 10 and codes[2] > CASES // 10, codes
