"""Command line behaviour: JSON contracts, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cumulants import cli
from cumulants.cli import main
from cumulants.series import LIMITS, TruncatedSeries, as_fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, interpreter=(), **kwargs):
    """``python -m cumulants.cli`` in a fresh interpreter, on this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    command = [sys.executable, *interpreter, "-m", "cumulants.cli", *argv]
    return subprocess.run(command, capture_output=True, env=env, timeout=30, **kwargs)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sequence(*values):
    return {"order": len(values), "values": [str(v) for v in values]}


# ---------------------------------------------------------------------------
# transform


def test_transform_named_input(capsys):
    data = run_json(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "bell", "--order", "5",
    )
    assert data == {"order": 5, "values": ["1", "1", "1", "1", "1"]}
    data = run_json(
        capsys, "transform", "--theory", "classical", "--direction", "c2m",
        "--input", "u", "--order", "5",
    )
    assert data == {"order": 5, "values": ["1", "2", "5", "15", "52"]}
    data = run_json(
        capsys, "transform", "--theory", "free", "--direction", "m2c",
        "--input", "catalan", "--order", "4",
    )
    assert data == {"order": 4, "values": ["1", "1", "1", "1"]}
    data = run_json(
        capsys, "transform", "--theory", "boolean", "--direction", "c2m",
        "--input", "u", "--order", "5",
    )
    assert data == {"order": 5, "values": ["1", "2", "4", "8", "16"]}
    data = run_json(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "chi", "--order", "0",
    )
    assert data == {"order": 0, "values": []}


def test_transform_file_input(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", sequence(1, 3))
    data = run_json(
        capsys, "transform", "--theory", "boolean", "--direction", "m2c",
        "--input", path,
    )
    assert data == {"order": 2, "values": ["1", "2"]}
    # --order may truncate a longer input
    path = write_json(tmp_path, "long.json", sequence(1, 3, 9))
    data = run_json(
        capsys, "transform", "--theory", "boolean", "--direction", "m2c",
        "--input", path, "--order", "2",
    )
    assert data == {"order": 2, "values": ["1", "2"]}


def test_transform_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sequence(1, 1))))
    data = run_json(capsys, "transform", "--theory", "classical", "--direction", "m2c")
    assert data == {"order": 2, "values": ["1", "0"]}


def test_transform_abel_multipliers(capsys):
    # constant multiplier 1 is the classical transform
    classical = run_json(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "bell", "--order", "4",
    )
    abel = run_json(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--g", "1", "--input", "bell", "--order", "4",
    )
    assert abel == classical
    # g_n = n on the barred ones sequence inverts to barred Catalan moments
    data = run_json(
        capsys, "transform", "--theory", "abel", "--direction", "c2m",
        "--g", "n", "--input", "ubar", "--order", "4",
    )
    assert data == {"order": 4, "values": ["1", "4", "30", "336"]}
    # explicit per-degree list
    data = run_json(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--g", "1,1,1", "--input", "bell", "--order", "3",
    )
    assert data == {"order": 3, "values": ["1", "1", "1"]}


def test_transform_usage_errors(capsys, tmp_path):
    # named input without --order
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "bell",
    )
    assert code == 2 and out == "" and "order" in err
    # --g on a fixed theory
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--g", "2", "--input", "u", "--order", "3",
    )
    assert code == 2 and out == ""
    # abel without --g
    code, out, err = run(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--input", "u", "--order", "3",
    )
    assert code == 2 and out == ""
    # multiplier list of the wrong length
    code, out, err = run(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--g", "1,2", "--input", "u", "--order", "3",
    )
    assert code == 2 and out == ""
    # order above the input length
    path = write_json(tmp_path, "short.json", sequence(1, 2))
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", path, "--order", "5",
    )
    assert code == 2 and out == ""
    # malformed JSON and non-exact values
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", str(bad),
    )
    assert code == 2 and out == "" and err != ""
    floaty = write_json(tmp_path, "floaty.json", {"order": 1, "values": [0.5]})
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", floaty,
    )
    assert code == 2 and out == ""
    missing = str(tmp_path / "missing.json")
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", missing,
    )
    assert code == 2 and out == ""


def test_transform_rejects_json_booleans(capsys, tmp_path):
    for name, payload, field in [
        ("order.json", {"order": True, "values": ["3"]}, "'order'"),
        ("values.json", {"order": 2, "values": [True, False]}, "'values'"),
        ("string.json", {"order": 3, "values": "123"}, "'values'"),
        ("zero.json", {"order": 1, "values": ["1/0"]}, "'values'"),
        ("negative.json", {"order": -1, "values": []}, "'order'"),
    ]:
        path = write_json(tmp_path, name, payload)
        code, out, err = run(
            capsys, "transform", "--theory", "classical", "--direction", "m2c",
            "--input", path,
        )
        assert code == 2 and out == "" and field in err, (payload, err)


@pytest.mark.parametrize("huge", ["1e20000000", "1e-20000000", "1e5000"])
def test_exponent_past_the_digit_limit_is_a_usage_error(capsys, monkeypatch, huge):
    # Fraction would build 10**exponent first; a plain numeral that long is refused
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"order": 1, "values": [huge]})))
    start = time.perf_counter()
    code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
    assert code == 2 and out == "" and "sequence 'values'" in err, err
    code, out, err = run(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--g", huge, "--input", "u", "--order", "2",
    )
    assert code == 2 and out == "" and "--g" in err, err
    assert time.perf_counter() - start < 1.0


def test_exponent_too_long_for_int_is_refused_at_once(capsys, monkeypatch):
    # a 5000-digit exponent is a digit run past the limit: as_fraction refuses it before any int()
    huge = "1e" + "9" * 5000
    start = time.perf_counter()
    with pytest.raises(ValueError):
        as_fraction(huge)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"order": 1, "values": [huge]})))
    code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
    assert code == 2 and out == "", err
    assert err.startswith("error: sequence 'values': Exceeds the limit (4300 digits) "), err
    assert time.perf_counter() - start < 1.0


def test_exponent_cap_holds_with_the_digit_limit_off():
    # the limit reads 0 when off, so the cap falls back to CPython's default of 4300 digits
    off = ("-X", "int_max_str_digits=0")
    transform = ("transform", "--theory", "classical", "--direction", "m2c")
    huge = json.dumps({"order": 1, "values": ["1e20000000"]}).encode()
    done = run_process(*transform, interpreter=off, input=huge)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: sequence 'values': exponent 20000000 writes out past 4300 digits\n"
    done = run_process(*transform, interpreter=off, input=b'{"order": 1, "values": ["1e4000"]}')
    assert done.returncode == 0 and json.loads(done.stdout)["values"] == ["1" + "0" * 4000]


# each digit run of a numeral: numerator, denominator, decimals, exponent
LONG_RUNS = ["9" * 400_000, "1/" + "7" * 400_000, "0." + "3" * 400_000, "1e" + "9" * 400_000]


def test_long_digit_runs_are_refused_with_the_digit_limit_off(capsys, monkeypatch):
    # int() and Fraction() would read each run in quadratic time, with no limit to stop them
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for huge in LONG_RUNS + ["-" + "1_2" * 200_000]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\) "):
                as_fraction(huge)
            doc = json.dumps({"order": 1, "values": [huge]})
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
            assert code == 2 and out == "" and "(4300 digits)" in err, err[:200]
            assert err.startswith("error: sequence 'values': ") and err.count("\n") == 1
            assert time.perf_counter() - start < 1.0, huge[:10]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("sign", ["", "-"])
def test_long_exponents_are_refused_in_one_short_line(capsys, monkeypatch, sign):
    # an exponent run at the digit cap passes it, and is named by its length, not written out
    huge = "1e" + sign + "9" * 4300
    words = ("negative " if sign else "") + "exponent of 4300 digits writes out past 4300 digits"
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (4300, 0):
            sys.set_int_max_str_digits(setting)
            with pytest.raises(ValueError) as info:
                as_fraction(huge)
            assert str(info.value) == words
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sequence(huge, 1))))
            code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
            assert (code, out) == (2, "") and err == f"error: sequence 'values': {words}\n"
            assert len(err) < 100
    finally:
        sys.set_int_max_str_digits(limit)


def test_numerals_at_the_digit_limit_are_read_with_it_on_or_off():
    at_limit = ["9" * 4300, "1/" + "7" * 4300, "0." + "3" * 4300, "1_2" * 2150, "1e4000"]
    want = [Fraction(s) for s in at_limit]
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (4300, 0):
            sys.set_int_max_str_digits(setting)
            assert [as_fraction(s) for s in at_limit] == want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "text",
    [
        '{"order": 1, "values": [' + "9" * 5000 + "]}",  # a JSON number past the digit limit
        "[" * 100_000,  # nesting past the decoder's recursion limit
    ],
    ids=["long-number", "deep-nesting"],
)
def test_json_the_decoder_refuses_is_a_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
    assert code == 2 and out == "" and err.startswith("error: malformed JSON input: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("theory, small", [("classical", "1e-4000"), ("free", "1e-2200")])
def test_result_past_the_digit_limit_is_a_usage_error(capsys, monkeypatch, theory, small):
    # a short input whose cumulants have denominators past 4,300 digits
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sequence(small, 1))))
    code, out, err = run(capsys, "transform", "--theory", theory, "--direction", "m2c")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: result too large to write out: ") and "Exceeds the limit" in err


@pytest.mark.parametrize("text, value, c_2", [("1e3", "1000", "-999"), ("2.5", "5/2", "-3/2")])
def test_exponent_and_decimal_notation_are_accepted(capsys, monkeypatch, text, value, c_2):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"order": 1, "values": [text]})))
    data = run_json(capsys, "transform", "--theory", "classical", "--direction", "c2m")
    assert data == {"order": 1, "values": [value]}
    data = run_json(
        capsys, "transform", "--theory", "abel", "--direction", "m2c",
        "--g", text, "--input", "u", "--order", "2",
    )
    assert data == {"order": 2, "values": ["1", c_2]}


@pytest.mark.parametrize("text", ["1e", "2E+", "1e5x", "1e1.5"])
def test_malformed_exponents_are_left_to_fraction(capsys, monkeypatch, text):
    # int() refuses the exponent, so the exponent cap passes it on and Fraction names the numeral
    words = f"Invalid literal for Fraction: {text!r}"
    with pytest.raises(ValueError) as info:
        as_fraction(text)
    assert str(info.value) == words
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sequence(text))))
    code, out, err = run(capsys, "transform", "--theory", "classical", "--direction", "m2c")
    assert (code, out) == (2, "") and err == f"error: sequence 'values': {words}\n"


# ---------------------------------------------------------------------------
# convolve


def test_convolve(capsys, tmp_path):
    path = write_json(tmp_path, "pair.json", [sequence(1, 1), sequence(1, 1)])
    data = run_json(capsys, "convolve", "--theory", "classical", "--input", path)
    assert data == {"order": 2, "values": ["2", "4"]}
    path = write_json(
        tmp_path, "free.json", [sequence(0, 1, 0, 2), sequence(0, 1, 0, 2)]
    )
    data = run_json(capsys, "convolve", "--theory", "free", "--input", path)
    assert data == {"order": 4, "values": ["0", "2", "0", "8"]}
    # g_n = n reproduces the free convolution on barred sequences
    barred = write_json(
        tmp_path, "barred.json", [sequence(0, 2, 0, 48), sequence(0, 2, 0, 48)]
    )
    data = run_json(
        capsys, "convolve", "--theory", "abel", "--g", "n", "--input", barred
    )
    assert data == {"order": 4, "values": ["0", "4", "0", "192"]}


def test_convolve_errors(capsys, tmp_path):
    path = write_json(tmp_path, "one.json", [sequence(1, 1)])
    code, out, err = run(capsys, "convolve", "--theory", "classical", "--input", path)
    assert code == 2 and out == ""
    path = write_json(tmp_path, "mismatch.json", [sequence(1, 1), sequence(1)])
    code, out, err = run(capsys, "convolve", "--theory", "classical", "--input", path)
    assert code == 2 and out == ""


# ---------------------------------------------------------------------------
# matrix


def test_matrix(capsys):
    data = run_json(
        capsys, "matrix", "--nmax", "4", "--kmax", "3", "--input", "bell"
    )
    assert data["rows"] == 4 and data["cols"] == 3
    assert data["entries"][0] == ["1", "1", "1"]
    assert data["entries"][1][0] == "1"
    assert data["entries"][1][1] == "0"


def test_matrix_bounds(capsys):
    code, out, err = run(
        capsys, "matrix", "--nmax", "13", "--kmax", "3", "--input", "bell"
    )
    assert code == 2 and out == ""
    code, out, err = run(
        capsys, "matrix", "--nmax", "4", "--kmax", "0", "--input", "bell"
    )
    assert code == 2 and out == ""


def test_matrix_and_volume_read_their_input_at_their_size(capsys, monkeypatch, tmp_path):
    # the size flag fixes how much input is read, so neither command takes --order
    for argv in (["matrix", "--nmax", "3", "--kmax", "2", "--input", "u"], ["volume", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--order", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order 3" in capsys.readouterr().err
    # an input shorter than the size is refused, from a file or from stdin
    short = write_json(tmp_path, "short.json", sequence(1, 2))
    for argv in (("matrix", "--nmax", "3", "--kmax", "2"), ("volume", "--n", "3")):
        code, out, err = run(capsys, *argv, "--input", short)
        assert (code, out, err) == (2, "", "error: requested order 3 exceeds input order 2\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(sequence(1, 2))))
        code, out, err = run(capsys, *argv, "--input", "-")
        assert (code, out, err) == (2, "", "error: requested order 3 exceeds input order 2\n")
    # a longer one is read to the size, as the named sequence at that order
    longer = write_json(tmp_path, "catalan.json", sequence(1, 2, 5, 14, 42, 132))
    for argv in (("matrix", "--nmax", "4", "--kmax", "2"), ("volume", "--n", "4")):
        code, out, err = run(capsys, *argv, "--input", "catalan")
        assert (code, out, err) == run(capsys, *argv, "--input", longer) and code == 0


# ---------------------------------------------------------------------------
# series


def series_json(order, coeffs):
    return {"order": order, "coeffs": [str(c) for c in coeffs]}


def test_series_operations(capsys, tmp_path):
    pair = write_json(
        tmp_path, "pair.json", [series_json(2, [1, 1, 0]), series_json(2, [1, -1, 0])]
    )
    data = run_json(capsys, "series", "--op", "mul", "--input", pair)
    assert data == series_json(2, [1, 0, -1])
    data = run_json(capsys, "series", "--op", "add", "--input", pair)
    assert data == series_json(2, [2, 0, 0])

    one_minus_t = write_json(tmp_path, "f.json", series_json(3, [1, -1, 0, 0]))
    data = run_json(capsys, "series", "--op", "reciprocal", "--input", one_minus_t)
    assert data == series_json(3, [1, 1, 1, 1])

    equals = write_json(tmp_path, "g.json", series_json(3, [0, 1, -1, 1]))
    data = run_json(capsys, "series", "--op", "revert", "--input", equals)
    assert data == series_json(3, [0, 1, 1, 1])

    expt = write_json(tmp_path, "e.json", series_json(3, ["1", "1", "1/2", "1/6"]))
    data = run_json(capsys, "series", "--op", "log", "--input", expt)
    assert data == series_json(3, [0, 1, 0, 0])

    tser = write_json(tmp_path, "t.json", series_json(3, [0, 1, 0, 0]))
    data = run_json(capsys, "series", "--op", "exp", "--input", tser)
    assert data == series_json(3, ["1", "1", "1/2", "1/6"])

    comp = write_json(
        tmp_path, "c.json", [series_json(2, [1, 2, 4]), series_json(2, [0, 1, 1])]
    )
    data = run_json(capsys, "series", "--op", "compose", "--input", comp)
    assert data == series_json(2, [1, 2, 6])


def test_series_revert_at_order_zero(capsys, tmp_path):
    zero = write_json(tmp_path, "zero.json", series_json(0, [0]))
    assert run_json(capsys, "series", "--op", "revert", "--input", zero) == series_json(0, [0])


def test_series_errors(capsys, tmp_path):
    zero = write_json(tmp_path, "zero.json", series_json(2, [0, 1, 1]))
    code, out, err = run(capsys, "series", "--op", "reciprocal", "--input", zero)
    assert code == 2 and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["series", "--op", "sqrt", "--input", zero])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("op, payload, message", [
    ("reciprocal", series_json(2, [0, 1, 1]), "series with zero constant term has no reciprocal"),
    ("compose", [series_json(1, [1, 1]), series_json(1, [1, 1])],
     "composition requires a delta series (zero constant term)"),
    ("revert", series_json(2, [1, 1, 0]), "reversion requires a delta series"),
    ("revert", series_json(2, [0, 0, 1]), "no compositional inverse: linear coefficient is zero"),
    ("log", series_json(1, [2, 1]), "log requires constant term 1"),
    ("exp", series_json(1, [1, 1]), "exp requires a delta series"),
    ("add", [series_json(1, [1, 1]), series_json(2, [1, 1, 1])], "series order mismatch: 1 != 2"),
    ("mul", [series_json(2, [1, 1, 1]), series_json(1, [1, 1])], "series order mismatch: 2 != 1"),
    ("compose", [series_json(1, [1, 1]), series_json(2, [0, 1, 1])],
     "series order mismatch: 1 != 2"),
])
def test_series_refusals_exit_two(capsys, tmp_path, op, payload, message):
    path = write_json(tmp_path, "in.json", payload)
    code, out, err = run(capsys, "series", "--op", op, "--input", path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_series_computation_error_exits_three(capsys, monkeypatch, tmp_path):
    # only the documented refusals are usage errors; any other ValueError
    # from the series code is an internal error
    def broken(self):
        raise ValueError("exp went wrong")

    monkeypatch.setattr(TruncatedSeries, "exp", broken)
    path = write_json(tmp_path, "t.json", series_json(2, [0, 1, 0]))
    code, out, err = run(capsys, "series", "--op", "exp", "--input", path)
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: exp went wrong\n"


def test_series_rejects_json_booleans(capsys, tmp_path):
    for name, payload, field in [
        ("order.json", {"order": True, "coeffs": ["0", "3"]}, "'order'"),
        ("coeffs.json", {"order": 1, "coeffs": [False, True]}, "'coeffs'"),
        ("negative.json", {"order": -1, "coeffs": []}, "'order'"),
    ]:
        path = write_json(tmp_path, name, payload)
        code, out, err = run(capsys, "series", "--op", "revert", "--input", path)
        assert code == 2 and out == "" and field in err, (payload, err)


# ---------------------------------------------------------------------------
# volume


def test_volume_defaults_to_ones(capsys):
    data = run_json(capsys, "volume", "--n", "3")
    assert data == {
        "n": 3,
        "shape_volumes": ["1", "3/2", "8/3"],
        "orbit_moments": ["1", "2", "5"],
    }


def test_volume_with_input(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", sequence(1, 1, 1))
    data = run_json(capsys, "volume", "--n", "3", "--input", path)
    assert data["orbit_moments"] == ["1", "2", "5"]
    code, out, err = run(capsys, "volume", "--n", "5", "--input", path)
    assert code == 2 and out == ""
    code, out, err = run(capsys, "volume", "--n", "0")
    assert code == 2 and out == ""


def test_volume_cap(capsys, tmp_path):
    cap = LIMITS["volume"]
    assert cap >= 7
    # rejected before the input is read
    missing = str(tmp_path / "missing.json")
    for argv in (["--n", str(cap + 1)], ["--n", "45", "--input", missing]):
        code, out, err = run(capsys, "volume", *argv)
        assert code == 2 and out == "" and str(cap) in err
    data = run_json(capsys, "volume", "--n", "7")
    assert data["orbit_moments"][-1] == "429"


# ---------------------------------------------------------------------------
# --input help

# the other arguments each subcommand needs to run on `--input u`
INPUT_U = {
    "transform": ["--theory", "free", "--direction", "m2c", "--order", "3"],
    "convolve": ["--theory", "free", "--order", "3"],
    "matrix": ["--nmax", "3", "--kmax", "2"],
    "series": ["--op", "exp"],
    "volume": ["--n", "3"],
}


def input_help(capsys, command) -> str:
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    return text.split("--input INPUT ", 1)[1].split(" --output OUTPUT", 1)[0]


@pytest.mark.parametrize("command", sorted(INPUT_U))
def test_input_help_offers_named_sequences_only_where_they_are_read(
    capsys, monkeypatch, tmp_path, command
):
    monkeypatch.chdir(tmp_path)  # no file named u
    source = input_help(capsys, command)
    offered = "named sequence" in source
    assert offered == (command in ("transform", "matrix", "volume")), source
    assert ("'u' when not given" in source) == (command == "volume"), source
    code, out, err = run(capsys, command, *INPUT_U[command], "--input", "u")
    if offered:
        assert (code, err) == (0, "") and json.loads(out)
    else:
        assert (code, out) == (2, "") and err.startswith("error: cannot read input 'u': "), err


# ---------------------------------------------------------------------------
# help on every option

# each capped option, with the caps of series.LIMITS its help names: one per
# suite for verify --n, written as "<suite> 1..<cap>"
CAPPED_OPTIONS = {
    ("matrix", "--nmax"): {"": "matrix"},
    ("matrix", "--kmax"): {"": "matrix"},
    ("volume", "--n"): {"": "volume"},
    ("verify", "--n"): {
        "lattice ": "all",
        "abel ": "abel suite",
        "volume ": "parking functions",
        "transport ": "transport suite",
        "parametrization ": "parametrization suite",
    },
}


def option_help(parser, command=None):
    """(command, flags, help) for every action of the parser and its subcommands."""
    for action in parser._actions:
        yield command, tuple(action.option_strings), action.help
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from option_help(sub, name)


def test_every_option_has_help_and_names_its_cap():
    actions = list(option_help(cli._build_parser()))
    assert len(actions) > 30
    missing = [(command, flags) for command, flags, text in actions if not text]
    assert missing == []
    helps = {(command, flag): text for command, flags, text in actions for flag in flags}
    assert {suite.strip() for suite in CAPPED_OPTIONS["verify", "--n"]} == set(cli._SUITES)
    for option, caps in CAPPED_OPTIONS.items():
        for prefix, cap in caps.items():
            assert f"{prefix}1..{LIMITS[cap]}" in helps[option], (option, cap)


# ---------------------------------------------------------------------------
# verify


# SHA-256 of each suite's stdout, fixed when the suites were last
# refactored; any change to a suite's output bytes shows up here
VERIFY_DIGESTS = {
    "lattice": "8f82b35239e6688770a2ce7cfb8b9ee6e083a6339994f062deca74ee139b6deb",
    "abel": "db8f341b293a9a74d073fc09696b88b0904dc1bb6f49c0c8afa661e9dc65db21",
    "volume": "da36ce9a6ecf00051116f7af0dc678bc6f4312780e0af8e240a3145e17816ef2",
    "transport": "070398d9301e15867a1b5c63c5996b779d4d76b1c3aeebf7f895fb27cfc73c34",
    "parametrization": "883030c5336cd40fa7f2f71dd8829ecb18ee6bc566bf1ef1cbc6926b0f6e223c",
}


def test_verify_suites_pass(capsys):
    for suite, n in [
        ("lattice", 4),
        ("abel", 4),
        ("volume", 5),
        ("transport", 8),
        ("parametrization", 7),
    ]:
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(n))
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["suite"] == suite
        assert data["pass"] is True
        assert data["checks"]
        assert all(check["pass"] for check in data["checks"])
        assert "first_failure" not in data
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


def test_verify_range_is_checked_before_the_suite_runs(capsys, monkeypatch):
    limits = {"lattice": 7, "abel": 12, "volume": 7, "transport": 12, "parametrization": 12}
    for suite, limit in limits.items():
        monkeypatch.setitem(cli._SUITES, suite, (cli._SUITES[suite][0], None))  # never called
        for n in (0, limit + 1):
            code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(n))
            assert (code, out) == (2, "")
            assert err == f"error: {suite} suite supports 1 <= n <= {limit}\n"


def test_verify_exit_codes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "abel", "--n", "13")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "verify", "--suite", "lattice", "--n", "0")
    assert code == 2 and out == ""


def test_abel_suite_runs_past_six(capsys):
    code, out, err = run(capsys, "verify", "--suite", "abel", "--n", "7")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    def rigged(n, seed):
        return [{"name": "RIGGED", "pass": False}]

    monkeypatch.setitem(cli._SUITES, "lattice", (7, rigged))
    code, out, err = run(capsys, "verify", "--suite", "lattice", "--n", "3")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert data["first_failure"] == "RIGGED"


def test_verify_deterministic_output(capsys):
    first = run(capsys, "verify", "--suite", "abel", "--n", "3")
    second = run(capsys, "verify", "--suite", "abel", "--n", "3")
    assert first == second
    third = run(capsys, "verify", "--suite", "abel", "--n", "3", "--seed", "1")
    assert third[0] == 0
    assert third[1] != first[1] or json.loads(third[1])["pass"] is True


# ---------------------------------------------------------------------------
# output plumbing


def test_output_to_file(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "bell", "--order", "3", "--output", str(out_path),
    )
    assert code == 0 and out == "" and err == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"order": 3, "values": ["1", "1", "1"]}


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    # a missing directory and a directory itself, as --input already treats them
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(
            capsys, "transform", "--theory", "classical", "--direction", "m2c",
            "--input", "u", "--order", "3", "--output", str(target),
        )
        assert code == 2 and out == "", (target, err)
        assert err.startswith(f"error: cannot write output {str(target)!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_stdout_carries_json_only(capsys):
    code, out, err = run(
        capsys, "transform", "--theory", "free", "--direction", "c2m",
        "--input", "u", "--order", "6",
    )
    assert code == 0
    assert err == ""
    assert out == json.dumps({"order": 6, "values": ["1", "2", "5", "14", "42", "132"]}) + "\n"


# ---------------------------------------------------------------------------
# exit codes and counterexamples


def test_negative_order_is_a_usage_error(capsys, tmp_path):
    path = write_json(tmp_path, "seq.json", sequence(1, 2, 3))
    pair = write_json(tmp_path, "pair.json", [sequence(1, 2), sequence(3, 4)])
    for argv in [
        ("transform", "--theory", "classical", "--direction", "m2c",
         "--input", "catalan", "--order", "-1"),
        ("transform", "--theory", "free", "--direction", "c2m",
         "--input", path, "--order", "-2"),
        ("convolve", "--theory", "boolean", "--input", pair, "--order", "-1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--order" in err, (argv, err)


def test_undecodable_input_is_a_usage_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in [
        ("transform", "--theory", "classical", "--direction", "m2c"),
        ("convolve", "--theory", "free"),
        ("matrix", "--nmax", "2", "--kmax", "2"),
        ("series", "--op", "exp"),
        ("volume", "--n", "2"),
    ]:
        for spec in (str(path), "-"):
            # stdin is strict too, as under PYTHONIOENCODING=utf-8:strict
            stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run(capsys, *argv, "--input", spec)
            assert code == 2 and out == "", (argv, spec, err)
            assert err.startswith(f"error: cannot read input {spec!r}: 'utf-8' codec")
            assert err.count("\n") == 1, err


def test_closed_standard_streams_are_usage_errors(capsys, monkeypatch, tmp_path):
    # Python sets sys.stdin or sys.stdout to None when that descriptor is closed at start-up
    transform = ("transform", "--theory", "free", "--direction", "m2c")
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, *transform, "--input", "-")
    assert (code, out, err) == (2, "", "error: cannot read input '-': stdin is closed\n")
    series = write_json(tmp_path, "series.json", {"order": 1, "coeffs": ["0", "1"]})
    pair = write_json(tmp_path, "pair.json", [sequence(1, 2), sequence(3, 4)])
    monkeypatch.setattr("sys.stdout", None)
    for argv in [
        transform + ("--input", "catalan", "--order", "3"),
        ("convolve", "--theory", "free", "--input", pair),
        ("matrix", "--nmax", "2", "--kmax", "2", "--input", "bell"),
        ("series", "--op", "exp", "--input", series),
        ("volume", "--n", "2"),
        ("verify", "--suite", "lattice", "--n", "2"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "error: cannot write output '-': stdout is closed\n"), argv


def test_failed_write_to_stdout_is_a_usage_error(capsys, monkeypatch):
    # a reader that went away, or a full disk, as an unwritable --output file
    class Broken:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", Broken())
    code, out, err = run(capsys, "matrix", "--nmax", "2", "--kmax", "2", "--input", "bell")
    assert (code, err) == (2, "error: cannot write output '-': [Errno 32] Broken pipe\n")


def test_diagnostics_never_reach_stdout(tmp_path):
    # descriptor 2 closed at start-up: sys.stderr is None, and print would fall back to stdout
    missing = str(tmp_path / "missing.json")
    argv = ("transform", "--theory", "free", "--direction", "m2c", "--input", missing)
    done = run_process(*argv, preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stdout) == (2, b"")


def test_unwritable_stderr_keeps_the_exit_code(capsys, monkeypatch):
    # a shell's 2>&- can leave sys.stderr open on a closed descriptor
    class Closed:
        def write(self, text):
            raise OSError(errno.EBADF, "Bad file descriptor")

    def broken(args):
        raise ValueError("shape sum went wrong")

    monkeypatch.setattr(cli, "_cmd_transform", broken)
    transform = ("transform", "--theory", "free", "--direction", "m2c", "--input", "u")
    for stderr in (Closed(), None):
        monkeypatch.setattr("sys.stderr", stderr)
        assert run(capsys, "matrix", "--nmax", "0", "--kmax", "2")[:2] == (2, "")
        assert run(capsys, *transform, "--order", "3")[:2] == (3, "")


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(args):
        raise ValueError("shape sum went wrong")

    monkeypatch.setattr(cli, "_cmd_transform", broken)
    code, out, err = run(
        capsys, "transform", "--theory", "classical", "--direction", "m2c",
        "--input", "u", "--order", "3",
    )
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: shape sum went wrong\n"


def test_volume_computation_error_exits_three(capsys, monkeypatch):
    # the tables are computed before any value is written out, so a ValueError
    # from the computation stays an internal error
    def broken(seq, k):
        raise ValueError("volume went wrong")

    monkeypatch.setattr(cli, "volume_shape_eval", broken)
    code, out, err = run(capsys, "volume", "--n", "3")
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: volume went wrong\n"


def test_failing_check_reports_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("cumulants.lattice.abel_oracle", lambda seq, g, m: Fraction(10**6))
    code, out, err = run(capsys, "verify", "--suite", "abel", "--n", "3", "--seed", "7")
    assert code == 1
    data = json.loads(out)
    first = data["checks"][0]
    assert data["first_failure"] == first["name"] == "g=0"
    assert first["pass"] is False and first["checked"] == 1
    # c_1 = a_1, the first value drawn from the seed
    rng = random.Random(7)
    a_1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    assert first["counterexample"] == {
        "seed": 7, "case": 0, "expected": "1000000", "got": str(a_1),
    }

    monkeypatch.setattr("cumulants.lattice.moments_via_volume", lambda seq: seq.scaled(2))
    data = json.loads(run(capsys, "verify", "--suite", "volume", "--n", "2")[1])
    (check,) = [c for c in data["checks"] if c["name"] == "MOMENTS_VIA_VOLUME"]
    example = check["counterexample"]
    assert example["seed"] == 0 and example["case"] == 0
    assert example["expected"]["order"] == example["got"]["order"] == 8
    assert example["got"]["values"] == [
        str(2**k * Fraction(v)) for k, v in enumerate(example["expected"]["values"], start=1)
    ]


def test_parking_count_reports_a_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("cumulants.lattice.volume_bruteforce", lambda values: 0)
    code, out, err = run(capsys, "verify", "--suite", "volume", "--n", "3")
    assert code == 1
    data = json.loads(out)
    check = data["checks"][0]
    assert data["first_failure"] == check["name"] == "PARKING_COUNT"
    assert check["pass"] is False and check["checked"] == 1
    # 4^2 parking functions of length 3
    assert check["counterexample"] == {"seed": 0, "case": 0, "expected": "16", "got": "0"}


def test_catalan_transport_reports_a_counterexample(capsys, monkeypatch):
    from cumulants import lattice

    real = lattice.boolean_free_transport
    monkeypatch.setattr(lattice, "boolean_free_transport", lambda m: real(m).scaled(2))
    code, out, err = run(capsys, "verify", "--suite", "transport", "--n", "3")
    assert code == 1
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "CATALAN_TRANSPORT"]
    assert check["pass"] is False and check["checked"] == 1
    assert check["counterexample"] == {
        "seed": 0,
        "case": 0,
        "expected": {"order": 3, "values": ["-1", "0", "0"]},
        "got": {"order": 3, "values": ["-2", "0", "0"]},
    }


@pytest.mark.parametrize("which", ["T1", "T2", "T3"])
def test_lattice_suite_keeps_theorem_counterexamples(capsys, monkeypatch, which):
    from cumulants import lattice

    real = lattice.convolve_lattice
    monkeypatch.setattr(lattice, "convolve_lattice", lambda f, g, n, kind: real(f, g, n, kind) + 1)
    code, out, err = run(capsys, "verify", "--suite", "lattice", "--n", "3")
    assert code == 1
    check = next(c for c in json.loads(out)["checks"] if c["name"] == which)
    assert check["pass"] is False
    # the first pair already fails: the degree-1 composition coefficient 0
    # for T1 and T3, the first free cumulant of seed 0's moments (1) for T2
    expected = {"T1": "0", "T2": "1", "T3": "0"}[which]
    got = str(int(expected) + 1)
    assert check["counterexample"] == {"seed": 0, "case": 0, "expected": expected, "got": got}
