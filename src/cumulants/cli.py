"""Command line interface: exact JSON in, exact JSON out.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors,
3 an internal error, reported as one ``internal error: <Type>: <message>``
line on stderr.  Only the JSON result goes to stdout; diagnostics go to
stderr, or nowhere when it is closed.  The verification suites are
`lattice.SUITES`; they run from a fixed default seed, so output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lattice import SUITES as _SUITES
from .parking import orbit_moment_eval, volume_shape_eval
from .series import LIMITS, DomainError, TruncatedSeries, as_fraction
from .transforms import (
    MomentSequence,
    MultiplierSequence,
    _NAMED,
    boolean_convolve,
    boolean_from_moments,
    classical_convolve,
    classical_from_moments,
    cumulant_matrix,
    free_convolve,
    free_from_moments,
    gamma_convolve,
    generalized_cumulants,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_from_generalized,
    named_sequence,
)


class UsageError(Exception):
    pass


def _read_input(spec: str) -> str:
    try:
        if spec == "-":
            if sys.stdin is None:  # descriptor 0 was closed when the process started
                raise OSError("stdin is closed")
            return sys.stdin.read()
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read input {spec!r}: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also the digit limit and deep nesting
        raise UsageError(f"malformed JSON input: {exc}") from exc


def _decode(kind, data):
    """``kind.from_json(data)``, with a value it refuses as a usage error."""
    try:
        return kind.from_json(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _sequence_from_json(data, order: int | None) -> MomentSequence:
    seq = _decode(MomentSequence, data)
    if order is None:
        return seq
    if order < 0:
        raise UsageError(f"--order must be nonnegative, not {order}")
    if order > seq.order:
        raise UsageError(f"requested order {order} exceeds input order {seq.order}")
    return seq.truncated(order)


def _load_moments(spec: str, order: int | None) -> MomentSequence:
    """Accept a named constant, a file path, or '-' for stdin."""
    if spec in _NAMED:
        if order is None or order < 0:
            raise UsageError(f"named sequence {spec!r} needs a nonnegative --order")
        return named_sequence(spec, order)
    return _sequence_from_json(_parse_json(_read_input(spec)), order)


def _load_moment_pair(spec: str, order: int | None) -> tuple[MomentSequence, MomentSequence]:
    data = _parse_json(_read_input(spec))
    if not isinstance(data, list) or len(data) != 2:
        raise UsageError("convolve expects a JSON array of exactly two sequences")
    out = [_sequence_from_json(item, order) for item in data]
    if out[0].order != out[1].order:
        raise UsageError("the two sequences must share one order")
    return out[0], out[1]


def _parse_g(spec: str, order: int) -> MultiplierSequence:
    """Multiplier spec: a constant, the literal 'n', or a comma list."""
    if spec == "n":
        return MultiplierSequence.index(order)
    try:
        if "," in spec:
            values = [as_fraction(part.strip()) for part in spec.split(",")]
            if len(values) != order:
                raise UsageError(f"--g lists {len(values)} values but the order is {order}")
            return MultiplierSequence.from_values(values)
        return MultiplierSequence.constant(as_fraction(spec), order)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse --g {spec!r}: {exc}") from exc


def _emit(result, path: str) -> None:
    """Write a value type, or a dict of exact values, as one line of JSON.

    Only here are exact values written out as text, where one can pass the
    int<->str digit limit: that is an input-size error, not an internal one.
    """
    try:
        obj = result if isinstance(result, dict) else result.to_json()
        text = json.dumps(obj, default=str) + "\n"
    except ValueError as exc:
        raise UsageError(f"result too large to write out: {exc}") from exc
    try:
        if path == "-":
            if sys.stdout is None:  # descriptor 1 was closed when the process started
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _multipliers(args, order: int) -> tuple:
    """The multipliers that follow the input: (g,) for theory 'abel', () otherwise."""
    if args.theory == "abel":
        if args.g is None:
            raise UsageError("theory 'abel' requires --g")
        return (_parse_g(args.g, order),)
    if args.g is not None:
        raise UsageError(f"theory {args.theory!r} does not take --g")
    return ()


# the tables below are built on every call, so that they hold whatever the
# module names are bound to then (a tracer replaces them with wrappers)


def _cmd_transform(args) -> int:
    seq = _load_moments(args.input, args.order)
    g = _multipliers(args, seq.order)
    table = {
        ("classical", "m2c"): classical_from_moments,
        ("classical", "c2m"): moments_from_classical,
        ("boolean", "m2c"): boolean_from_moments,
        ("boolean", "c2m"): moments_from_boolean,
        ("free", "m2c"): free_from_moments,
        ("free", "c2m"): moments_from_free,
        ("abel", "m2c"): generalized_cumulants,
        ("abel", "c2m"): moments_from_generalized,
    }
    _emit(table[args.theory, args.direction](seq, *g), args.output)
    return 0


def _cmd_convolve(args) -> int:
    a, b = _load_moment_pair(args.input, args.order)
    g = _multipliers(args, a.order)
    table = {
        "classical": classical_convolve,
        "boolean": boolean_convolve,
        "free": free_convolve,
        "abel": gamma_convolve,
    }
    _emit(table[args.theory](a, b, *g), args.output)
    return 0


def _cmd_matrix(args) -> int:
    if not 1 <= args.nmax <= LIMITS["matrix"] or not 1 <= args.kmax <= LIMITS["matrix"]:
        raise UsageError(f"--nmax and --kmax must lie in 1..{LIMITS['matrix']}")
    seq = _load_moments(args.input, args.nmax)
    _emit(cumulant_matrix(seq, args.nmax, args.kmax), args.output)
    return 0


def _load_series(spec: str) -> TruncatedSeries:
    return _decode(TruncatedSeries, _parse_json(_read_input(spec)))


def _load_series_pair(spec: str) -> tuple[TruncatedSeries, TruncatedSeries]:
    data = _parse_json(_read_input(spec))
    if not isinstance(data, list) or len(data) != 2:
        raise UsageError("this operation expects a JSON array of exactly two series")
    return _decode(TruncatedSeries, data[0]), _decode(TruncatedSeries, data[1])


def _cmd_series(args) -> int:
    try:
        if args.op in ("add", "mul", "compose"):
            f, g = _load_series_pair(args.input)
            binary = {"add": f.__add__, "mul": f.__mul__, "compose": f.compose}
            result = binary[args.op](g)
        else:
            f = _load_series(args.input)
            unary = {"reciprocal": f.reciprocal, "revert": f.revert, "log": f.log, "exp": f.exp}
            result = unary[args.op]()
    except DomainError as exc:  # a documented refusal; any other error is internal
        raise UsageError(str(exc)) from exc
    _emit(result, args.output)
    return 0


def _cmd_volume(args) -> int:
    n, limit = args.n, LIMITS["volume"]
    if not 1 <= n <= limit:
        raise UsageError(f"volume supports 1 <= --n <= {limit}")
    seq = _load_moments(args.input, n)
    report = {
        "n": n,
        "shape_volumes": [volume_shape_eval(seq, k) for k in range(1, n + 1)],
        "orbit_moments": [orbit_moment_eval(seq, k) for k in range(1, n + 1)],
    }
    _emit(report, args.output)
    return 0


def _cmd_verify(args) -> int:
    limit, suite = _SUITES[args.suite]
    if not 1 <= args.n <= limit:
        raise UsageError(f"{args.suite} suite supports 1 <= n <= {limit}")
    checks = suite(args.n, args.seed)
    failures = [check["name"] for check in checks if not check["pass"]]
    report = {"suite": args.suite, "n": args.n, "checks": checks, "pass": not failures}
    if failures:
        report["first_failure"] = failures[0]
    _emit(report, args.output)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumulants",
        description="Exact moment/cumulant transforms and their verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, help="each takes --help")
    theory = {"required": True, "choices": ["classical", "boolean", "free", "abel"],
              "help": "convolution theory; 'abel', the unified family, needs --g"}
    multiplier, out = "multiplier: a constant, 'n', or a comma list", "file path or '-' for stdout"

    def add_io(p, source="file path, '-' for stdin, or a named sequence", default="-"):
        p.add_argument("--input", default=default, help=source)
        p.add_argument("--output", default="-", help=out)

    p = sub.add_parser("transform", help="moment/cumulant transforms")
    p.add_argument("--theory", **theory)
    p.add_argument("--direction", required=True, choices=["m2c", "c2m"],
                   help="m2c: moments to cumulants; c2m: cumulants to moments")
    p.add_argument("--g", help=multiplier)
    p.add_argument("--order", type=int, help="input order; a named sequence needs one")
    add_io(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("convolve", help="convolve two sequences in a chosen theory")
    p.add_argument("--theory", **theory)
    p.add_argument("--g", help=multiplier)
    p.add_argument("--order", type=int, help="input order of both sequences")
    add_io(p, "file path or '-' for stdin")
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("matrix", help="cumulant matrix over constant multipliers")
    cap = LIMITS["matrix"]
    p.add_argument("--nmax", type=int, required=True, help=f"rows 1..NMAX, NMAX in 1..{cap}")
    p.add_argument("--kmax", type=int, required=True, help=f"multipliers 1..KMAX, KMAX in 1..{cap}")
    add_io(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("series", help="truncated power series operations")
    ops = ["add", "mul", "reciprocal", "compose", "revert", "log", "exp"]
    p.add_argument("--op", required=True, choices=ops, help="add, mul and compose take two series")
    add_io(p, "file path or '-' for stdin")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("volume", help="volume and orbit tables")
    p.add_argument("--n", type=int, required=True, help=f"degrees 1..N, N in 1..{LIMITS['volume']}")
    add_io(p, "file path, '-' for stdin, or a named sequence; 'u' when not given", "u")
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES), help="suite to run")
    sizes = ", ".join(f"{name} 1..{limit}" for name, (limit, _) in sorted(_SUITES.items()))
    p.add_argument("--n", type=int, required=True, help=f"suite size: {sizes}")
    p.add_argument("--seed", type=int, default=0, help="seed of the random inputs")
    p.add_argument("--output", default="-", help=out)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        line, code = f"error: {exc}\n", 2
    except Exception as exc:
        line, code = f"internal error: {type(exc).__name__}: {exc}\n", 3
    try:  # with stderr closed the line is lost, never sent to stdout
        sys.stderr.write(line)
        sys.stderr.flush()
    except (AttributeError, OSError):  # None when descriptor 2 was closed at start-up
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
