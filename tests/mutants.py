"""Mutants of the package as data, and a runner that checks the tests catch each.

Each mutant names a module of `src/cumulants`, one exact source line that
must occur there once (compared without its indentation, which the
replacement keeps), the replacement line, and the tests expected to fail.
The runner copies `src/`, `tests/`, `bench/`, `README.md` and
`pyproject.toml` into a temporary directory, applies one mutant to the copy
and runs pytest there with PYTHONPATH at the copied `src/`, so that the
tests which start a fresh interpreter see the mutant too.  A mutant is
killed when every one of its named tests fails; with --full, when any test
of tier-1 fails, leaving out tests/test_mutants.py, which fails on every
mutated copy since the mutated line is gone.  Pytest's plugin autoload is
off: no test needs a plugin, and loading one can cost a second a run.

    python tests/mutants.py                      # every mutant, its named tests
    python tests/mutants.py --full               # every mutant, the whole suite
    python tests/mutants.py revert_past_29 ...   # the named mutants only

The exit code is 0 when every mutant run is killed.  Pytest does not
collect this file, since its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
TIMEOUT_S = 900  # tier-1 takes about a minute


class Mutant(NamedTuple):
    name: str
    module: str  # under src/cumulants, without .py
    line: str  # must occur exactly once, indentation aside
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each expected to fail


MUTANTS = (
    Mutant("abel_weight", "transforms",
           "return Fraction(falling_factorial(x, l - 1), math.factorial(l))",
           "return Fraction(falling_factorial(x, l - 1), math.factorial(l - 1))",
           ("tests/test_transforms.py::test_free_examples",
            "tests/test_transforms.py::test_classical_examples")),
    Mutant("bell_row_break", "transforms",
           "if i > m:",
           "if i >= m:",
           ("tests/test_shape_sums.py::test_ordinary_row_at_ones_is_binomial",)),
    Mutant("bell_step_reach", "transforms",
           "for l, b in enumerate(rows[k][lo:k // entries[0][0] + 1], start=lo + 1):",
           "for l, b in enumerate(rows[k][lo:k // entries[0][0]], start=lo + 1):",
           ("tests/test_shape_sums.py::test_ordinary_row_at_ones_is_binomial",
            "tests/test_shape_sums.py::test_rows_with_zero_entries_equal_the_per_shape_sum")),
    Mutant("solve_write_back", "transforms",
           "row[1] = acc[-1]  # B_{n,1} = a_n, read by the rows above",
           "pass",
           ("tests/test_shape_sums.py::test_generalized_inverse_round_trips",
            "tests/test_transforms.py::test_gamma_convolve")),
    Mutant("matrix_row", "transforms",
           "for n, row in enumerate(table[1:], start=1)",
           "for n, row in enumerate(table[2:] + table[-1:], start=1)",
           ("tests/test_transforms.py::test_cumulant_matrix",
            "tests/test_cli.py::test_matrix",
            "tests/test_shape_sums.py::test_cumulant_matrix_past_the_cli_cap")),
    Mutant("abel_pairing", "transforms",
           "terms = (math.comb(n - 1, j) * a.moment(j + 1) * nu[n - 1 - j] for j in range(n))",
           "terms = (math.comb(n, j) * a.moment(j + 1) * nu[n - 1 - j] for j in range(n))",
           ("tests/test_transforms.py::test_abel_oracle_examples",)),
    Mutant("convolve_sum", "transforms",
           "return back(MomentSequence(tuple(p + q for p, q in zip(x.values, y.values))), *g)",
           "return back(MomentSequence(tuple(p + p for p, q in zip(x.values, y.values))), *g)",
           ("tests/test_transforms.py::test_semi_invariance",
            "tests/test_transforms.py::test_classical_convolve_egf_product_oracle")),
    Mutant("convolve_back_map", "transforms",
           "return back(MomentSequence(tuple(p + q for p, q in zip(x.values, y.values))), *g)",
           "return forward(MomentSequence(tuple(p + q for p, q in zip(x.values, y.values))), *g)",
           ("tests/test_transforms.py::test_convolve_examples",
            "tests/test_transforms.py::test_gamma_convolve")),
    Mutant("stirling_row", "transforms",
           "row = [up - (n - 1) * same for up, same in zip([0] + row, row + [0])]",
           "row = [up - n * same for up, same in zip([0] + row, row + [0])]",
           ("tests/test_transforms.py::test_factorial_moments_match_the_stirling_table",)),
    Mutant("volume_shape_eval_barred", "parking",
           "return orbit_moment_eval(seq.unbar(), n)",
           "return orbit_moment_eval(seq, n)",
           ("tests/test_parking.py::test_shape_expansion_matches_bruteforce",
            "tests/test_parking.py::test_barred_ones_volume_gives_catalan")),
    Mutant("symmetric_volume_scaling", "parking",
           "scaled = [0] + [a.numerator * (d**m // a.denominator) for m, a in enumerate(entries, 1)]",
           "scaled = [0] + [a.numerator * (d // a.denominator) for m, a in enumerate(entries, 1)]",
           ("tests/test_parking.py::test_shape_expansion_matches_bruteforce",)),
    Mutant("bruteforce_volume_scaling", "parking",
           "scaled = [0] + [x.numerator * (d // x.denominator) for x in values]",
           "scaled = [0] + [x.numerator for x in values]",
           ("tests/test_parking.py::test_volume_bruteforce_small_cases",)),
    Mutant("parking_threshold", "parking",
           "for v in range(lo + 1, hi + 1):",
           "for v in range(lo + 1, hi):",
           ("tests/test_parking.py::test_enumeration_counts_and_order",)),
    Mutant("kreweras_image", "partitions",
           "image = [0] + pred[2:] + [pred[1]]",
           "image = [0] + pred[1:]",
           ("tests/test_partitions.py::test_kreweras_examples",
            "tests/test_partitions.py::test_kreweras_matches_search")),
    Mutant("set_growth", "partitions",
           "rec(i + 1, tuple(grown), growable[: pos + 1] if noncrossing else growable)",
           "rec(i + 1, tuple(grown), growable[: pos + 1])",
           ("tests/test_partitions.py::test_set_partitions_counts_and_order",)),
    Mutant("noncrossing_growth", "partitions",
           "rec(i + 1, tuple(grown), growable[: pos + 1] if noncrossing else growable)",
           "rec(i + 1, tuple(grown), growable[pos:] if noncrossing else growable)",
           ("tests/test_partitions.py::test_noncrossing_enumeration_matches_filtering",)),
    Mutant("interval_run_bound", "partitions",
           "for run in runs[start][:-1]:",
           "for run in runs[start][:-2]:",
           ("tests/test_partitions.py::test_is_interval",
            "tests/test_partitions.py::test_enumerations_are_canonical_and_in_growth_string_order")),
    Mutant("mobius_sign", "lattice",
           "mu.append(-sum(math.prod(mu[len(b)] for b in tau) for tau in below_top))",
           "mu.append(sum(math.prod(mu[len(b)] for b in tau) for tau in below_top))",
           ("tests/test_lattice.py::test_mobius_recursion_values",)),
    Mutant("series_mul_top_term", "series",
           "for j in range(n - i + 1):",
           "for j in range(n - i):",
           ("tests/test_series.py::test_mul_truncates",)),
    Mutant("power_weight", "series",
           "s = sum(((e + 1) * k - m) * g[k] * h[m - k] for k in range(1, m + 1))",
           "s = sum((e * k - m) * g[k] * h[m - k] for k in range(1, m + 1))",
           ("tests/test_series.py::test_power",)),
    Mutant("revert_past_29", "series",
           "w.append(g.power(-m).coeffs[m - 1] / m)",
           "w.append(g.power(-m).coeffs[m - 1] / m + (m > 29))",
           ("tests/test_series.py::test_revert_past_order_29_gives_the_catalan_numbers",
            "tests/test_shape_sums.py::test_dense_maps_of_every_direction_past_the_timed_orders")),
    Mutant("log_sign", "series",
           "out[m] = (m * self.coeffs[m] - s) / m",
           "out[m] = (m * self.coeffs[m] + s) / m",
           ("tests/test_series.py::test_log_exp",
            "tests/test_series.py::test_log_exp_random_roundtrip")),
    Mutant("exp_top_term", "series",
           "s = sum(k * self.coeffs[k] * out[m - k] for k in range(1, m + 1))",
           "s = sum(k * self.coeffs[k] * out[m - k] for k in range(1, m))",
           ("tests/test_series.py::test_log_exp",
            "tests/test_series.py::test_log_exp_random_roundtrip")),
    Mutant("compose_constant", "series",
           "for k in range(self.order - 1, -1, -1):",
           "for k in range(self.order - 1, 0, -1):",
           ("tests/test_series.py::test_compose_bell_generating_function",
            "tests/test_series.py::test_compose_reciprocal_geometric_inverse")),
    Mutant("volume_limit", "series",
           '"volume": 24,  # `volume --n 24`: two free maps at order n, 0.12-0.20 s',
           '"volume": 25,  # `volume --n 24`: two free maps at order n, 0.12-0.20 s',
           ("tests/test_readme.py::test_readme_limits_table_is_the_limits_table",)),
    Mutant("matrix_limit", "series",
           '"matrix": 12,  # `matrix --nmax 12 --kmax 12`: 14 ms',
           '"matrix": 13,  # `matrix --nmax 12 --kmax 12`: 14 ms',
           ("tests/test_readme.py::test_readme_limits_table_is_the_limits_table",)),
    Mutant("decode_type_error", "cli",
           "except ValueError as exc:  # a refused input; anything else is a bug",
           "except (ValueError, TypeError) as exc:",
           ("tests/test_cli.py::test_decoding_bug_exits_three",)),
    Mutant("usage_exit_code", "cli",
           'line, code = f"error: {exc}\\n", 2',
           'line, code = f"error: {exc}\\n", 1',
           ("tests/test_cli.py::test_volume_with_input",
            "tests/test_cli.py::test_matrix_bounds")),
    Mutant("verify_exit_code", "cli",
           'return 0 if report["pass"] else 1',
           "return 0",
           ("tests/test_cli.py::test_verify_reports_failure_with_exit_one",
            "tests/test_cli.py::test_failing_check_reports_counterexample")),
    Mutant("internal_exit_code", "cli",
           'line, code = f"internal error: {type(exc).__name__}: {exc}\\n", 3',
           'line, code = f"internal error: {type(exc).__name__}: {exc}\\n", 2',
           ("tests/test_cli.py::test_internal_error_exits_three",
            "tests/test_cli.py::test_volume_computation_error_exits_three")),
)
BY_NAME = {m.name: m for m in MUTANTS}


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's line in the copied package under src, in place."""
    path = src / "cumulants" / f"{mutant.module}.py"
    lines = path.read_text(encoding="utf-8").split("\n")
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: line found {len(hits)} times in {path.name}")
    text = lines[hits[0]]
    lines[hits[0]] = text[: len(text) - len(text.lstrip())] + mutant.replacement
    path.write_text("\n".join(lines), encoding="utf-8")


def run(mutant: Mutant, full: bool = False) -> tuple[bool, str]:
    """(killed, summary) of one mutant, on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(source, copy / name)
        apply(mutant, copy / "src")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
        if full:  # tier-1's own flags
            argv += ["--continue-on-collection-errors", "--ignore", "tests/test_mutants.py"]
        else:
            argv += mutant.tests
        try:
            done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a hang is a fault the tests found
            return True, f"timed out after {TIMEOUT_S} s"
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if full:
        return done.returncode == 1, f"{len(failed)} tests fail" + "".join(
            f"\n    {test}" for test in failed[:5])
    if done.returncode not in (0, 1):  # a named test missing, or pytest refused to run
        return False, f"pytest exit {done.returncode}: {done.stdout[-500:]}{done.stderr[-500:]}"
    missed = [t for t in mutant.tests
              if not any(f == t or f.startswith(t + "[") for f in failed)]
    return not missed, "every named test fails" if not missed else f"passing: {missed}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run, all when none is given: {', '.join(BY_NAME)}")
    parser.add_argument("--full", action="store_true", help="run the whole suite on each")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(BY_NAME))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    mutants = [BY_NAME[name] for name in args.names] or list(MUTANTS)
    start, killed = time.perf_counter(), 0
    for mutant in mutants:
        ok, summary = run(mutant, args.full)
        killed += ok
        print(f"{'killed ' if ok else 'SURVIVED'} {mutant.name}: {summary}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{killed} of {len(mutants)} mutants killed in {elapsed:.1f} s")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
