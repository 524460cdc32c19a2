"""Self-test of the output checks: each accepts the program's true output
and rejects perturbed copies of it.

    python3 bench/selftest.py

Runs one round of every workload's schedule, drawn from a fixed seed,
once in this process (the command line through `cumulants.cli.main`),
feeds each request's check the true output and then several perturbed
ones, and exits 1 if a check rejects a true output or accepts a
perturbed one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import child  # noqa: E402
import schedules  # noqa: E402

SEED = 1


def bump(value):
    return str(Fraction(value) + 1) if isinstance(value, str) else value + 1


def perturb_list(values):
    for i in sorted({0, len(values) // 2, len(values) - 1}):
        changed = list(values)
        changed[i] = bump(changed[i])
        yield changed


def perturbations(output):
    """Wrong variants of an output, each differing in one place."""
    if isinstance(output, list) and output and isinstance(output[0], list):
        for i in (0, len(output) - 1):
            rows = [list(row) for row in output]
            rows[i][-1] = bump(rows[i][-1])
            yield rows
    elif isinstance(output, list):
        yield from perturb_list(output)
    elif isinstance(output, dict) and "pass" in output:
        yield dict(output, **{"pass": False})
        yield dict(output, checked=0)
    elif isinstance(output, dict) and "valid" in output:
        yield dict(output, count=output["count"] + 1, distinct=output["distinct"] + 1)
        yield dict(output, distinct=output["distinct"] - 1)
        yield dict(output, valid=False)
    elif isinstance(output, str) and output.startswith("{"):
        doc = json.loads(output)
        for key in ("values", "coeffs", "entries", "shape_volumes", "orbit_moments"):
            if key in doc:
                for changed in perturbations(doc[key]):
                    yield json.dumps(dict(doc, **{key: changed})) + "\n"
        yield output + output  # two documents
        yield output.rstrip("\n")  # no final newline
    elif isinstance(output, str):
        yield bump(output)
    else:
        raise TypeError(f"no perturbation for {output!r}")


def run_shape_sum(C, req):
    out = getattr(C, req["fn"])(*schedules.program_args(C, req["args"]))
    return schedules.plain_output(C, out)


def run_oracle(C, req):
    request = {"fn": req["fn"], "args": req["args"], "digest": True}
    return child._encode(request, child._call(request)())


def run_cli(C, req):
    import cumulants.cli

    stdout = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req["stdin"])
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cumulants.cli.main(req["argv"])
    finally:
        sys.stdin = saved
    return code, stdout.getvalue(), err.getvalue()


def main() -> int:
    import cumulants as C

    bad = 0
    for workload, build in schedules.WORKLOADS.items():
        for req in build(SEED):
            if workload == "shape-sums":
                output = run_shape_sum(C, req)
                check = req["check"]
            elif workload == "cold-oracles":
                output = run_oracle(C, req)
                check = req["check"]
            else:
                code, output, err = run_cli(C, req)
                if code != 0:
                    known = req["known_failure"] and schedules.KNOWN_FAILURE_MESSAGE in err
                    print(f"{'known' if known else 'FAIL '}  {workload} {req['kind']}: exit {code}")
                    bad += not known
                    continue

                def check(text, req=req):
                    req["check"](checks.parse_cli_output(text))

            reason = checks.run_check(check, output)
            if reason is not None:
                print(f"FAIL   {workload} {req['kind']}: true output rejected: {reason}")
                bad += 1
                continue
            verdicts = [checks.run_check(check, wrong) for wrong in perturbations(output)]
            caught = sum(v is not None for v in verdicts)
            missed = len(verdicts) - caught
            status = "ok   " if missed == 0 and caught > 0 else "FAIL "
            bad += status != "ok   "
            print(f"{status}  {workload} {req['kind']}: rejects {caught} of {caught + missed} "
                  "perturbed outputs")
    print("selftest:", "passed" if bad == 0 else f"{bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
