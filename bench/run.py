"""Benchmark for `cumulants`: one closed-loop client, one request in flight.

    python3 bench/run.py --workload shape-sums|cold-oracles|cli-requests
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It measures set-up with repeated fresh
interpreter starts, then sends whole rounds of the workload's seeded
schedule until the next round would pass S seconds, checks every output
against computations in `checks.py`, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
spans around the calls into the program (see README.md).  Times are
reference-speed times: wall times scaled by a speed probe taken next to
each request (see speed.py).  Details of the run, wall-clock figures
included, go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
PY = sys.executable

import checks  # noqa: E402
import schedules  # noqa: E402
from child import TRACE_MARK  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_STARTS_FIRST = 3  # then one after each round
CHILD_TIMEOUT_S = 120

# tail percentile and the fewest rounds that leave ten samples beyond it
TAIL = {"shape-sums": (95, 8), "cold-oracles": (90, 4), "cli-requests": (95, 8)}
SHAPE_SUMS_WARM_ORDER = 22


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


def spawn(argv, stdin_text: str = "", spans_path: str = ""):
    env = dict(ENV, BENCH_SPANS=spans_path) if spans_path else ENV
    return subprocess.run([PY, *argv], input=stdin_text, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the speed
    probe taken here measures the CPU the request runs on.  With one
    request in flight nothing else needs the second CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# set-up: fresh interpreter to the moment the first request can be sent


class SetupProbe:
    """Fresh starts of the program, timed from spawn to ready.

    Starts are spread over the run, a few before the first round and one
    after each round, so that their median sees the machine as the
    requests do; the time they take is left out of the timed phase.
    """

    def __init__(self, workload: str, traced: bool):
        self.argv = [CHILD, "probe"]
        if workload == "cli-requests":
            self.argv.append("--cli")
        if workload == "shape-sums":
            self.argv += ["--warm", str(SHAPE_SUMS_WARM_ORDER)]
        if traced:
            self.argv.append("--trace")
        self.starts: list = []
        self.start(record=False)  # the first start also writes the bytecode caches

    def start(self, record: bool = True) -> None:
        probe = statistics.median(speed.probe_ns() for _ in range(3))
        spawn_ns = time.monotonic_ns()
        proc = spawn(self.argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        reply = last_json_line(proc.stdout)
        reply["setup_ns"] = reply["ready_ns"] - spawn_ns
        reply["startup_ns"] = reply["start_ns"] - spawn_ns
        reply["factor"] = speed.REF_NS / probe
        if record:
            self.starts.append(reply)


# ---------------------------------------------------------------------------
# rounds


def run_rounds(schedule, seconds: float, min_rounds: int, send, between) -> list:
    """Send whole rounds until the next one would end after `seconds`.

    A speed probe precedes each request (a child may replace it with its
    own); `between` runs after each round.  Each record's `wall_ns` is the
    time the request took, the share of the timed phase it counts for.
    """
    records = []
    spent = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for index, req in enumerate(schedule):
            probe = speed.probe_ns()
            rec = send(index, req, rounds)
            rec.setdefault("speed_ns", probe)
            rec["index"], rec["round"] = index, rounds
            records.append(rec)
        spent += time.perf_counter() - t0
        rounds += 1
        between()
        if rounds >= min_rounds and spent * (rounds + 1) / rounds > seconds:
            for rec, factor in zip(records, speed.factors([r["speed_ns"] for r in records])):
                rec["factor"] = factor
            return records


def spans_file(spans_dir, index: int, round_no: int) -> str:
    """Where a traced request of the first round writes all its spans."""
    if spans_dir is None or round_no != 0:
        return ""
    return os.path.join(spans_dir, f"{index:02d}.spans")


def shape_sums_sender(spans_dir):
    sys.path.insert(0, SRC)
    import cumulants as C

    tracer = None
    if spans_dir is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    C.classical_from_moments(C.named_sequence("u", SHAPE_SUMS_WARM_ORDER))

    built = {}

    def send(index, req, round_no):
        if index not in built:
            built[index] = schedules.program_args(C, req["args"])
        args = built[index]
        fn = getattr(C, req["fn"])
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter_ns()
        out = fn(*args)
        ns = time.perf_counter_ns() - t0
        rec = {"ok": True, "latency_ns": ns, "wall_ns": ns,
               "output": schedules.plain_output(C, out)}
        if tracer is not None:
            rec["trace"] = tracer.summarize()
            path = spans_file(spans_dir, index, round_no)
            if path:
                tracer.dump(path)
        return rec

    return send


def cold_oracles_sender(spans_dir):
    mode = ["oracle"] if spans_dir is None else ["oracle", "--trace"]

    def send(index, req, round_no):
        payload = {"fn": req["fn"], "args": req["args"], "digest": round_no == 0}
        spawn_ns = time.monotonic_ns()
        proc = spawn([CHILD, *mode], json.dumps(payload), spans_file(spans_dir, index, round_no))
        exit_ns = time.monotonic_ns()
        if proc.returncode != 0:
            return {"ok": False, "wall_ns": exit_ns - spawn_ns,
                    "error": proc.stderr.strip()[-300:]}
        reply = last_json_line(proc.stdout)
        rec = {"ok": True, "latency_ns": reply["elapsed_ns"],
               "wall_ns": exit_ns - spawn_ns - reply["untimed_ns"],
               "speed_ns": reply["speed_ns"], "output": reply["result"],
               "maxrss_kib": reply["maxrss_kib"],
               "fresh": {"startup_ns": reply["start_ns"] - spawn_ns, "import_ns": reply["import_ns"]}}
        if spans_dir is not None:
            rec["trace"] = reply["trace"]
        return rec

    return send


def cli_sender(spans_dir):
    def send(index, req, round_no):
        if spans_dir is not None:
            argv = [CHILD, "cli", *req["argv"]]
        else:
            argv = ["-m", "cumulants.cli", *req["argv"]]
        spawn_ns = time.monotonic_ns()
        t0 = time.perf_counter_ns()
        proc = spawn(argv, req["stdin"], spans_file(spans_dir, index, round_no))
        ns = time.perf_counter_ns() - t0
        stderr = proc.stderr
        rec = {"latency_ns": ns, "wall_ns": ns, "out_bytes": len(proc.stdout.encode())}
        if spans_dir is not None:
            head, mark, tail = stderr.rpartition(TRACE_MARK)
            if not mark:
                rec.update(ok=False, error=f"exit {proc.returncode}, no trace: {stderr.strip()[-300:]}")
                return rec
            stderr = head
            reply = json.loads(tail)
            rec["trace"] = reply["trace"]
            rec["fresh"] = {"startup_ns": reply["start_ns"] - spawn_ns,
                            "import_ns": reply["import_ns"]}
        if proc.returncode != 0:
            rec.update(ok=False, error=f"exit {proc.returncode}: {stderr.strip()[-300:]}")
            return rec
        rec.update(ok=True, output=proc.stdout)
        return rec

    return send


# ---------------------------------------------------------------------------
# checks, after the timed phase


def fingerprint(output):
    """What must repeat exactly between rounds (enumeration digests aside)."""
    if isinstance(output, dict) and "fingerprint" in output:
        return (output["count"], output["fingerprint"])
    return output


def check_all(workload: str, schedule, records) -> tuple[bool, int, list]:
    """Check the first output of each request; later rounds must repeat it.

    Every failure makes `correct` false except the known one: the kind
    marked `known_failure` failing with the 4,300-digit message.
    """
    correct, failed, problems = True, 0, []
    first: dict = {}
    verdict: dict = {}
    for rec in records:
        req = schedule[rec["index"]]
        if not rec["ok"]:
            failed += 1
            known = req.get("known_failure") and schedules.KNOWN_FAILURE_MESSAGE in rec["error"]
            if not known:
                correct = False
                problems.append(f"{req['kind']}: failed: {rec['error']}")
            continue
        i = rec["index"]
        output = rec["output"]
        if i not in verdict:
            check = req["check"]
            if workload == "cli-requests":
                def check(text, inner=check):
                    inner(checks.parse_cli_output(text))
            reason = checks.run_check(check, output)
            verdict[i] = reason is None
            if reason is not None:
                problems.append(f"{req['kind']}: {reason}")
            first[i] = fingerprint(output)
            ok = verdict[i]
        else:
            ok = verdict[i] and fingerprint(output) == first[i]
            if verdict[i] and not ok:
                problems.append(f"{req['kind']}: round {rec['round']} output differs from round 0")
        if not ok:
            correct = False
            failed += 1
            rec["ok"] = False
    return correct, failed, problems


# ---------------------------------------------------------------------------
# metrics


def tail_value(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload, setups, records, peak_rss_mib, scaled: bool = True) -> dict:
    """The end-to-end metrics; times at reference speed, or wall times
    when `scaled` is false."""
    def f(x):
        return x["factor"] if scaled else 1.0

    done = [r for r in records if r["ok"]]
    lat = [r["latency_ns"] * f(r) / 1e6 for r in done]
    timed_s = sum(r["wall_ns"] * f(r) for r in records) / 1e9
    pct = TAIL[workload][0]
    return {
        "setup_s": {"value": statistics.median(s["setup_ns"] * f(s) for s in setups) / 1e9,
                    "unit": "s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": tail_value(lat, pct), "unit": "ms"},
        "throughput_ops_s": {"value": len(done) / timed_s, "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }


def per_layer(setups, records, span_cost_ns: float) -> dict:
    """The per-layer metrics, per successful request, times at reference speed."""
    done = [r for r in records if r["ok"]]
    n = len(done)
    per: dict = {}
    stage = {"main": 0.0, "command": 0.0, "parse": 0.0, "emit": 0.0}
    refinement = spans = out_bytes = 0
    for r in done:
        t, f = r["trace"], r["factor"]
        spans += t["spans"]
        refinement += t["refinement_from_lattice"]
        out_bytes += r.get("out_bytes", 0)
        for k in stage:
            stage[k] += t["cli_stage_ns"][k] * f
        for name, v in t["per_name"].items():
            acc = per.setdefault(name, {"calls": 0, "self_ns": 0.0, "incl_ns": 0.0, "size": 0})
            acc["calls"] += v["calls"]
            acc["size"] += v["size"]
            acc["self_ns"] += v["self_ns"] * f
            acc["incl_ns"] += v["incl_ns"] * f

    def layer_ms(layer):
        return sum(v["self_ns"] for k, v in per.items() if k.startswith(layer + ".")) / n / 1e6

    def fn_ms(*names):
        return sum(per.get(k, {}).get("self_ns", 0) for k in names) / n / 1e6

    def fn_count(key, *names):
        return sum(per.get(k, {}).get(key, 0) for k in names) / n

    enum = ("partitions.set_partitions", "partitions.noncrossing_partitions",
            "partitions.interval_partitions")
    # fresh interpreters: the set-up starts and the request children
    fresh = [(s, s["factor"]) for s in setups] + [(r["fresh"], r["factor"]) for r in done
                                                  if "fresh" in r]
    # the lazy shape-cache fill, per fresh interpreter that pays it
    fill_name = "partitions.integer_partitions"
    fills = [s["trace"]["per_name"][fill_name]["self_ns"] * s["factor"]
             for s in setups if fill_name in s["trace"]["per_name"]]
    fills += [r["trace"]["per_name"][fill_name]["self_ns"] * r["factor"]
              for r in done if "fresh" in r and fill_name in r["trace"]["per_name"]]
    lat = [r["latency_ns"] * r["factor"] / 1e6 for r in done]
    metrics = {
        "transforms.self_ms": (layer_ms("transforms"), "ms"),
        "transforms.calls": (sum(v["calls"] for k, v in per.items()
                                 if k.startswith("transforms.")) / n, "count"),
        "partitions.self_ms": (layer_ms("partitions"), "ms"),
        "partitions.integer_partitions_ms": (statistics.median(fills) / 1e6 if fills else 0.0, "ms"),
        "partitions.enumerate_ms": (fn_ms(*enum), "ms"),
        "partitions.elements": (fn_count("size", *enum), "count"),
        "partitions.kreweras_ms": (fn_ms("partitions.kreweras_complement"), "ms"),
        "partitions.kreweras_calls": (fn_count("calls", "partitions.kreweras_complement"), "count"),
        "partitions.refinement_tests": (refinement / n, "count"),
        "partitions.refinement_ms": (fn_ms("partitions.leq_refinement"), "ms"),
        "lattice.self_ms": (layer_ms("lattice"), "ms"),
        "lattice.mobius_ms": (fn_ms("lattice.mobius_by_recursion", "lattice.mobius_function"), "ms"),
        "lattice.convolve_ms": (fn_ms("lattice.convolve_lattice", "lattice.eval_interval"), "ms"),
        "lattice.theorem_ms": (fn_ms("lattice.verify_theorem"), "ms"),
        "parking.self_ms": (layer_ms("parking"), "ms"),
        "parking.enumerate_ms": (fn_ms("parking.enumerate_parking", "parking._parking_functions"), "ms"),
        "parking.functions": (fn_count("size", "parking._parking_functions"), "count"),
        "series.self_ms": (layer_ms("series"), "ms"),
        # inclusive: reversion's work is the compositions it calls
        "series.revert_ms": (fn_count("incl_ns", "series.TruncatedSeries.revert") / 1e6, "ms"),
        "series.mul_calls": (fn_count("calls", "series.TruncatedSeries.__mul__"), "count"),
        "cli.startup_ms": (statistics.median(x["startup_ns"] * f for x, f in fresh) / 1e6, "ms"),
        "cli.import_ms": (statistics.median(x["import_ns"] * f for x, f in fresh) / 1e6, "ms"),
        "cli.parse_ms": ((stage["main"] - stage["command"] + stage["parse"]) / n / 1e6, "ms"),
        "cli.compute_ms": ((stage["command"] - stage["parse"] - stage["emit"]) / n / 1e6, "ms"),
        "cli.emit_ms": (stage["emit"] / n / 1e6, "ms"),
        "cli.out_bytes": (out_bytes / n, "bytes"),
        "trace.latency_p50_ms": (statistics.median(lat), "ms"),
        "trace.request_ms": (statistics.fmean(lat), "ms"),
        "trace.spans": (spans / n, "count"),
        "trace.overhead_ms": (spans / n * span_cost_ns / 1e6, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(schedules.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in ("__init__.py", "cli.py"):
        if not os.path.isfile(os.path.join(SRC, "cumulants", path)):
            print(f"error: no program to measure: {SRC}/cumulants/{path} is missing",
                  file=sys.stderr)
            return 2

    pin_to_one_cpu()
    traced = bool(args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_dir = None
    if traced:
        spans_dir = os.path.join(OUT, name + "-spans")
        os.makedirs(spans_dir, exist_ok=True)
    probe = SetupProbe(args.workload, traced)
    for _ in range(SETUP_STARTS_FIRST):
        probe.start()
    schedule = schedules.WORKLOADS[args.workload](args.seed)
    sender = {"shape-sums": shape_sums_sender, "cold-oracles": cold_oracles_sender,
              "cli-requests": cli_sender}[args.workload](spans_dir)
    pct, min_rounds = TAIL[args.workload]
    records = run_rounds(schedule, args.seconds, min_rounds, sender, probe.start)
    setups = probe.starts

    if args.workload == "shape-sums":
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif args.workload == "cold-oracles":
        peak_kib = max(r.get("maxrss_kib", 0) for r in records)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    correct, failed, problems = check_all(args.workload, schedule, records)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)

    wall = end_to_end(args.workload, setups, records, peak_kib / 1024, scaled=False)
    if traced:
        factor = speed.REF_NS / statistics.median(speed.probe_ns() for _ in range(3))
        metrics = per_layer(setups, records, tracing.span_cost_ns() * factor)
    else:
        metrics = end_to_end(args.workload, setups, records, peak_kib / 1024)

    by_kind: dict = {}
    for r in records:
        if r["ok"]:
            by_kind.setdefault(schedule[r["index"]]["kind"], []).append(r["latency_ns"] / 1e6)
    factors = [r["factor"] for r in records]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": 1 + max(r["round"] for r in records),
        "round_size": len(schedule), "samples": sum(1 for r in records if r["ok"]),
        "tail_percentile": pct, "problems": problems,
        "speed_factor": {"min": min(factors), "median": statistics.median(factors),
                         "max": max(factors)},
        "setup_s_wall": [s["setup_ns"] / 1e9 for s in setups],
        "median_wall_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "wall_metrics": wall,
        "metrics": metrics,
    }
    if traced:
        detail["spans_files"] = {f"{i:02d}.spans": req["kind"] for i, req in enumerate(schedule)}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
