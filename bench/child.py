"""Fresh-interpreter side of the benchmark.

    python3 bench/child.py probe [--cli] [--warm N] [--trace]
        Import the program (and its command line module), optionally run
        one shape sum at order N to fill the lazy shape caches, then print
        the start, import and ready times as one JSON line.
    python3 bench/child.py oracle [--trace]
        Read one request {"fn", "args", "digest"} from stdin, time the one
        public call it names, and print the elapsed time, the peak
        resident memory, the encoded result, a speed probe and the time
        spent after the call as one JSON line.
    python3 bench/child.py cli ARGS...
        The traced command line runner: import cumulants.cli, install the
        span wrappers and call main(ARGS).  stdout is the command's own;
        the trace summary goes to the last line of stderr.

Times are CLOCK_MONOTONIC nanoseconds, comparable across processes.  In
traced mode, when BENCH_SPANS names a file, every span of the request is
written there (see `tracing.Tracer.dump`).
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

TRACE_MARK = "\x1ebench-trace "


def _import(with_cli: bool):
    t0 = time.monotonic_ns()
    import cumulants  # noqa: F401

    if with_cli:
        import cumulants.cli  # noqa: F401
    return time.monotonic_ns() - t0


def probe(argv) -> int:
    import_ns = _import("--cli" in argv)
    tracer = None
    if "--trace" in argv:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if "--warm" in argv:
        import cumulants

        order = int(argv[argv.index("--warm") + 1])
        cumulants.classical_from_moments(cumulants.named_sequence("u", order))
    ready_ns = time.monotonic_ns()
    reply = {"start_ns": START_NS, "import_ns": import_ns, "ready_ns": ready_ns}
    if tracer is not None:
        reply["trace"] = tracer.summarize()
    print(json.dumps(reply))
    return 0


def _call(req):
    """Build the program inputs for one request and return a thunk."""
    from fractions import Fraction

    import cumulants as C

    fn, args = req["fn"], req["args"]
    lattice = {"all": C.Lattice.ALL, "nc": C.Lattice.NC, "interval": C.Lattice.INTERVAL}
    if fn == "mobius_by_recursion":
        n, lat = args
        return lambda: C.mobius_by_recursion(n, lattice[lat])
    if fn == "convolve_lattice":
        f, g, n, lat = args
        ff = C.MultiplicativeFunction.from_values([Fraction(x) for x in f])
        gg = C.MultiplicativeFunction.from_values([Fraction(x) for x in g])
        return lambda: C.convolve_lattice(ff, gg, n, lattice[lat])
    if fn == "verify_theorem":
        n, which, seed = args
        return lambda: C.verify_theorem(n, which, seed=seed)
    if fn in ("set_partitions", "noncrossing_partitions", "enumerate_parking"):
        (n,) = args
        return lambda: getattr(C, fn)(n)
    if fn == "volume_bruteforce":
        (xs,) = args
        values = [Fraction(x) for x in xs]
        return lambda: C.volume_bruteforce(values)
    if fn == "volume_bruteforce_symmetric":
        xs, n = args
        seq = C.MomentSequence.from_values([Fraction(x) for x in xs])
        return lambda: C.volume_bruteforce_symmetric(seq, n)
    raise ValueError(f"unknown oracle request {fn!r}")


def _encode(req, result):
    """JSON form of a result; enumerations become a count, a fingerprint
    and, when asked, a digest for the checks."""
    fn = req["fn"]
    if fn in ("set_partitions", "noncrossing_partitions"):
        import checks

        blocks = [p.blocks for p in result]
        out = {"count": len(blocks), "fingerprint": hash(tuple(blocks))}
        if req["digest"]:
            n = req["args"][0]
            out.update(checks.partition_digest(n, blocks, fn == "noncrossing_partitions"))
        return out
    if fn == "enumerate_parking":
        import checks

        out = {"count": len(result), "fingerprint": hash(tuple(result))}
        if req["digest"]:
            out.update(checks.parking_digest(req["args"][0], result))
        return out
    if isinstance(result, dict):
        return result
    return str(result)


def oracle(argv) -> int:
    import_ns = _import(False)
    req = json.loads(sys.stdin.read())
    tracer = None
    if "--trace" in argv:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    thunk = _call(req)
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter_ns()
    result = thunk()
    t1 = time.perf_counter_ns()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {"start_ns": START_NS, "import_ns": import_ns, "elapsed_ns": t1 - t0,
             "maxrss_kib": maxrss, "result": _encode(req, result)}
    import speed

    reply["speed_ns"] = speed.probe_ns()
    if tracer is not None:
        reply["trace"] = tracer.summarize()
        _dump_spans(tracer)
    # the encoding, checks, probe and trace above are the benchmark's work
    reply["untimed_ns"] = time.perf_counter_ns() - t1
    print(json.dumps(reply))
    return 0


def _dump_spans(tracer) -> None:
    path = os.environ.get("BENCH_SPANS")
    if path:
        tracer.dump(path)


def cli(argv) -> int:
    import_ns = _import(True)
    import cumulants.cli
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cumulants.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    trace = {"start_ns": START_NS, "import_ns": import_ns, "trace": tracer.summarize()}
    _dump_spans(tracer)
    sys.stderr.write(TRACE_MARK + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"probe": probe, "oracle": oracle, "cli": cli}[mode](rest))
