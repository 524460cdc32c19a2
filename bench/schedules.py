"""Seeded request schedules for the three workloads.

A schedule is one round: a fixed list of requests whose make-up (the
functions called and their orders or sizes) does not depend on the seed;
the seed draws only the exact values fed to them and the order in which
the round sends them.  Inputs are small rationals p/q with p in -6..6
and q in 1..4, as in the program's own verification suites, plus the
named sequences `catalan` and `bell`, and for the command line also wide
rationals of tens to hundreds of digits.

The round sizes are 25 timed requests (cli-requests adds one request
that fails every time today).  With whole rounds the share of each
request class is exact, and each workload's make-up puts the median and
the tail percentile inside a group of requests of similar cost rather
than on a jump between groups: see README.md.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import checks

# ---------------------------------------------------------------------------
# value generators


def small(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(count)]


def small_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]), rng.randint(1, 4))


def wide(rng: random.Random, count: int, digits: int) -> list:
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    return [Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
            for _ in range(count)]


def catalan_seq(n: int) -> list:
    return [Fraction(checks.catalan(k)) for k in range(1, n + 1)]


def bell_seq(n: int) -> list:
    return [Fraction(checks.bell(k)) for k in range(1, n + 1)]


def strs(values) -> list:
    return [str(v) for v in values]


# ---------------------------------------------------------------------------
# shape-sums: in-process calls into transforms
#
# Each entry: kind, function, argument spec, check.  Argument specs are
# ("seq", values), ("mult", values), ("int", n) or ("str", s); the runner
# turns them into program objects before the timer starts.


def program_args(C, specs) -> list:
    """The program objects for a shape-sums request; C is the package."""
    out = []
    for kind, value in specs:
        if kind == "seq":
            out.append(C.MomentSequence.from_values(value))
        elif kind == "mult":
            out.append(C.MultiplierSequence.from_values(value))
        else:
            out.append(value)
    return out


def plain_output(C, out) -> list:
    """A shape-sums result as lists of Fractions, the form the checks take."""
    if isinstance(out, C.CumulantMatrix):
        return [list(row) for row in out.entries]
    return list(out.values)


def shape_sums(seed: int) -> list:
    rng = random.Random(seed)
    reqs = []

    def add(kind, fn, args, check):
        reqs.append({"kind": kind, "fn": fn, "args": args, "check": check})

    def seq(n):
        return small(rng, n)

    def multipliers(n):
        return [small_nonzero(rng) for _ in range(n)]

    # cheap group: the median and tail sit above these
    a = seq(26)
    add("boolean_c2m@26", "moments_from_boolean", [("seq", a)],
        lambda out, a=a: checks.check_c2m("boolean", a, out))
    for kind, fn, theory, check in [
        ("classical_m2c@18", "classical_from_moments", "classical", checks.check_m2c),
        ("free_c2m@18", "moments_from_free", "free", checks.check_c2m),
        ("boolean_m2c@18", "boolean_from_moments", "boolean", checks.check_m2c),
    ]:
        a = seq(18)
        add(kind, fn, [("seq", a)], lambda out, a=a, t=theory, c=check: c(t, a, out))
    a, b = seq(18), seq(18)
    add("umbral_ogf@18", "umbral_composition", [("seq", a), ("seq", b), ("str", "ogf")],
        lambda out, a=a, b=b: checks.check_umbral(a, b, "ogf", out))

    # middle group: single shape sums at order 22, generalized at order 20
    for kind, fn, theory, check in [
        ("classical_c2m@22", "moments_from_classical", "classical", checks.check_c2m),
        ("boolean_m2c@22", "boolean_from_moments", "boolean", checks.check_m2c),
        ("free_m2c@22", "free_from_moments", "free", checks.check_m2c),
    ]:
        a = seq(22)
        add(kind, fn, [("seq", a)], lambda out, a=a, t=theory, c=check: c(t, a, out))
    a = catalan_seq(22)
    add("free_m2c_catalan@22", "free_from_moments", [("seq", a)],
        lambda out, a=a: (checks.check_m2c("free", a, out),
                          checks.expect_equal(list(out), [1] * 22, "free cumulants of catalan")))
    a = bell_seq(22)
    add("classical_m2c_bell@22", "classical_from_moments", [("seq", a)],
        lambda out, a=a: (checks.check_m2c("classical", a, out),
                          checks.expect_equal(list(out), [1] * 22, "classical cumulants of bell")))
    a, b = seq(22), seq(22)
    add("umbral_egf@22", "umbral_composition", [("seq", a), ("seq", b), ("str", "egf")],
        lambda out, a=a, b=b: checks.check_umbral(a, b, "egf", out))
    a = seq(22)
    add("transport@22", "boolean_free_transport", [("seq", a)],
        lambda out, a=a: checks.check_transport(a, out))
    n = 20
    for label, g in [("const", [Fraction(3)] * n), ("n", [Fraction(k) for k in range(1, n + 1)]),
                     ("list", multipliers(n))]:
        a = seq(n)
        add(f"generalized_m2c_g{label}@{n}", "generalized_cumulants", [("seq", a), ("mult", g)],
            lambda out, a=a, g=g: checks.check_m2c("abel", a, out, g))
        c = seq(n)
        add(f"generalized_c2m_g{label}@{n}", "moments_from_generalized", [("seq", c), ("mult", g)],
            lambda out, c=c, g=g: checks.check_c2m("abel", c, out, g))

    # upper group
    a, b = seq(22), seq(22)
    add("dot@22", "dot_operation", [("seq", a), ("seq", b)],
        lambda out, a=a, b=b: checks.check_dot(a, b, out))
    a = catalan_seq(22)
    add("transport_catalan@22", "boolean_free_transport", [("seq", a)],
        lambda out, a=a: (checks.check_transport(a, out),
                          checks.expect_equal(list(out), [-1] + [0] * 21, "transport of catalan")))

    # top group: the tail sits inside it
    for kind, fn, theory, n in [
        ("classical_convolve@22", "classical_convolve", "classical", 22),
        ("boolean_convolve@22", "boolean_convolve", "boolean", 22),
        ("free_convolve@22", "free_convolve", "free", 22),
    ]:
        a, b = seq(n), seq(n)
        add(kind, fn, [("seq", a), ("seq", b)],
            lambda out, a=a, b=b, t=theory: checks.check_convolution(t, a, b, out))
    n = 20
    a, b, g = seq(n), seq(n), multipliers(n)
    add(f"gamma_convolve@{n}", "gamma_convolve", [("seq", a), ("seq", b), ("mult", g)],
        lambda out, a=a, b=b, g=g: checks.check_convolution("abel", a, b, out, g))
    a = seq(20)
    add("cumulant_matrix@20x3", "cumulant_matrix", [("seq", a), ("int", 20), ("int", 3)],
        lambda out, a=a: checks.check_matrix(a, 3, out))

    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cold-oracles: one public call per fresh interpreter


def cold_oracles(seed: int) -> list:
    rng = random.Random(seed)
    reqs = []

    def add(kind, fn, args, check):
        reqs.append({"kind": kind, "fn": fn, "args": args, "check": check})

    def mobius(lattice, n):
        add(f"mobius_{lattice}@{n}", "mobius_by_recursion", [n, lattice],
            lambda out: checks.check_mobius(lattice, n, Fraction(out)))

    def convolve(lattice, n, g=None):
        f = small(rng, n)
        if lattice == "nc":
            label = "zeta" if g == "zeta" else "mobius"
            gv = [1] * n if g == "zeta" else [checks.MOBIUS["nc"](k) for k in range(1, n + 1)]
            want = (checks.nc_convolution_zeta if g == "zeta" else checks.nc_convolution_mobius)(f, n)
            kind = f"convolve_nc_{label}@{n}"
        else:
            gv = small(rng, n)
            want = (checks.full_convolution if lattice == "all" else checks.interval_convolution)(f, gv, n)
            kind = f"convolve_{lattice}@{n}"
        add(kind, "convolve_lattice", [strs(f), strs(gv), n, lattice],
            lambda out: checks.expect_equal(Fraction(out), want, f"{kind} against series"))

    def theorem(which, n):
        s = rng.randrange(1 << 30)
        add(f"theorem_{which}@{n}", "verify_theorem", [n, which, s],
            lambda out: (checks.expect(out["pass"] is True, f"verify_theorem {which}: {out}"),
                         checks.expect(out["checked"] > 0, "verify_theorem checked nothing")))

    def volume(n, symmetric):
        xs = small(rng, n)
        if symmetric:
            want = checks.parking_volume_symmetric(xs, n)
            add(f"volume_symmetric@{n}", "volume_bruteforce_symmetric", [strs(xs), n],
                lambda out: checks.expect_equal(Fraction(out), want, "symmetric volume"))
        else:
            want = checks.parking_volume(xs)
            add(f"volume@{n}", "volume_bruteforce", [strs(xs)],
                lambda out: checks.expect_equal(Fraction(out), want, "volume polynomial"))

    def enumerate_(fn, lattice, n):
        add(f"{fn}@{n}", fn, [n],
            lambda out: checks.check_partition_digest(lattice, n, out))

    # cheap group
    theorem("T1", 5)
    theorem("T1", 6)
    theorem("T3", 5)
    theorem("T3", 6)
    convolve("all", 7)
    convolve("interval", 10)
    volume(5, False)
    volume(5, True)
    # middle group: the median sits inside it
    add("enumerate_parking@6", "enumerate_parking", [6],
        lambda out: checks.check_parking_digest(6, out))
    convolve("nc", 5, "zeta")
    convolve("nc", 5, "mobius")
    convolve("interval", 12)
    mobius("nc", 6)
    theorem("COMMUTATIVITY", 5)
    theorem("COMMUTATIVITY", 5)
    mobius("interval", 8)
    theorem("T2", 5)
    theorem("T2", 5)
    # upper group
    mobius("all", 6)
    enumerate_("set_partitions", "all", 9)
    enumerate_("noncrossing_partitions", "nc", 9)
    # top group: the tail sits inside it
    mobius("nc", 7)
    add("enumerate_parking@7", "enumerate_parking", [7],
        lambda out: checks.check_parking_digest(7, out))
    convolve("nc", 6, "zeta")
    mobius("interval", 10)

    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli-requests: `python -m cumulants.cli` with the input on stdin


def _seq_json(values) -> dict:
    return {"order": len(values), "values": strs(values)}


def _series_json(coeffs) -> dict:
    return {"order": len(coeffs) - 1, "coeffs": strs(coeffs)}


def _sequence_out(doc, order: int) -> list:
    checks.expect(isinstance(doc, dict) and doc.get("order") == order, "sequence order")
    values = checks.fractions(doc["values"])
    checks.expect_equal(len(values), order, "value count")
    return values


def _series_out(doc, order: int) -> list:
    checks.expect(isinstance(doc, dict) and doc.get("order") == order, "series order")
    coeffs = checks.fractions(doc["coeffs"])
    checks.expect_equal(len(coeffs), order + 1, "coefficient count")
    return coeffs


# the one request kind that fails every time today: its exact answer has
# more than 4,300 digits, CPython's int->str limit, so the CLI exits 2
KNOWN_FAILURE_MESSAGE = "Exceeds the limit (4300 digits)"
WIDE_OUTPUT_INPUT = [
    Fraction(10 ** 299 + 7 * i + 1, 10 ** 299 + 11 * i + 3) for i in range(8)
]


def cli_requests(seed: int) -> list:
    rng = random.Random(seed)
    reqs = []

    def add(kind, argv, payload, check, known_failure=False):
        reqs.append({"kind": kind, "argv": argv, "stdin": json.dumps(payload),
                     "check": check, "known_failure": known_failure})

    def transform(theory, direction, values, label, g=None):
        argv = ["transform", "--theory", theory, "--direction", direction]
        gv = None
        if g is not None:
            argv += ["--g", g]
            n = len(values)
            gv = [Fraction(k) for k in range(1, n + 1)] if g == "n" else [Fraction(g)] * n
        check_fn = checks.check_m2c if direction == "m2c" else checks.check_c2m
        n = len(values)
        add(f"transform_{theory}_{direction}_{label}@{n}", argv, _seq_json(values),
            lambda doc: check_fn(theory, values, _sequence_out(doc, n), gv))

    def convolve(theory, a, b, label, g=None):
        argv = ["convolve", "--theory", theory]
        gv = None
        if g is not None:
            argv += ["--g", g]
            gv = [Fraction(g)] * len(a)
        n = len(a)
        add(f"convolve_{theory}_{label}@{n}", argv, [_seq_json(a), _seq_json(b)],
            lambda doc: checks.check_convolution(theory, a, b, _sequence_out(doc, n), gv))

    def matrix(values, kmax, label):
        n = len(values)

        def check(doc):
            checks.expect(doc.get("rows") == n and doc.get("cols") == kmax, "matrix shape")
            rows = [checks.fractions(row) for row in doc["entries"]]
            checks.check_matrix(values, kmax, rows)

        add(f"matrix_{label}@{n}x{kmax}", ["matrix", "--nmax", str(n), "--kmax", str(kmax)],
            _seq_json(values), check)

    def series(op, order):
        if op in ("exp", "revert"):
            coeffs = [Fraction(0), small_nonzero(rng)] + small(rng, order - 1)
        elif op == "log":
            coeffs = [Fraction(1)] + small(rng, order)
        else:
            coeffs = [small_nonzero(rng)] + small(rng, order)
        check_fn = {"reciprocal": checks.check_reciprocal, "log": checks.check_log,
                    "exp": checks.check_exp, "revert": checks.check_revert}[op]
        add(f"series_{op}@{order}", ["series", "--op", op], _series_json(coeffs),
            lambda doc: check_fn(coeffs, _series_out(doc, order)))

    def compose(order):
        outer = small(rng, order + 1)
        inner = [Fraction(0)] + small(rng, order)
        add(f"series_compose@{order}", ["series", "--op", "compose"],
            [_series_json(outer), _series_json(inner)],
            lambda doc: checks.check_compose(outer, inner, _series_out(doc, order)))

    def volume(n):
        values = small(rng, n)

        def check(doc):
            checks.expect(doc.get("n") == n, "volume n")
            vols = checks.fractions(doc["shape_volumes"])
            orbit = checks.fractions(doc["orbit_moments"])
            checks.expect_equal(vols, [checks.parking_volume_symmetric(values, k)
                                       for k in range(1, n + 1)], "shape volumes")
            checks.expect_equal(orbit, checks.free_moments(values), "orbit moments")

        add(f"volume@{n}", ["volume", "--n", str(n), "--input", "-"], _seq_json(values), check)

    # small rationals
    transform("classical", "m2c", small(rng, 14), "small")
    transform("free", "c2m", small(rng, 14), "small")
    transform("boolean", "m2c", small(rng, 14), "small")
    transform("abel", "m2c", small(rng, 14), "small", g="n")
    convolve("free", small(rng, 12), small(rng, 12), "small")
    convolve("abel", small(rng, 12), small(rng, 12), "small", g="2")
    matrix(small(rng, 10), 4, "small")
    # wide rationals: tens to hundreds of digits, outputs well below 4,300
    transform("classical", "m2c", wide(rng, 10, 60), "wide")
    transform("free", "m2c", wide(rng, 12, 40), "wide")
    transform("boolean", "c2m", wide(rng, 8, 50), "wide")
    convolve("classical", wide(rng, 8, 40), wide(rng, 8, 40), "wide")
    matrix(wide(rng, 8, 40), 3, "wide")
    # series
    series("reciprocal", 28)
    series("log", 28)
    series("exp", 28)
    series("reciprocal", 20)
    series("log", 20)
    series("exp", 20)
    compose(22)
    compose(16)
    series("revert", 16)
    volume(7)
    # the tail sits inside this group
    series("revert", 22)
    series("revert", 22)
    series("revert", 22)
    # fails every time today; its input does not depend on the seed
    add("transform_classical_c2m_wide_output@8",
        ["transform", "--theory", "classical", "--direction", "c2m"],
        _seq_json(WIDE_OUTPUT_INPUT),
        lambda doc: checks.check_c2m("classical", WIDE_OUTPUT_INPUT, _sequence_out(doc, 8)),
        known_failure=True)

    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"shape-sums": shape_sums, "cold-oracles": cold_oracles, "cli-requests": cli_requests}
