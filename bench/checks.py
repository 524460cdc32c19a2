"""Output checks that share no code with `cumulants`.

Every check takes plain Python values (lists of Fractions, ints, dicts)
and raises `CheckError` when an output is wrong.  The mathematics is
re-derived here from the defining relations: recursions for the
classical and boolean pairs, the functional equation for the free pair,
the Abel form with Miller's power recurrence for the generalized family,
closed forms for the lattice Moebius values and sizes, and a truncated
series product of our own for the generating-function identities.
Nothing here imports the program.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class CheckError(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {_short(got)}, want {_short(want)}")


def run_check(check, output):
    """None when `check` accepts `output`, else the reason it does not."""
    try:
        check(output)
    except (CheckError, ArithmeticError, LookupError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 120 else text[:117] + "..."


# ---------------------------------------------------------------------------
# truncated power series as lists c_0..c_N


def ser_mul(f: list, g: list) -> list:
    n = len(f) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        fi = f[i]
        if fi:
            for j in range(n + 1 - i):
                if g[j]:
                    out[i + j] += fi * g[j]
    return out


def ser_compose(outer: list, inner: list) -> list:
    """outer(inner(t)) truncated; inner must have zero constant term."""
    expect(inner[0] == 0, "composition needs an inner series without constant term")
    n = len(outer) - 1
    acc = [Fraction(0)] * (n + 1)
    acc[0] = Fraction(outer[n])
    for k in range(n - 1, -1, -1):
        acc = ser_mul(acc, inner)
        acc[0] += outer[k]
    return acc


def ser_deriv(f: list) -> list:
    """f' truncated to one order less."""
    return [k * f[k] for k in range(1, len(f))]


def ser_log(f: list) -> list:
    """log f for f_0 = 1, from L' = f' / f solved term by term."""
    expect(f[0] == 1, "log needs constant term 1")
    n = len(f) - 1
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * f[m]
        for k in range(1, m):
            acc -= k * out[k] * f[m - k]
        out[m] = Fraction(acc, m)
    return out


def egf(values: list) -> list:
    """1 + sum a_n t^n / n! for values a_1..a_N."""
    return [Fraction(1)] + [Fraction(v) / math.factorial(n) for n, v in enumerate(values, 1)]


def ogf(values: list) -> list:
    return [Fraction(1)] + [Fraction(v) for v in values]


def miller_power(f: list, alpha, count: int) -> list:
    """First `count` coefficients of f**alpha for f_0 = 1 (Miller's recurrence)."""
    alpha = Fraction(alpha)
    p = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for k in range(1, min(m, len(f) - 1) + 1):
            acc += ((alpha + 1) * k - m) * f[k] * p[m - k]
        p.append(acc / m)
    return p


# ---------------------------------------------------------------------------
# moment/cumulant relations, each as a forward map and its triangular solve


def classical_moments(kappa: list) -> list:
    """a_n = sum_j C(n-1, j) kappa_{j+1} a_{n-1-j}."""
    a = [Fraction(1)]
    for n in range(1, len(kappa) + 1):
        a.append(sum(math.comb(n - 1, j) * kappa[j] * a[n - 1 - j] for j in range(n)))
    return a[1:]


def classical_cumulants(moments: list) -> list:
    a = [Fraction(1)] + list(moments)
    kappa: list = []
    for n in range(1, len(a)):
        rest = sum(math.comb(n - 1, j) * kappa[j] * a[n - 1 - j] for j in range(n - 1))
        kappa.append(a[n] - rest)
    return kappa


def boolean_moments(h: list) -> list:
    """m_n = sum_k h_k m_{n-k}."""
    m = [Fraction(1)]
    for n in range(1, len(h) + 1):
        m.append(sum(h[k - 1] * m[n - k] for k in range(1, n + 1)))
    return m[1:]


def boolean_cumulants(moments: list) -> list:
    m = [Fraction(1)] + list(moments)
    h: list = []
    for n in range(1, len(m)):
        h.append(m[n] - sum(h[k - 1] * m[n - k] for k in range(1, n)))
    return h


def free_moments(r: list) -> list:
    """Coefficients of M solving M(t) = 1 + sum_s r_s (t M(t))^s.

    m_n = sum_s r_s [t^(n-s)] M^s, and [t^j] M^s needs m_0..m_j only, so
    the powers are filled column by column as the moments appear.
    """
    n_max = len(r)
    m = [Fraction(1)]
    # powers[s][j] = [t^j] M^s
    powers = [[Fraction(1)]] + [[] for _ in range(n_max)]
    for s in range(1, n_max + 1):
        powers[s].append(Fraction(1))
    for j in range(1, n_max + 1):
        m.append(sum(r[s - 1] * powers[s][j - s] for s in range(1, j + 1)))
        for s in range(1, n_max - j + 1):
            powers[s].append(
                sum(m[i] * powers[s - 1][j - i] for i in range(j + 1) if j - i < len(powers[s - 1]))
            )
    return m[1:]


def free_cumulants(moments: list) -> list:
    n_max = len(moments)
    big_m = ogf(moments)
    powers = [[Fraction(1)] + [Fraction(0)] * n_max]
    for _ in range(n_max):
        powers.append(ser_mul(powers[-1], big_m))
    r: list = []
    for n in range(1, n_max + 1):
        r.append(big_m[n] - sum(r[s - 1] * powers[s][n - s] for s in range(1, n)))
    return r


def abel_cumulants(moments: list, g: list) -> list:
    """The paper's Abel form c_n = sum_j C(n-1, j) a_{j+1} nu_{n-1-j}.

    nu_m = m! [t^m] f(t)^(-g_n), with f the moment EGF; the power comes
    from Miller's recurrence, one per distinct g_n.
    """
    f = egf(moments)
    a = [Fraction(1)] + [Fraction(v) for v in moments]
    n_max = len(moments)
    cache: dict = {}
    out = []
    for n in range(1, n_max + 1):
        gn = Fraction(g[n - 1])
        if gn not in cache:
            p = miller_power(f, -gn, n_max)
            cache[gn] = [math.factorial(k) * p[k] for k in range(n_max)]
        nu = cache[gn]
        out.append(sum(math.comb(n - 1, j) * a[j + 1] * nu[n - 1 - j] for j in range(n)))
    return out


def cumulants_of(theory: str, moments: list, g=None) -> list:
    if theory == "classical":
        return classical_cumulants(moments)
    if theory == "boolean":
        return boolean_cumulants(moments)
    if theory == "free":
        return free_cumulants(moments)
    if theory == "abel":
        return abel_cumulants(moments, g)
    raise ValueError(f"unknown theory {theory!r}")


def moments_of(theory: str, cumulants: list) -> list:
    if theory == "classical":
        return classical_moments(cumulants)
    if theory == "boolean":
        return boolean_moments(cumulants)
    if theory == "free":
        return free_moments(cumulants)
    raise ValueError(f"no forward map for {theory!r}")


# ---------------------------------------------------------------------------
# checks on sequence-valued outputs


def check_m2c(theory: str, moments: list, out: list, g=None) -> None:
    """`out` are the cumulants of `moments` in the given theory."""
    expect_equal(len(out), len(moments), f"{theory} m2c order")
    if theory == "abel":
        expect_equal(list(out), abel_cumulants(moments, g), "Abel form")
    else:
        expect_equal(moments_of(theory, list(out)), list(moments), f"{theory} relation")


def check_c2m(theory: str, cumulants: list, out: list, g=None) -> None:
    """`out` are the moments whose cumulants are `cumulants`."""
    expect_equal(len(out), len(cumulants), f"{theory} c2m order")
    if theory == "abel":
        expect_equal(abel_cumulants(list(out), g), list(cumulants), "Abel form")
    else:
        expect_equal(list(out), moments_of(theory, list(cumulants)), f"{theory} relation")


def check_convolution(theory: str, a: list, b: list, out: list, g=None) -> None:
    """Cumulants of the output are the sums of the inputs' cumulants."""
    ka, kb, ko = (cumulants_of(theory, s, g) for s in (a, b, out))
    expect_equal(ko, [x + y for x, y in zip(ka, kb)], f"{theory} additivity")


def check_umbral(outer: list, inner: list, flavor: str, out: list) -> None:
    """1 + H = O(A - 1) on exponential (egf) or ordinary (ogf) series."""
    to = egf if flavor == "egf" else ogf
    a = to(inner)
    a[0] = Fraction(0)
    want = ser_compose(to(outer), a)
    expect_equal(to(out), want, f"umbral {flavor} substitution")


def check_dot(multiplier_moments: list, moments: list, out: list) -> None:
    """1 + H = G(log A) on exponential series."""
    want = ser_compose(egf(multiplier_moments), ser_log(egf(moments)))
    expect_equal(egf(out), want, "dot operation on generating functions")


def check_matrix(moments: list, kmax: int, rows: list) -> None:
    nmax = len(rows)
    expect(all(len(row) == kmax for row in rows), "matrix column count")
    head = list(moments[:nmax])
    for k in range(1, kmax + 1):
        column = [row[k - 1] for row in rows]
        expect_equal(column, abel_cumulants(head, [k] * nmax), f"matrix column k={k}")


def check_transport(moments: list, out: list) -> None:
    """The output is 1/R on ordinary series, R the free-cumulant series."""
    big_r = ogf(free_cumulants(moments))
    product = ser_mul(big_r, ogf(out))
    expect_equal(product, [Fraction(1)] + [Fraction(0)] * len(out), "R * (1/R) = 1")


# ---------------------------------------------------------------------------
# series identities


def check_reciprocal(f: list, out: list) -> None:
    expect_equal(ser_mul(f, out), [Fraction(1)] + [Fraction(0)] * (len(f) - 1), "f * f^-1 = 1")


def check_revert(d: list, out: list) -> None:
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(d) - 2)
    expect(out[0] == 0, "inverse of a delta series is a delta series")
    expect_equal(ser_compose(d, out), t, "d(d^-1(t)) = t")


def check_log(f: list, out: list) -> None:
    """f' = f * (log f)' and log f(0) = 0."""
    expect_equal(out[0], Fraction(0), "log constant term")
    n = len(f) - 1
    lhs = ser_deriv(f)
    rhs = ser_mul(f[:n], ser_deriv(out))
    expect_equal(lhs, rhs, "f' = f * (log f)'")


def check_exp(d: list, out: list) -> None:
    """exp d is the f with f(0) = 1 and f' = f * d'."""
    expect_equal(out[0], Fraction(1), "exp constant term")
    n = len(d) - 1
    expect_equal(ser_deriv(out), ser_mul(out[:n], ser_deriv(d)), "f' = f * (log f)'")


def check_compose(outer: list, inner: list, out: list) -> None:
    expect_equal(list(out), ser_compose(outer, inner), "Horner composition")


# ---------------------------------------------------------------------------
# lattices, partitions and parking functions


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


LATTICE_SIZE = {
    "all": bell,
    "nc": catalan,
    "interval": lambda n: 2 ** (n - 1),
}

MOBIUS = {
    "all": lambda n: (-1) ** (n - 1) * math.factorial(n - 1),
    "nc": lambda n: (-1) ** (n - 1) * catalan(n - 1),
    "interval": lambda n: (-1) ** (n - 1),
}


def check_mobius(lattice: str, n: int, value) -> None:
    expect_equal(Fraction(value), Fraction(MOBIUS[lattice](n)), f"mobius {lattice} n={n}")


def crosses(blocks) -> bool:
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    n = len(owner)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                if owner[a] == owner[c] and owner[b] != owner[a]:
                    for d in range(c + 1, n + 1):
                        if owner[d] == owner[b]:
                            return True
    return False


def partition_digest(n: int, partitions, noncrossing: bool) -> dict:
    """Summary of an enumeration: size, validity, distinctness."""
    seen = set()
    valid = True
    for blocks in partitions:
        flat = sorted(x for b in blocks for x in b)
        if flat != list(range(1, n + 1)) or (noncrossing and crosses(blocks)):
            valid = False
        seen.add(frozenset(frozenset(b) for b in blocks))
    return {"count": len(partitions), "distinct": len(seen), "valid": valid}


def check_partition_digest(lattice: str, n: int, digest: dict) -> None:
    expect(digest["valid"], f"{lattice} n={n}: an element is not a valid partition")
    expect_equal(digest["distinct"], digest["count"], f"{lattice} n={n} distinct elements")
    expect_equal(digest["count"], LATTICE_SIZE[lattice](n), f"{lattice} n={n} lattice size")


def parking_digest(n: int, functions) -> dict:
    valid = all(
        len(p) == n and all(v <= j for j, v in enumerate(sorted(p), 1)) and min(p) >= 1
        for p in functions
    )
    return {"count": len(functions), "distinct": len(set(map(tuple, functions))), "valid": valid}


def check_parking_digest(n: int, digest: dict) -> None:
    expect(digest["valid"], f"parking n={n}: an entry is not a parking function")
    expect_equal(digest["distinct"], digest["count"], f"parking n={n} distinct")
    expect_equal(digest["count"], (n + 1) ** (n - 1), f"parking n={n} count")


def _parking_contents(n: int):
    """Weak compositions k_1..k_n with k_1 + ... + k_j >= j: parking contents."""
    def rec(j, placed, acc):
        if j == n:
            if placed == n:
                yield tuple(acc)
            return
        for k in range(0, n - placed + 1):
            if placed + k >= j + 1:
                acc.append(k)
                yield from rec(j + 1, placed + k, acc)
                acc.pop()
    yield from rec(0, 0, [])


def parking_volume(xs: list) -> Fraction:
    """(1/n!) sum over parking contents of multinomial(n; k) prod x_i^k_i."""
    n = len(xs)
    total = Fraction(0)
    for k in _parking_contents(n):
        coeff = math.factorial(n)
        term = Fraction(1)
        for i, ki in enumerate(k):
            coeff //= math.factorial(ki)
            if ki:
                term *= Fraction(xs[i]) ** ki
        total += coeff * term
    return total / math.factorial(n)


def parking_volume_symmetric(seq: list, n: int) -> Fraction:
    """As above with x_i^k replaced by the k-th entry of the sequence."""
    total = Fraction(0)
    for k in _parking_contents(n):
        coeff = math.factorial(n)
        term = Fraction(1)
        for ki in k:
            coeff //= math.factorial(ki)
            if ki:
                term *= Fraction(seq[ki - 1])
        total += coeff * term
    return total / math.factorial(n)


def nc_convolution_zeta(f: list, n: int) -> Fraction:
    """sum over NC(n) of f_pi: the n-th free moment of cumulants f."""
    return free_moments(list(f[:n]))[n - 1]


def nc_convolution_mobius(f: list, n: int) -> Fraction:
    """sum over NC(n) of f_pi mu(K(pi)): the n-th free cumulant of moments f."""
    return free_cumulants(list(f[:n]))[n - 1]


def full_convolution(f: list, g: list, n: int) -> Fraction:
    """sum over the full lattice of f_pi g_(blocks): n! [t^n] G(F - 1), egf."""
    inner = egf(f[:n])
    inner[0] = Fraction(0)
    return math.factorial(n) * ser_compose(egf(g[:n]), inner)[n]


def interval_convolution(f: list, g: list, n: int) -> Fraction:
    """sum over interval partitions of f_pi g_(blocks): [t^n] G(F - 1), ogf."""
    inner = ogf(f[:n])
    inner[0] = Fraction(0)
    return ser_compose(ogf(g[:n]), inner)[n]


# ---------------------------------------------------------------------------
# command line outputs


def parse_cli_output(stdout: str):
    """Exactly one JSON document on stdout."""
    expect(stdout.endswith("\n"), "stdout does not end with a newline")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not a single JSON document: {exc}") from exc


def fractions(strings) -> list:
    expect(all(isinstance(s, str) for s in strings), "exact values must be strings")
    return [Fraction(s) for s in strings]
