"""Moment/cumulant transforms: classical, boolean, free, and the unified family.

Every partition sum here is one weighted row of the ordinary partial Bell
polynomial (Comtet, Advanced Combinatorics, 3.3):

    c_n = sum_l w(n, l) B_{n,l}(a),   B_{n,l}(a) = sum over shapes lambda of n
                                                   with l parts of l!/m(lambda)! a_lambda

where a_lambda is the product of the sequence over the parts.  The exponential
row, which counts set partitions (d_lambda) instead of compositions, is
n!/l! B_{n,l}(a_k/k!), so the exponential maps read their input unbarred and
bar their output.  Only _bell_step builds rows: it appends row m of a table
by the recurrence B_{m,l} = sum_i a_i B_{m-i,l-1}, skipping zero entries, zero
cells and the cells of each source row that no nonzero entries can reach.
cumulant_matrix grows one table to nmax and reads row n for every column, and
moments_from_generalized grows one with its triangular solve: O(N^3) each.
The other maps go through _shape_sums, which still grows rows 0..n afresh
at each degree (_bell_row), O(N^4) per map: the shape-sums benchmark keeps
every output until its run ends, so a faster map there raises its peak
memory past the benchmark's bound, until the benchmark keeps digests only.
A walk over the shapes grows exponentially in n.  Every cumulant weight is
the Abel weight (x)_(l-1)/l! of _abel_weight:

    x = -1      classical_from_moments (unbarred)
    x = -2, -n  boolean_from_moments, free_from_moments
    x = -g_n    generalized_cumulants and its inverse (unbarred)
    x = -k      cumulant_matrix (unbarred)
    x = n       moments_from_free and parking.orbit_moment_eval, which
                parking.volume_shape_eval reads unbarred

The one other weight is an outer sequence g_l (umbral_composition); its
exponential flavor gives moments_from_classical (g = u, composition with
e^t - 1) and dot_operation (g the factorial moments).  In the unified
family, multipliers g == 1 give classical cumulants, g == 2 on factorially
rescaled ("barred") sequences boolean ones, g_n == n on barred sequences
free ones, and the Pitman-Stanley volume polynomial is the free-moment
polynomial read at a_k/k!.

Each closed form ships with an independent generating-function oracle:
log/exp of the exponential generating function for the classical pair,
reciprocal of the ordinary generating function for the boolean pair,
series reversion for the free pair, and two evaluation routes for the
general family.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import (
    Frozen, TruncatedSeries, _check_int, _check_order, _check_orders, _setattr, as_fraction,
    check_size, exact_json, falling_factorial,
)


class MomentSequence(Frozen):
    """Exact values a_1..a_N of a sequence, with a_0 = 1 left implicit.

    The one exact-sequence type: moments, cumulants and the multipliers
    g of the unified family are all stored this way.
    """

    FIELDS = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        _setattr(self, "values", tuple(as_fraction(v) for v in values))

    @classmethod
    def from_values(cls, values) -> "MomentSequence":
        return cls(tuple(values))

    @classmethod
    def constant(cls, value, order: int) -> "MomentSequence":
        _check_order(order)
        return cls(tuple([as_fraction(value)] * order))

    @classmethod
    def index(cls, order: int) -> "MomentSequence":
        """a_n = n, the free-cumulant multiplier."""
        return cls(named_sequence("uD", order).values)

    @property
    def order(self) -> int:
        return len(self.values)

    def moment(self, k: int) -> Fraction:
        """a_k, with a_0 = 1; the index is a plain int, never a bool."""
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= len(self.values):
            raise ValueError(f"index {k!r} outside 0..{self.order}")
        return self.values[k - 1] if k else Fraction(1)

    g = f = moment  # read as multipliers g_n or multiplicative-function values f_n

    def _rescaled(self, factor) -> "MomentSequence":
        """Entry n times factor(n), as a plain MomentSequence."""
        return MomentSequence(tuple(factor(n) * v for n, v in enumerate(self.values, start=1)))

    def bar(self) -> "MomentSequence":
        """Factorial rescaling a_n -> n! a_n (read the EGF as an OGF)."""
        return self._rescaled(math.factorial)

    def unbar(self) -> "MomentSequence":
        return self._rescaled(lambda n: Fraction(1, math.factorial(n)))

    def scaled(self, j) -> "MomentSequence":
        """Moments of the rescaled sequence: entry n becomes j**n * a_n."""
        j = as_fraction(j)
        return self._rescaled(lambda n: j**n)

    def truncated(self, k: int) -> "MomentSequence":
        _check_int(k, "truncation order")
        if not 0 <= k <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {k}")
        return MomentSequence(self.values[:k])

    def to_egf(self) -> TruncatedSeries:
        return TruncatedSeries(
            self.order,
            [Fraction(1)]
            + [v / math.factorial(n) for n, v in enumerate(self.values, start=1)],
        )

    def to_ogf(self) -> TruncatedSeries:
        return TruncatedSeries(self.order, (Fraction(1),) + self.values)

    @classmethod
    def from_egf(cls, series: TruncatedSeries) -> "MomentSequence":
        """The sequence n! [t^n] series: the OGF reading, barred."""
        return cls(MomentSequence.from_ogf(series).bar().values)

    @classmethod
    def from_ogf(cls, series: TruncatedSeries) -> "MomentSequence":
        if series.coeffs[0] != 1:
            raise ValueError("moment generating function must start at 1")
        return cls(series.coeffs[1:])

    def to_json(self) -> dict:
        return {"order": self.order, "values": [str(v) for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> "MomentSequence":
        order, values = exact_json(data, "sequence", "values")
        if len(values) != order:
            raise ValueError(f"value count {len(values)} does not match order {order}")
        return cls(tuple(values))


# per-degree multipliers g_1..g_N of the unified cumulant family
MultiplierSequence = MomentSequence


def _bell_numbers(count: int) -> list[int]:
    bells = [1]  # starts at index 0
    for n in range(count):
        bells.append(sum(math.comb(n, k) * bells[k] for k in range(n + 1)))
    return bells[1:]


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_NAMED = {
    "u": lambda n: [1] * n,
    "chi": lambda n: [int(k == 1) for k in range(1, n + 1)],
    "epsilon": lambda n: [0] * n,
    "ubar": lambda n: [math.factorial(k) for k in range(1, n + 1)],
    "uD": lambda n: list(range(1, n + 1)),
    "bell": _bell_numbers,
    "catalan": lambda n: [_catalan(k) for k in range(1, n + 1)],
}


def named_sequence(name: str, order: int) -> MomentSequence:
    """Built-in sequences: u, chi, epsilon, ubar, uD, bell, catalan."""
    _check_order(order)
    gen = _NAMED.get(name) if isinstance(name, str) else None
    if gen is None:
        raise ValueError(f"unknown sequence name {name!r}; choose from {sorted(_NAMED)}")
    return MomentSequence.from_values(gen(order))


def _bell_step(rows: list, entries: list) -> list[Fraction]:
    """Append and return row m = len(rows): B_{m,l} = sum_i a_i B_{m-i,l-1}.

    entries are the nonzero (i, a_i), by increasing i.  B_{k,l} sums over the
    ways to write k as l of their indices, so of source row k only the cells
    l = ceil(k / i_max)..k // i_min are read.
    """
    m = len(rows)
    row = [Fraction(0)] * (m + 1)
    for i, a in entries:
        if i > m:
            break
        k = m - i
        lo = -(-k // entries[-1][0])
        for l, b in enumerate(rows[k][lo:k // entries[0][0] + 1], start=lo + 1):
            if b:  # zero cells are common on sparse inputs
                row[l] += a * b
    rows.append(row)
    return row


def _bell_table(values, n: int) -> list[list[Fraction]]:
    """Rows B^ord_{m,0..m}(values), m = 0..n, grown from B_{0,0} = 1."""
    entries = [(i, a) for i, a in enumerate(values[:n], start=1) if a]
    rows = [[Fraction(1)]]
    for _ in range(n):
        _bell_step(rows, entries)
    return rows


def _bell_row(values, n: int) -> list[Fraction]:
    """B^ord_{n,0..n}(values), the last row of a table grown afresh."""
    return _bell_table(values, n)[n]


def _shape_sum(values, n: int, weight) -> Fraction:
    """sum_l weight(n, l) * B^ord_{n,l}(values): every partition-sum formula."""
    row = _bell_row(values, n)
    return sum((weight(n, l) * row[l] for l in range(1, n + 1)), Fraction(0))


def _shape_sums(seq: MomentSequence, weight) -> MomentSequence:
    """The shape sums of seq at every degree 1..N."""
    return MomentSequence(tuple(_shape_sum(seq.values, n, weight) for n in range(1, seq.order + 1)))


def _abel_pairing(a: MomentSequence, nu, n: int) -> Fraction:
    """sum_j C(n-1, j) a_{j+1} nu_{n-1-j}: the letter delta paired with n - 1 powers of nu."""
    terms = (math.comb(n - 1, j) * a.moment(j + 1) * nu[n - 1 - j] for j in range(n))
    return sum(terms, Fraction(0))


def _abel_weight(x, l: int) -> Fraction:
    """(x)_(l-1) / l!: the cumulant weight of multiplier -x on the ordinary row."""
    return Fraction(falling_factorial(x, l - 1), math.factorial(l))


# ---------------------------------------------------------------------------
# classical pair


def classical_from_moments(moments: MomentSequence) -> MomentSequence:
    """c_n / n! = sum_l (-1)_(l-1) / l! B^ord_{n,l}(a_k / k!)."""
    return _shape_sums(moments.unbar(), lambda n, l: _abel_weight(-1, l)).bar()


def moments_from_classical(cumulants: MomentSequence) -> MomentSequence:
    """a_n / n! = sum_l 1/l! B^ord_{n,l}(c_k / k!), the complete Bell polynomial:
    composition with e^t - 1, whose EGF coefficients are u."""
    return umbral_composition(named_sequence("u", cumulants.order), cumulants, "egf")


def classical_from_moments_series(moments: MomentSequence) -> MomentSequence:
    """Oracle: the cumulant EGF, 1 + C, is 1 + log of the moment EGF."""
    return MomentSequence.from_egf(moments.to_egf().log() + 1)


# ---------------------------------------------------------------------------
# boolean pair


def boolean_from_moments(moments: MomentSequence) -> MomentSequence:
    """h_n = sum_l (-2)_(l-1) / l! B^ord_{n,l}(a), that is (-1)^(l-1)."""
    return _shape_sums(moments, lambda n, l: _abel_weight(-2, l))


def moments_from_boolean(cumulants: MomentSequence) -> MomentSequence:
    """M = 1 / (1 - H) on ordinary generating functions, with 1 - H = 2 - (1 + H)."""
    return MomentSequence.from_ogf((2 - cumulants.to_ogf()).reciprocal())


def boolean_from_moments_series(moments: MomentSequence) -> MomentSequence:
    """Oracle: H = 1 - 1/M on ordinary generating functions, so 1 + H = 2 - 1/M."""
    return MomentSequence.from_ogf(2 - moments.to_ogf().reciprocal())


# ---------------------------------------------------------------------------
# free pair


def free_from_moments(moments: MomentSequence) -> MomentSequence:
    """r_n = sum_l (-n)_(l-1) / l! B^ord_{n,l}(a)."""
    return _shape_sums(moments, lambda n, l: _abel_weight(-n, l))


def moments_from_free(cumulants: MomentSequence) -> MomentSequence:
    """a_n = sum_l (n)_(l-1) / l! B^ord_{n,l}(r)."""
    return _shape_sums(cumulants, _abel_weight)


def moments_from_free_series(cumulants: MomentSequence) -> MomentSequence:
    """Oracle by Lagrange inversion (Stanley, EC2, 5.4).

    The moment OGF solves M(t) = R(t M(t)), so w = t M(t) solves w = t R(w):
    it is the compositional inverse of t / R(t), and m_n = w_(n+1).
    """
    inverse_r = cumulants.to_ogf().reciprocal()
    w = TruncatedSeries(cumulants.order + 1, (0,) + inverse_r.coeffs).revert()
    return MomentSequence(w.coeffs[2:])


# ---------------------------------------------------------------------------
# unified family


def _generalized_weight(multipliers: MultiplierSequence):
    """Weight (-g_n)_(l-1) / l! of the unified family, on unbarred sequences."""
    return lambda n, l: _abel_weight(-multipliers.g(n), l)


def generalized_cumulants(
    moments: MomentSequence, multipliers: MultiplierSequence
) -> MomentSequence:
    """c_n / n! = sum_l (-g_n)_(l-1) / l! B^ord_{n,l}(a_k / k!)."""
    _check_orders(moments, multipliers)
    return _shape_sums(moments.unbar(), _generalized_weight(multipliers)).bar()


def moments_from_generalized(
    cumulants: MomentSequence, multipliers: MultiplierSequence
) -> MomentSequence:
    """Inverse of generalized_cumulants by the triangular recursion.

    On unbarred values, B^ord_{n,1}(a) = a_n enters with weight 1 and
    B^ord_{n,l} for l >= 2 involves lower moments only, so a_n is c_n minus
    the degree-n sum taken with a_n = 0.
    """
    _check_orders(cumulants, multipliers)
    weight = _generalized_weight(multipliers)
    rows, entries, acc = [[Fraction(1)]], [], []
    for n, c_n in enumerate(cumulants.unbar().values, start=1):
        row = _bell_step(rows, entries)  # a_n is not in entries yet, so row[1] = 0
        acc.append(c_n - sum((weight(n, l) * row[l] for l in range(2, n + 1)), Fraction(0)))
        row[1] = acc[-1]  # B_{n,1} = a_n, read by the rows above
        if acc[-1]:
            entries.append((n, acc[-1]))
    return MomentSequence(tuple(acc)).bar()


def abel_oracle(
    moments: MomentSequence, multipliers: MultiplierSequence, n: int
) -> Fraction:
    """Generating-function route for the n-th generalized cumulant.

    Pairs a fresh uncorrelated letter delta with the power sequence of the
    inverse dot product: nu_m = m! [t^m] f(t)^(-g_n) where f is the moment
    EGF, then expands delta (delta - g_n . a)^(n-1) binomially, so

        c_n = sum_j C(n-1, j) a_{j+1} nu_{n-1-j}.

    Only nu_0..nu_(n-1) enter, so f is powered at order n - 1: truncation
    commutes with every series operation, and the values are those at order N.
    """
    _check_orders(moments, multipliers)
    check_size(n, moments.order, "the Abel oracle needs")
    powered = moments.truncated(n - 1).to_egf().power(-multipliers.g(n))
    return _abel_pairing(moments, (1,) + MomentSequence.from_egf(powered).values, n)


def abel_copy_oracle(moments: MomentSequence, k: int, n: int) -> Fraction:
    """Copy-expansion route for a nonnegative integer multiplier g_n = k.

    The subtracted letter is the additive inverse of k copies, i.e. k
    uncorrelated copies of the inverse sequence.  Inverse moments come from
    the defining convolution identity sum_j C(m, j) a_j inv_{m-j} = 0; the k
    copies are added one at a time to zero copies, moments (1, 0, ..., 0), by
    (x + y)^m = sum_j C(m, j) x^j y^(m-j), so no partition formula and no
    series powering is reused.
    """
    check_size(k, math.inf, "the copy oracle needs a multiplier", least=0)
    check_size(n, moments.order, "the copy oracle needs")
    inv = [Fraction(1)]
    for m in range(1, n):
        inv.append(
            -sum(math.comb(m, j) * moments.moment(j) * inv[m - j] for j in range(1, m + 1))
        )
    copies = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(k):
        copies = [
            sum(math.comb(m, j) * copies[j] * inv[m - j] for j in range(m + 1))
            for m in range(n)
        ]
    return _abel_pairing(moments, copies, n)


class CumulantMatrix(Frozen):
    """Rows n = 1..nmax, columns k = 1..kmax of constant-multiplier cumulants."""

    FIELDS = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]):
        _setattr(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, n: int, k: int) -> Fraction:
        _check_int(n, "row")
        if not 1 <= n <= self.rows:  # index 0 would read the last row
            raise ValueError(f"row {n} outside 1..{self.rows}")
        return self.column(k).values[n - 1]

    def column(self, k: int) -> MomentSequence:
        _check_int(k, "column")
        if not 1 <= k <= self.cols:
            raise ValueError(f"column {k} outside 1..{self.cols}")
        return MomentSequence(tuple(row[k - 1] for row in self.entries))

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(v) for v in row] for row in self.entries],
        }


def cumulant_matrix(moments: MomentSequence, nmax: int, kmax: int) -> CumulantMatrix:
    """Table c_{n,k} of k-th constant-multiplier cumulants of the input."""
    check_size(nmax, moments.order, "cumulant matrix rows need")
    check_size(kmax, math.inf, "cumulant matrix columns need")
    table = _bell_table(moments.unbar().values, nmax)  # row n serves every k
    return CumulantMatrix(tuple(
        tuple(math.factorial(n) * sum(_abel_weight(-k, l) * row[l] for l in range(1, n + 1))
              for k in range(1, kmax + 1))
        for n, row in enumerate(table[1:], start=1)
    ))


# ---------------------------------------------------------------------------
# convolutions


def _convolve(a: MomentSequence, b: MomentSequence, forward, back, *g) -> MomentSequence:
    """back(forward(a) + forward(b)): each family's cumulants linearize its convolution."""
    _check_orders(a, b)
    x, y = forward(a, *g), forward(b, *g)
    return back(MomentSequence(tuple(p + q for p, q in zip(x.values, y.values))), *g)


def classical_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the sum of uncorrelated sequences: add classical cumulants."""
    return _convolve(a, b, classical_from_moments, moments_from_classical)


def boolean_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    return _convolve(a, b, boolean_from_moments, moments_from_boolean)


def free_convolve(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    return _convolve(a, b, free_from_moments, moments_from_free)


def gamma_convolve(
    a: MomentSequence, b: MomentSequence, multipliers: MultiplierSequence
) -> MomentSequence:
    """Convolution for the unified family: add generalized cumulants, invert."""
    return _convolve(a, b, generalized_cumulants, moments_from_generalized, multipliers)


def boolean_free_transport(moments: MomentSequence) -> MomentSequence:
    """Coefficients l_1..l_N of the reciprocal of the free-cumulant OGF.

    Free convolution of moment sequences becomes boolean convolution of
    their transported sequences, which is what makes the free central limit
    behave boolean-ly after this change of coordinates.
    """
    return MomentSequence.from_ogf(free_from_moments(moments).to_ogf().reciprocal())


# ---------------------------------------------------------------------------
# compositions and dot operations


def umbral_composition(
    outer: MomentSequence, inner: MomentSequence, flavor: str
) -> MomentSequence:
    """Composition h_n = sum_l g_l B^ord_{n,l}(a).

    Flavor 'ogf' matches substitution of ordinary generating functions.
    Flavor 'egf' matches substitution of exponential ones: it is the same
    sum on the unbarred sequences g_l/l! and a_k/k!, barred.
    """
    _check_orders(outer, inner)
    if flavor not in ("egf", "ogf"):
        raise ValueError(f"flavor must be 'egf' or 'ogf', got {flavor!r}")
    if flavor == "ogf":
        return _shape_sums(inner, lambda n, l: outer.values[l - 1])
    g = outer.unbar().values
    return _shape_sums(inner.unbar(), lambda n, l: g[l - 1]).bar()


def factorial_moments(moments: MomentSequence) -> MomentSequence:
    """a_(n) = sum_k s(n, k) a_k with signed Stirling numbers of the first kind.

    Row s(n, .) holds the coefficients of (x)_n = (x)_(n-1) (x - n + 1), so
    each degree's row comes from the last: s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k).
    """
    row = [1]  # s(0, 0)
    out = []
    for n in range(1, moments.order + 1):
        row = [up - (n - 1) * same for up, same in zip([0] + row, row + [0])]
        out.append(sum(s * a for s, a in zip(row[1:], moments.values)))
    return MomentSequence(tuple(out))


def dot_operation(
    multiplier_moments: MomentSequence, moments: MomentSequence
) -> MomentSequence:
    """Moments of the dot product: a_n / n! = sum_l g_(l) / l! B^ord_{n,l}(a_k / k!).

    g_(l) are the factorial moments of the first argument.  On generating
    functions this is f_g applied to log of the moment EGF.
    """
    return umbral_composition(factorial_moments(multiplier_moments), moments, "egf")
