"""Each fast map and the oracle it is checked against share no code.

Every pair below runs once per side under ``sys.setprofile``, recording the
code objects of the ``cumulants`` functions that side calls.  The two sides
may share only value-type plumbing: building, sizing and reading a
``MomentSequence``, the factorial rescaling ``bar``, and the size and order
checks.  Anything else in common would let one bug pass on both sides.

``bar`` (through ``_rescaled``) is shared by the classical and Abel pairs,
so a fault there would cancel in those comparisons; the committed output
pins (``tests/test_output_pins.py``) and the closed-form anchors
(``tests/test_transforms.py::test_closed_form_anchors``) cover it instead.
"""

from __future__ import annotations

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import CodeType

import pytest

from cumulants import lattice, partitions, series, transforms
from cumulants.lattice import Lattice, MultiplicativeFunction, convolve_lattice, mobius_function
from cumulants.parking import volume_bruteforce_symmetric, volume_shape_eval
from cumulants.transforms import MomentSequence

PLUMBING = (
    MomentSequence.__init__,
    MomentSequence.order.fget,
    MomentSequence.moment,
    MomentSequence.bar,
    MomentSequence._rescaled,
    series.as_fraction,
    partitions.check_size,
    transforms._check_orders,
)


def _codes(code):
    """A code object and those nested in it: its generator expressions and lambdas."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _codes(const)


ALLOWED = {code for fn in PLUMBING for code in _codes(fn.__code__)}


def _called(thunk):
    """Code objects of the cumulants functions that one call of thunk runs."""
    lattice._elements.cache_clear()  # a warm cache would hide the enumeration behind it
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("cumulants"):
            seen.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(outer)
    return seen


def _sequence(seed, order):
    rng = random.Random(seed)
    return MomentSequence.from_values(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order)]
    )


N = 5
A, G = _sequence(0, N), _sequence(1, N)
K = MomentSequence.constant(3, N)
A_MF = MultiplicativeFunction.from_sequence(A)
PAIRS = {
    "classical": (lambda: transforms.classical_from_moments(A),
                  lambda: transforms.classical_from_moments_series(A)),
    "boolean": (lambda: transforms.boolean_from_moments(A),
                lambda: transforms.boolean_from_moments_series(A)),
    "free": (lambda: transforms.moments_from_free(A),
             lambda: transforms.moments_from_free_series(A)),
    "abel": (lambda: transforms.generalized_cumulants(A, G),
             lambda: transforms.abel_oracle(A, G, N)),
    "abel-copy": (lambda: transforms.generalized_cumulants(A, K),
                  lambda: transforms.abel_copy_oracle(A, 3, N)),
    "matrix-copy": (lambda: transforms.cumulant_matrix(A, N, 3),
                    lambda: transforms.abel_copy_oracle(A, 3, N)),
    "volume": (lambda: volume_shape_eval(A, N),
               lambda: volume_bruteforce_symmetric(A, N)),
    # the free pairs of lattice.verify_theorem's T2 check
    "nc-mobius": (lambda: transforms.free_from_moments(A),
                  lambda: convolve_lattice(A_MF, mobius_function(N, Lattice.NC), N, Lattice.NC)),
    "nc-zeta": (lambda: transforms.moments_from_free(A),
                lambda: convolve_lattice(A_MF, MultiplicativeFunction.zeta(N), N, Lattice.NC)),
    # the per-shape references of tests/test_shape_sums.py read this enumeration
    "bell-row": (lambda: transforms._bell_row(A.values, N),
                 lambda: partitions.integer_partitions(N)),
}


@pytest.mark.parametrize("name", PAIRS)
def test_fast_map_and_oracle_share_only_plumbing(name):
    fast, oracle = (_called(thunk) for thunk in PAIRS[name])
    assert fast and oracle
    shared = sorted(code.co_name for code in (fast & oracle) - ALLOWED)
    assert not shared, f"{name}: fast map and oracle both call {shared}"


# The same independence, read statically off the imports: each module may import
# only modules of the layers to its left, so `transforms` and `partitions`, which
# share a layer, meet only in `series`.
LAYERS = [("series",), ("partitions", "transforms"), ("parking",), ("lattice",), ("cli",)]


def _imported(path):
    """The sibling modules that one source file names in its ``from .x import`` lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


def test_modules_import_only_the_layers_to_their_left():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    package = Path(transforms.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert modules == set(rank), "every module of the package has its layer"
    edges = {(name, other) for name in rank for other in _imported(package / f"{name}.py")}
    assert ("cli", "transforms") in edges  # the reader sees the imports at all
    wrong = sorted((a, b) for a, b in edges if rank[b] >= rank[a])
    assert not wrong, f"imports against the layering: {wrong}"
