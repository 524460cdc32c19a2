"""Exact cumulant calculus: classical, boolean, free, and the unified family.

Rational-arithmetic moment/cumulant transforms with three independent
verification layers: truncated generating functions, brute-force partition
lattice convolutions, and parking-function volume polynomials.
"""

from .lattice import (
    MultiplicativeFunction,
    convolve_lattice,
    eval_interval,
    mobius_by_recursion,
    mobius_function,
    verify_theorem,
)
from .parking import (
    enumerate_parking,
    is_parking,
    moments_via_volume,
    orbit_moment_eval,
    orbit_size,
    parking_type,
    volume_bruteforce,
    volume_bruteforce_symmetric,
    volume_shape_eval,
)
from .partitions import (
    IntegerPartition,
    Lattice,
    SetPartition,
    count_by_shape,
    d_lambda,
    integer_partitions,
    interval_partitions,
    interval_type,
    is_interval,
    is_noncrossing,
    kreweras_complement,
    leq_refinement,
    noncrossing_partitions,
    set_partitions,
    single_block,
    singletons,
)
from .series import TruncatedSeries, falling_factorial
from .transforms import (
    CumulantMatrix,
    MomentSequence,
    MultiplierSequence,
    abel_copy_oracle,
    abel_oracle,
    boolean_convolve,
    boolean_free_transport,
    boolean_from_moments,
    boolean_from_moments_series,
    classical_convolve,
    classical_from_moments,
    classical_from_moments_series,
    cumulant_matrix,
    dot_operation,
    factorial_moments,
    free_convolve,
    free_from_moments,
    gamma_convolve,
    generalized_cumulants,
    moments_from_boolean,
    moments_from_classical,
    moments_from_free,
    moments_from_free_series,
    moments_from_generalized,
    named_sequence,
    umbral_composition,
)

__version__ = "0.1.0"
