"""Moments of the entanglement negativity of random bipartite pure states.

Exact (big-rational, sqrt(pi)-graded) mean and variance for Haar-random
equal bipartitions, a Monte Carlo and pseudorandom-circuit sampling lab to
verify them, and the teleportation / distillation bounds they imply.
"""

from ._backend import BACKEND, format_rational, parse_rational
from .bounds import (
    BoundsReport,
    CLUSTER_THRESHOLD_PRESETS,
    RATIO_PRESET,
    asymptotic_singlet_distance,
    build_bounds_report,
    cluster_check,
    cluster_threshold,
    distillable_upper,
    log_negativity,
    singlet_distance_lower,
    teleportation_fidelity_upper,
)
from .distribution import (
    ComparisonReport,
    GaussianReference,
    Histogram,
    build_document,
    build_histogram,
    compare,
    export,
    gaussian_reference,
)
from .exactring import (
    HalfInteger,
    PoleError,
    SqrtPiMonomial,
    SqrtPiPolynomial,
    eval_float,
    gamma_half,
    reciprocal_gamma_half,
)
from .laguerre import (
    laguerre_eval,
    laguerre_pair_integral,
    laguerre_pair_integral_hyp3f2,
    pochhammer,
    squared_vandermonde_integral,
)
from .moments import (
    EXACT_MODE_CEILING,
    MomentReport,
    PairIntegralMatrix,
    ResourceCeilingError,
    TableRow,
    build_pair_integral_matrix,
    det_moment_sum,
    extrapolate_limit,
    fourth_moment,
    generate_table,
    max_negativity,
    mean_negativity,
    mean_pair_product,
    normalized_moments,
    sqrt_sum_second_moment,
    variance_negativity,
)
from .quadrature import (
    InsufficientNodesError,
    gauss_generalized_laguerre,
    laguerre_pair_integral_quadrature,
)
from .sampling import (
    STREAM_ID,
    DensityMatrix,
    PureState,
    SampleBatch,
    SchmidtSpectrum,
    haar_pure_state,
    negativity_general,
    negativity_pure,
    partial_transpose,
    pseudorandom_circuit_state,
    reduced_state_a,
    sample_negativities,
    schmidt_spectrum,
)

__version__ = "0.1.0"
