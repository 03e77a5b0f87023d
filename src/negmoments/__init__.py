"""Moments of the entanglement negativity of random bipartite pure states.

Exact (big-rational, sqrt(pi)-graded) mean and variance for Haar-random
equal bipartitions, a Monte Carlo and pseudorandom-circuit sampling lab to
verify them, and the teleportation / distillation bounds they imply.

The package registers its submodules lazily and loads the exports below on
first use (PEP 562), so importing the package, or running
``negmoments --version``, loads no numpy. sampling imports numpy when it
runs, and only ``sample`` and ``compare`` run it; distribution and
bounds.cluster_check import it inside the functions that need it. The exact
engine and its ``verify`` oracles (exactring, laguerre, quadrature, moments,
selfcheck) never import it.
Floats are correctly rounded by integer arithmetic, so no command loads
mpmath: only ``SqrtPiPolynomial.evaluate_mpf`` imports it.
"""

import importlib.util
import sys

#: Public names by the submodule that defines them.
_EXPORTS = {
    "bounds": (
        "BoundsReport",
        "RATIO_PRESET",
        "asymptotic_singlet_distance",
        "build_bounds_report",
        "cluster_check",
        "distillable_upper",
        "log_negativity",
    ),
    "distribution": (
        "ComparisonReport",
        "GaussianReference",
        "Histogram",
        "build_document",
        "build_histogram",
        "compare",
        "gaussian_reference",
    ),
    "exactring": (
        "BACKEND",
        "PoleError",
        "SqrtPiPolynomial",
        "eval_float",
        "format_rational",
        "gamma_half",
    ),
    "laguerre": (
        "laguerre_pair_integral",
        "laguerre_pair_integral_hyp3f2",
    ),
    "moments": (
        "EXACT_MODE_CEILING",
        "MomentReport",
        "PairIntegralMatrix",
        "ResourceCeilingError",
        "TableRow",
        "build_pair_integral_matrix",
        "det_moment_sum",
        "extrapolate_limit",
        "generate_table",
        "max_negativity",
        "mean_negativity",
        "mean_pair_product",
        "normalized_moments",
        "variance_negativity",
    ),
    "quadrature": (
        "InsufficientNodesError",
        "laguerre_pair_integral_quadrature",
    ),
    "sampling": (
        "STREAM_ID",
        "SampleBatch",
        "haar_pure_state",
        "reduced_state_a",
        "sample_negativities",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def _lazy(name: str):
    """Submodule ``name``, put into sys.modules now and run on first attribute access.

    A command runs only the modules it uses, and every module keeps its
    usual name, so ``from .moments import ...`` elsewhere, the package's own
    attributes and tools that look modules up in sys.modules all see this
    one object.
    """
    fullname = f"{__name__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in (*_EXPORTS, "selfcheck", "_writer")})


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_SOURCE[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
