"""Operational consequences of the average negativity, from its ratio alone.

The asymptotic bounds at a ratio c = <N>/N_max: the singlet distance 2(1-c),
the teleportation fidelity c, and the distillable entanglement
log2(c 2^(n/2) + 1 - c), about n/2 + log2(c). Also the spectral
concentration check that separates lopsided from balanced bipartitions. The
check tests one given reduced state; no dimension threshold is offered for
it, since the constant in its d_A log2(d_A) / epsilon^2 scale is not known.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "RATIO_PRESET",
    "BoundsReport",
    "asymptotic_singlet_distance",
    "distillable_upper",
    "log_negativity",
    "cluster_check",
    "build_bounds_report",
]

#: The source paper's value for the ratio of the mean negativity of a
#: Haar-random equal bipartition to the maximal one. It is the ratio at
#: n = 22 qubits, where the ratio's 1/mu law gives 0.7203698 (0.72023 at
#: n = 20, 0.72044 at n = 24), not an estimate of the limit below.
RATIO_PRESET = 0.72037

#: The large-size limit of that ratio, 64/(9 pi^2) from the Marchenko-Pastur
#: law, correctly rounded; the default ratio of the ``bounds`` command.
RATIO_LIMIT = 0.7205061947899575

#: Largest qubit count whose local dimension 2^(n/2) is a finite double
#: (2^1023; 2^1024 overflows).
_MAX_N_QUBITS = 2046


class BoundsReport(NamedTuple):
    """Bound values for one system size at a ratio c, in CSV column order."""

    n_qubits: int
    c: float
    mean_negativity: float
    singlet_distance_lb: float
    fidelity_ub: float
    distillable_ub_ebits: float


def asymptotic_singlet_distance(c: float) -> float:
    """Large-system limit 2 (1 - c) of the singlet-distance bound."""
    return 2.0 * (1.0 - c)


def distillable_upper(n_qubits: int, c: float) -> float:
    """Upper bound log2(c 2^{n/2} + 1 - c) on distillable entanglement.

    Follows from the mean partial-transpose trace norm c 2^{n/2} + 1 - c;
    asymptotically n/2 + log2(c), so c < 1 tightens the trivial n/2 bound
    by |log2 c| ebits.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    return math.log2(c * _local_dimension(n_qubits) + 1.0 - c)


def _local_dimension(n_qubits: int) -> int:
    """2^(n/2) for an even n from 2 to _MAX_N_QUBITS."""
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError("n_qubits must be even and at least 2")
    if n_qubits > _MAX_N_QUBITS:
        raise ValueError(f"n_qubits must be at most {_MAX_N_QUBITS}: 2^(n/2) must fit a double")
    return 2 ** (n_qubits // 2)


def log_negativity(neg: float) -> float:
    """Logarithmic negativity log2(2N + 1)."""
    if neg < 0:
        raise ValueError("negativity must be nonnegative")
    return math.log2(2.0 * neg + 1.0)


def cluster_check(rho_a, epsilon: float) -> bool:
    """True iff every eigenvalue of rho_A is within (1 +- eps)/d_A."""
    import numpy as np

    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    entries = np.asarray(rho_a, dtype=np.complex128)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("reduced state must be a square matrix")
    d_a = entries.shape[0]
    eigenvalues = np.linalg.eigvalsh(entries)
    lo = (1.0 - epsilon) / d_a
    hi = (1.0 + epsilon) / d_a
    return bool(eigenvalues.min() >= lo and eigenvalues.max() <= hi)


def build_bounds_report(n_qubits: int, c: float) -> BoundsReport:
    """Asymptotic bounds for an n-qubit equal bipartition at a ratio c in (0, 1].

    The mean is c (m-1)/2 with m = 2^(n/2), the singlet distance 2(1-c) and
    the fidelity c; neither needs clamping for c in (0, 1]. n_qubits runs up
    to 2046, where 2^(n/2) still fits a double.
    """
    m = _local_dimension(n_qubits)
    if not 0.0 < c <= 1.0:
        raise ValueError("ratio must lie in (0, 1]")
    mean = c * (m - 1) / 2.0
    return BoundsReport(
        n_qubits=n_qubits,
        c=c,
        mean_negativity=mean,
        singlet_distance_lb=asymptotic_singlet_distance(c),
        fidelity_ub=c,
        distillable_ub_ebits=distillable_upper(n_qubits, c),
    )
