"""Gauss quadrature oracle for the weighted Laguerre pair integrals.

Nodes for the weight x^alpha e^{-x} on [0, inf) start from the eigenvalues
of the symmetrized Jacobi matrix of the generalized Laguerre recurrence
(Golub-Welsch) and are polished by Newton steps on L_n^{(alpha)}. Weights
come from the closed form

    w_i = Gamma(n+alpha+1)/n! * x_i / ((n+alpha)^2 L_{n-1}^{(alpha)}(x_i)^2),

which stays accurate in relative terms even where the weights underflow the
eigenvector-based formula (first eigenvector components below sqrt(eps) are
pure noise). With n nodes the rule is exact for integrands of polynomial
degree <= 2n - 1, so it is an independent floating-point check of the
closed-form pair-integral evaluator whenever n >= k + l + 2.

Each rule is built once per (nodes, alpha) and cached as read-only arrays,
together with the table of L_k at its nodes for every k <= nodes - 2 (the
largest index an exact rule of that size can take), so the ``verify``
suites, which integrate many (k, l) pairs on the same rule, repeat neither
the eigenvalue solve nor the Laguerre recurrence; gauss_generalized_laguerre
returns copies that the caller may modify.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InsufficientNodesError",
    "gauss_generalized_laguerre",
    "laguerre_values",
    "laguerre_pair_integral_quadrature",
]


class InsufficientNodesError(ValueError):
    """Node count below the exactness requirement for the requested degree."""


def _gen_laguerre_pair(n: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L_{n-1}^{(alpha)}(x), L_n^{(alpha)}(x)) by the three-term recurrence."""
    import numpy as np

    prev = np.ones_like(x)
    cur = 1.0 + alpha - x
    if n == 0:
        return np.zeros_like(x), prev
    for i in range(1, n):
        prev, cur = cur, ((2 * i + alpha + 1 - x) * cur - (i + alpha) * prev) / (i + 1)
    return prev, cur


def _check_rule(nodes: int, alpha: float) -> None:
    if nodes < 1:
        raise ValueError("need at least one node")
    if alpha <= -1.0:
        raise ValueError("weight exponent must exceed -1")


def gauss_generalized_laguerre(nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^inf f(x) x**alpha e**(-x) dx."""
    _check_rule(nodes, alpha)
    x, w = _gauss_rule(nodes, float(alpha))
    return x.copy(), w.copy()


@lru_cache(maxsize=None)
def _gauss_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    # Built once per (nodes, alpha) and shared, so the arrays are read-only;
    # the public function hands out copies.
    import numpy as np

    i = np.arange(n, dtype=float)
    diagonal = 2.0 * i + alpha + 1.0
    off = np.sqrt(i[1:] * (i[1:] + alpha))
    jacobi = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)

    # Newton polish: x L_n' = n L_n - (n+alpha) L_{n-1}.
    for _ in range(2):
        below, value = _gen_laguerre_pair(n, alpha, x)
        derivative = (n * value - (n + alpha) * below) / x
        x = x - value / derivative

    below, _ = _gen_laguerre_pair(n, alpha, x)
    norm = math.gamma(n + alpha + 1) / math.factorial(n)
    w = norm * x / ((n + alpha) ** 2 * below**2)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def laguerre_values(k_max: int, x: np.ndarray) -> np.ndarray:
    """Array of standard Laguerre values L_k(x) for k = 0..k_max."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    values = np.empty((k_max + 1, x.size))
    values[0] = 1.0
    if k_max >= 1:
        values[1] = 1.0 - x
    for i in range(1, k_max):
        values[i + 1] = ((2 * i + 1 - x) * values[i] - i * values[i - 1]) / (i + 1)
    return values


def laguerre_pair_integral_quadrature(k: int, l: int, beta: float, nodes: int) -> float:
    """Gauss estimate of integral e^{-q} q^beta L_k(q) L_l(q) dq.

    Requires nodes >= k + l + 2 so the rule is exact (up to rounding) for the
    degree k+l polynomial left after absorbing q^beta e^{-q} into the weight.
    """
    import numpy as np

    if k < 0 or l < 0:
        raise ValueError("polynomial indices must be nonnegative")
    if nodes < k + l + 2:
        raise InsufficientNodesError(f"need at least {k + l + 2} nodes for degrees ({k}, {l})")
    _check_rule(nodes, beta)
    _, w = _gauss_rule(nodes, float(beta))
    table = _laguerre_table(nodes, float(beta))
    return float(np.sum(w * table[k] * table[l]))


@lru_cache(maxsize=None)
def _laguerre_table(n: int, alpha: float) -> np.ndarray:
    # L_k at the nodes of the (n, alpha) rule for k <= n - 2; each row comes
    # from the same recurrence steps whatever the table's length, so row k
    # is the one laguerre_values(k, x) gives. Shared, so read-only.
    table = laguerre_values(n - 2, _gauss_rule(n, alpha)[0])
    table.flags.writeable = False
    return table
