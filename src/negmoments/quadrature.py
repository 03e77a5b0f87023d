"""Gauss quadrature oracle for the weighted Laguerre pair integrals.

The nodes for the weight x^alpha e^{-x} on [0, inf) are the zeros of
L_n^{(alpha)}, found by Newton's method from the asymptotic guesses of
Numerical Recipes' gaulag; the weights come from the closed form

    w_i = Gamma(n+alpha+1)/n! * x_i / ((n+alpha)^2 L_{n-1}^{(alpha)}(x_i)^2),

which stays accurate in relative terms where the Golub-Welsch eigenvector
formula underflows. With n nodes the rule is exact to polynomial degree
2n - 1, so it checks the closed-form pair integrals whenever n >= k + l + 2.

The oracle runs on plain Python floats and imports no numpy: each rule,
and the table of L_k at its nodes for k <= nodes - 2, is built once per
(nodes, alpha) and cached as tuples, and each integral is one math.fsum.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "InsufficientNodesError",
    "NodeConvergenceError",
    "laguerre_pair_integral_quadrature",
]

#: Newton stops once a step is at most this fraction of the node: rounding
#: in L_n stalls the step above a few ulp (at up to 2.4e-13 of the node for
#: n <= 100), and quadratic convergence leaves the node at that floor.
_STEP_TOLERANCE = 2.0**-32
#: Newton steps allowed per node (8 suffice for n <= 100).
_NEWTON_CAP = 40


class InsufficientNodesError(ValueError):
    """Node count below the exactness requirement for the requested degree."""


class NodeConvergenceError(ArithmeticError):
    """Newton's method did not settle on the next zero of L_n^{(alpha)}."""


def _laguerre_sequence(n: int, alpha: float, x: float) -> list[float]:
    """[L_0^{(alpha)}(x), ..., L_n^{(alpha)}(x)] by the three-term recurrence."""
    values = [1.0, 1.0 + alpha - x]
    for i in range(1, n):
        values.append(((2 * i + alpha + 1 - x) * values[i] - (i + alpha) * values[i - 1]) / (i + 1))
    return values[: n + 1]


def _laguerre_pair(n: int, alpha: float, x: float) -> tuple[float, float]:
    """(L_{n-1}^{(alpha)}(x), L_n^{(alpha)}(x)) for n >= 1: _laguerre_sequence's steps, keeping two values."""
    below, value = 1.0, 1.0 + alpha - x
    for i in range(1, n):
        below, value = value, ((2 * i + alpha + 1 - x) * value - (i + alpha) * below) / (i + 1)
    return below, value


@lru_cache(maxsize=None)
def _gauss_rule(n: int, alpha: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights for integral_0^inf f(x) x**alpha e**(-x) dx, n >= 1.

    Raises NodeConvergenceError where the starting guesses fail, which
    happens for large alpha and many nodes (alpha = 20 with 76 nodes).
    """
    norm = math.gamma(n + alpha + 1) / math.factorial(n)
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(n):
        if i == 0:
            z = (1 + alpha) * (3 + 0.92 * alpha) / (1 + 2.4 * n + 1.8 * alpha)
        elif i == 1:
            z += (15 + 6.25 * alpha) / (1 + 0.9 * alpha + 2.5 * n)
        else:
            a = i - 1
            z += ((1 + 2.55 * a) / (1.9 * a) + 1.26 * a * alpha / (1 + 3.5 * a)) * (z - nodes[-2]) / (1 + 0.3 * alpha)
        for _ in range(_NEWTON_CAP):
            below, value = _laguerre_pair(n, alpha, z)
            step = value * z / (n * value - (n + alpha) * below)
            z -= step
            if abs(step) <= _STEP_TOLERANCE * z:
                break
        # A zero must converge and lie above the one before it (NaN fails too).
        if not (abs(step) <= _STEP_TOLERANCE * z and z > (nodes[-1] if nodes else 0.0)):
            raise NodeConvergenceError(f"no new zero {i + 1} of L_{n}^({alpha}) within {_NEWTON_CAP} Newton steps")
        nodes.append(z)
        weights.append(norm * z / ((n + alpha) ** 2 * _laguerre_pair(n, alpha, z)[0] ** 2))
    return tuple(nodes), tuple(weights)


def laguerre_pair_integral_quadrature(k: int, l: int, beta: float, nodes: int) -> float:
    """Gauss estimate of integral e^{-q} q^beta L_k(q) L_l(q) dq.

    Requires nodes >= k + l + 2 so the rule is exact (up to rounding) for the
    degree k+l polynomial left after absorbing q^beta e^{-q} into the weight.
    """
    if k < 0 or l < 0:
        raise ValueError("polynomial indices must be nonnegative")
    if nodes < k + l + 2:
        raise InsufficientNodesError(f"need at least {k + l + 2} nodes for degrees ({k}, {l})")
    if beta <= -1.0:
        raise ValueError("weight exponent must exceed -1")
    _, w = _gauss_rule(nodes, float(beta))
    table = _laguerre_table(nodes, float(beta))
    return math.fsum([wi * a * b for wi, a, b in zip(w, table[k], table[l])])


@lru_cache(maxsize=None)
def _laguerre_table(n: int, alpha: float) -> tuple[tuple[float, ...], ...]:
    # Row k holds the standard L_k at the nodes of the (n, alpha) rule, for
    # k <= n - 2; each value comes from the same recurrence steps whatever
    # the table's length, so row k is the last of _laguerre_sequence(k, 0, x).
    columns = [_laguerre_sequence(n - 2, 0.0, x) for x in _gauss_rule(n, alpha)[0]]
    return tuple(zip(*columns))
