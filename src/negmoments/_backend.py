"""Exact rational arithmetic: ``fractions.Fraction`` and its text form.

Every exact value in the package is a ``fractions.Fraction`` (reduced, with
a positive denominator). The hot kernels of the moment engine run on plain
Python integers and build one Fraction per result, so there is no other
rational backend.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["BACKEND", "format_rational", "parse_rational"]

#: Name of the rational arithmetic in use, reported with benchmark results.
BACKEND = "fractions"


def format_rational(x) -> str:
    """Serialize a rational as ``"num/den"`` (reduced, positive denominator)."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; bare integers are accepted too."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))
