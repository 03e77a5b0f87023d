"""Every float derived from an exact moment is correctly rounded.

The oracle is mpmath's interval arithmetic at 512 bits, run on the exact
sqrt(pi) polynomials: each value is enclosed in an interval whose endpoints
both round to the same double, and that double must be the one the package
reports. The endpoints are converted exactly (raw mpf tuple -> Fraction ->
float, which rounds to nearest); float() on an interval endpoint does not
round to nearest and can make a correctly rounded value look wrong.
"""

from fractions import Fraction

import pytest
from mpmath import iv

from negmoments.moments import generate_table, mean_negativity, normalized_moments

ORACLE_BITS = 512


@pytest.fixture
def oracle_precision():
    saved = iv.prec
    iv.prec = ORACLE_BITS
    try:
        yield
    finally:
        iv.prec = saved


def _exact(raw) -> Fraction:
    sign, man, exp, _ = raw
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _rounded(interval) -> float:
    lo, hi = (float(_exact(raw)) for raw in interval._mpi_)
    assert lo == hi, f"interval [{lo!r}, {hi!r}] straddles a rounding boundary"
    return lo


def _enclose(poly):
    root_pi = iv.sqrt(iv.pi)
    total = iv.mpf(0)
    for degree, coeff in poly.items():
        total += iv.mpf(coeff.numerator) / iv.mpf(coeff.denominator) * root_pi**degree
    return total


@pytest.mark.parametrize("mu", [*range(2, 17), 64, 128])
def test_moment_report_floats_are_correctly_rounded(mu, oracle_precision):
    report = normalized_moments(mu)
    mean = _enclose(report.mean_exact)
    sigma = iv.sqrt(_enclose(report.variance_exact))
    n_max = iv.mpf(mu - 1) / 2
    assert report.mean_float == _rounded(mean)
    assert report.sigma_float == _rounded(sigma)
    assert report.mean_normalized == _rounded(mean / n_max)
    assert report.sigma_normalized == _rounded(sigma / n_max)


def test_table_ratios_are_correctly_rounded(oracle_precision):
    for row in generate_table(range(2, 16, 2)):
        enclosure = _enclose(mean_negativity(row.mu)) / (iv.mpf(row.mu - 1) / 2)
        assert row.ratio == _rounded(enclosure), f"n={row.n_qubits}"
