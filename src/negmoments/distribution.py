"""Histograms of sampled negativities and the analytic Gaussian reference.

The reference density is the two-cumulant (Gaussian) approximation with the
engine's normalized mean and standard deviation. Agreement is quantified by
a one-sample Kolmogorov-Smirnov statistic computed from the binned empirical
CDF, the z-score of the sample mean against the analytic one, and the
relative error of the sample standard deviation. The sample and compare
documents are the moments document of _writer plus these figures.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from ._writer import moments_document, render_json, render_rows  # noqa: F401 (render_json is re-exported)

if TYPE_CHECKING:
    import numpy as np

    from .moments import MomentReport

__all__ = [
    "Histogram",
    "GaussianReference",
    "ComparisonReport",
    "build_histogram",
    "gaussian_reference",
    "compare",
    "build_document",
]


#: _make of a record whose __new__ checks its fields. _replace builds its
#: copy with _make, so the copy is checked as well.
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


class _HistogramFields(NamedTuple):
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int


class Histogram(_HistogramFields):
    """Equal-width counts of a sample."""

    __slots__ = ()

    def __new__(cls, bin_edges, counts, total: int):
        import numpy as np

        edges = np.asarray(bin_edges, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least one bin")
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly ascending")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts length must match bin count")
        if int(counts.sum()) != total:
            raise ValueError("counts do not sum to total")
        return super().__new__(cls, edges, counts, total)

    _make = _checked_make

    def densities(self) -> np.ndarray:
        import numpy as np

        widths = np.diff(self.bin_edges)
        return self.counts / (self.total * widths)

    def cumulative_fractions(self) -> np.ndarray:
        """Empirical CDF values at the right edge of each bin."""
        import numpy as np

        return np.cumsum(self.counts) / self.total

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def sample_mean(self) -> float:
        import numpy as np

        return float(np.sum(self.midpoints() * self.counts) / self.total)

    def sample_sigma(self) -> float:
        import numpy as np

        mean = self.sample_mean()
        var = float(np.sum((self.midpoints() - mean) ** 2 * self.counts) / self.total)
        return math.sqrt(var)


def build_histogram(values, bins: int) -> Histogram:
    """Equal-width histogram over [min, max] padded by one width.

    Constant values get the unit window around them; a nan or infinite
    value raises ValueError.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if bins < 1:
        raise ValueError("need at least one bin")
    lo = float(values.min())
    hi = float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max are nan if any value is
        raise ValueError("cannot histogram non-finite values")
    pad = (hi - lo) / bins if hi > lo else 0.5
    lo, hi = lo - pad, hi + pad
    width = (hi - lo) / bins
    if not math.isfinite(width):
        raise ValueError("the sample's range overflows a double")
    # One sample-sized buffer: each value's bin position, floored and then
    # cast to int64 in place (the cast reads each element before writing it).
    position = np.subtract(values, lo)
    position /= width
    np.floor(position, out=position)
    idx = position.view(np.int64)
    np.copyto(idx, position, casting="unsafe")
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    edges = lo + width * np.arange(bins + 1)
    return Histogram(edges, counts, int(values.size))


class _GaussianFields(NamedTuple):
    mean_prime: float
    sigma_prime: float


class GaussianReference(_GaussianFields):
    """Normal density with the normalized analytic mean and deviation."""

    __slots__ = ()

    def __new__(cls, mean_prime: float, sigma_prime: float):
        if not sigma_prime > 0:
            raise ValueError("sigma must be positive")
        return super().__new__(cls, mean_prime, sigma_prime)

    _make = _checked_make

    def density(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        z = (x - self.mean_prime) / self.sigma_prime
        return np.exp(-0.5 * z * z) / (self.sigma_prime * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        z = (x - self.mean_prime) / (self.sigma_prime * math.sqrt(2.0))
        return 0.5 * (1.0 + np.vectorize(math.erf)(z))


def gaussian_reference(report: MomentReport) -> GaussianReference:
    """Reference with mean <N>/N_max and deviation sigma/N_max."""
    if report.mu < 2:
        raise ValueError("reference needs mu >= 2")
    return GaussianReference(report.mean_normalized, report.sigma_normalized)


class ComparisonReport(NamedTuple):
    """Histogram-vs-reference agreement figures."""

    ks_statistic: float
    mean_zscore: float
    sigma_relative_error: float


def compare(hist: Histogram, ref: GaussianReference) -> ComparisonReport:
    """KS statistic, mean z-score, and sigma relative error.

    The KS statistic is the largest gap between the empirical CDF and the
    Gaussian CDF over all bin edges, where the binned empirical CDF is known
    exactly (fraction of samples below the edge).
    """
    import numpy as np

    if hist.total < 100:
        raise ValueError("comparison needs at least 100 samples")
    ecdf = np.concatenate(([0.0], hist.cumulative_fractions()))
    reference = ref.cdf(hist.bin_edges)
    ks = float(np.max(np.abs(reference - ecdf)))
    mean = hist.sample_mean()
    sigma = hist.sample_sigma()
    if sigma == 0:
        raise ValueError("comparison needs samples spread over more than one bin")
    zscore = (mean - ref.mean_prime) / (sigma / math.sqrt(hist.total))
    sigma_rel = abs(sigma - ref.sigma_prime) / ref.sigma_prime
    return ComparisonReport(ks_statistic=ks, mean_zscore=float(zscore), sigma_relative_error=float(sigma_rel))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def build_document(
    report: MomentReport,
    n_qubits: int | None = None,
    histogram: Histogram | None = None,
    reference: GaussianReference | None = None,
    comparison: ComparisonReport | None = None,
) -> dict:
    """The moments document, plus the histogram, reference and agreement figures given."""
    doc = moments_document(report, n_qubits)
    if histogram is not None:
        doc["histogram"] = {
            "bin_edges": [float(e) for e in histogram.bin_edges],
            "counts": [int(c) for c in histogram.counts],
            "total": histogram.total,
        }
    if reference is not None:
        doc["reference"] = reference._asdict()
    if comparison is not None:
        doc["comparison"] = comparison._asdict()
    return doc


#: One CSV row per bin; histogram_rows yields them in this order.
HISTOGRAM_COLUMNS = ("bin_left", "bin_right", "count", "density", "gaussian_density")


def histogram_rows(hist: Histogram, ref: GaussianReference):
    densities = hist.densities()
    gauss = ref.density(hist.midpoints())
    for i in range(hist.counts.size):
        yield (
            repr(float(hist.bin_edges[i])),
            repr(float(hist.bin_edges[i + 1])),
            int(hist.counts[i]),
            repr(float(densities[i])),
            repr(float(gauss[i])),
        )


def render_csv(hist: Histogram, ref: GaussianReference) -> str:
    """The histogram as CSV, one ``bin_left,bin_right,count,density,gaussian_density`` row per bin."""
    return render_rows(HISTOGRAM_COLUMNS, histogram_rows(hist, ref))
