import json
import math

import numpy as np
import pytest

from negmoments import _writer, distribution
from negmoments.distribution import (
    GaussianReference,
    Histogram,
    build_document,
    build_histogram,
    compare,
    gaussian_reference,
    render_csv,
    render_json,
)
from negmoments.moments import normalized_moments
from negmoments.sampling import SampleBatch, sample_negativities


def simpson(f, lo, hi, panels=20_000):
    x = np.linspace(lo, hi, 2 * panels + 1)
    y = f(x)
    h = (hi - lo) / (2 * panels)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


class TestBuildHistogram:
    def test_single_bin(self):
        hist = build_histogram([0.25, 0.5, 0.75] * 10, 1)
        assert hist.counts.tolist() == [30]
        assert hist.total == 30

    def test_auto_range_padding(self):
        hist = build_histogram([1.0, 3.0], 4)
        width = (3.0 - 1.0) / 4
        assert hist.bin_edges[0] == pytest.approx(1.0 - width)
        assert hist.bin_edges[-1] == pytest.approx(3.0 + width)

    def test_constant_values_get_unit_window(self):
        hist = build_histogram([2.0] * 5, 3)
        assert hist.total == 5
        assert hist.bin_edges[0] < 2.0 < hist.bin_edges[-1]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], 10)
        with pytest.raises(ValueError):
            build_histogram([1.0], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="^cannot histogram non-finite values$"):
            build_histogram([0.1, bad, 0.3], 4)
        with pytest.raises(ValueError, match="^cannot histogram non-finite values$"):
            build_histogram(np.full(200, bad), 4)

    def test_range_beyond_the_doubles_rejected(self):
        with pytest.raises(ValueError, match="^the sample's range overflows a double$"):
            build_histogram([-1e308, 1e308], 2)

    def test_bins_match_the_array_expression(self):
        # The bin of each value as one expression, a temporary per step.
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.normal(0.6, 0.1, 5000), [0.0, 1.0, 0.6]])
        lo, hi = float(values.min()), float(values.max())
        pad = (hi - lo) / 37
        lo, hi = lo - pad, hi + pad
        idx = np.clip(np.floor((values - lo) / ((hi - lo) / 37)).astype(np.int64), 0, 36)
        assert np.array_equal(build_histogram(values, 37).counts, np.bincount(idx, minlength=37))

    def test_one_sample_sized_temporary(self):
        import tracemalloc

        values = np.random.default_rng(9).random(10**6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_histogram(values, 60)
            assert tracemalloc.get_traced_memory()[1] - base < 1.5 * values.nbytes
        finally:
            tracemalloc.stop()

    def test_mode_bin_near_analytic_mean(self):
        batch = SampleBatch(master_seed=2024, count=100_000, dims=(4, 4))
        values = sample_negativities(batch, threads=2) / 1.5
        hist = build_histogram(values, 60)
        mode = int(np.argmax(hist.counts))
        width = hist.bin_edges[1] - hist.bin_edges[0]
        center = hist.midpoints()[mode]
        assert abs(center - 0.654) <= 2 * width


class TestHistogramInvariants:
    def test_cdf_monotone_and_total(self):
        rng = np.random.default_rng(4)
        hist = build_histogram(rng.normal(0, 1, 5000), 40)
        cdf = hist.cumulative_fractions()
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)
        assert int(hist.counts.sum()) == hist.total

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(np.array([0.0, 1.0]), np.array([3]), total=4)
        with pytest.raises(ValueError):
            Histogram(np.array([1.0, 0.0]), np.array([3]), total=3)
        hist = Histogram([0.0, 1.0], [3], 3)
        assert hist.bin_edges.dtype == float and hist.counts.dtype == np.int64
        assert hist._replace(counts=[1, 2], bin_edges=[0, 1, 2]).counts.dtype == np.int64
        with pytest.raises(ValueError):
            hist._replace(total=4)

    @pytest.mark.parametrize(
        "edges",
        [[0.0, math.nan, 1.0], [math.nan, 1.0, 2.0], [0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]],
        ids=["nan-inside", "nan-first", "inf-last", "minus-inf-first"],
    )
    def test_non_finite_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="^bin edges must be finite$"):
            Histogram(edges, [1, 1], 2)
        with pytest.raises(ValueError, match="^bin edges must be finite$"):
            Histogram([0.0, 1.0, 2.0], [1, 1], 2)._replace(bin_edges=edges)


class TestGaussianReference:
    def test_worked_values(self):
        ref = gaussian_reference(normalized_moments(2))
        assert ref.mean_prime == pytest.approx(0.589049, abs=5e-7)
        assert ref.sigma_prime == pytest.approx(0.230265, abs=1e-6)

    def test_density_normalization_by_quadrature(self):
        ref = gaussian_reference(normalized_moments(4))
        lo = ref.mean_prime - 8 * ref.sigma_prime
        hi = ref.mean_prime + 8 * ref.sigma_prime
        assert simpson(ref.density, lo, hi) == pytest.approx(1.0, abs=1e-9)

    def test_moments_by_quadrature(self):
        ref = gaussian_reference(normalized_moments(8))
        lo = ref.mean_prime - 10 * ref.sigma_prime
        hi = ref.mean_prime + 10 * ref.sigma_prime
        mean = simpson(lambda x: x * ref.density(x), lo, hi)
        var = simpson(lambda x: (x - ref.mean_prime) ** 2 * ref.density(x), lo, hi)
        assert mean == pytest.approx(ref.mean_prime, abs=1e-8)
        assert math.sqrt(var) == pytest.approx(ref.sigma_prime, abs=1e-8)

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            GaussianReference(0.5, 0.0)
        with pytest.raises(ValueError):
            GaussianReference(0.5, 0.1)._replace(sigma_prime=-0.1)


class TestCompare:
    def test_self_consistency(self):
        ref = GaussianReference(0.6, 0.08)
        rng = np.random.default_rng(12)
        samples = rng.normal(ref.mean_prime, ref.sigma_prime, 100_000)
        report = compare(build_histogram(samples, 60), ref)
        assert report.ks_statistic < 0.01
        assert abs(report.mean_zscore) < 4
        assert report.sigma_relative_error < 0.05

    def test_haar_batch_against_reference(self):
        report_moments = normalized_moments(4)
        ref = gaussian_reference(report_moments)
        batch = SampleBatch(master_seed=88, count=100_000, dims=(4, 4))
        values = sample_negativities(batch, threads=2) / 1.5
        report = compare(build_histogram(values, 60), ref)
        assert abs(report.mean_zscore) < 4
        assert report.sigma_relative_error < 0.05

    def test_detects_shifted_mean(self):
        ref = GaussianReference(0.5, 0.05)
        rng = np.random.default_rng(3)
        samples = rng.normal(0.56, 0.05, 20_000)
        report = compare(build_histogram(samples, 50), ref)
        assert report.ks_statistic > 0.3
        assert report.mean_zscore > 10

    def test_requires_minimum_mass(self):
        hist = build_histogram([0.1, 0.2, 0.3], 4)
        with pytest.raises(ValueError):
            compare(hist, GaussianReference(0.2, 0.1))

    def test_requires_a_spread(self):
        for hist in (build_histogram([0.5] * 100, 4), build_histogram(np.linspace(0.0, 1.0, 100), 1)):
            with pytest.raises(ValueError, match="more than one bin"):
                compare(hist, GaussianReference(0.5, 0.1))


class TestExport:
    def make_artifacts(self):
        report = normalized_moments(2)
        ref = gaussian_reference(report)
        batch = SampleBatch(master_seed=6, count=500, dims=(2, 2))
        values = sample_negativities(batch) / 0.5
        hist = build_histogram(values, 12)
        return report, ref, hist

    def test_csv_schema(self):
        _, ref, hist = self.make_artifacts()
        lines = render_csv(hist, ref).strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count,density,gaussian_density"
        assert len(lines) == 1 + 12
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == hist.total

    def test_json_round_trip_is_exact(self):
        report, ref, hist = self.make_artifacts()
        doc = json.loads(render_json(build_document(report, histogram=hist, reference=ref)))
        assert doc["mean_exact"]["pi_half_coeffs"] == {"2": "3/32"}
        assert doc["variance_exact"]["pi_half_coeffs"] == {"0": "1/10", "4": "-9/1024"}
        assert doc["n_max"] == "1/2"
        assert doc["histogram"]["total"] == hist.total
        assert sum(doc["histogram"]["counts"]) == hist.total

    def test_document_shape_without_samples(self):
        doc = build_document(normalized_moments(2), n_qubits=2)
        assert doc["histogram"] is None and doc["comparison"] is None
        assert doc["normalized"]["mean"] == pytest.approx(0.589049, abs=5e-7)
        text = render_json(doc)
        assert json.loads(text)["mu"] == 2

    def test_moments_fields_come_from_the_writer(self):
        report = normalized_moments(3)
        assert build_document(report, n_qubits=None) == _writer.moments_document(report, None)
        assert distribution.render_json is _writer.render_json
