import math

import numpy as np
import pytest

from negmoments.bounds import (
    RATIO_PRESET,
    asymptotic_singlet_distance,
    build_bounds_report,
    cluster_check,
    distillable_upper,
    log_negativity,
    singlet_distance_lower,
    teleportation_fidelity_upper,
)
from negmoments.exactring import eval_float
from negmoments.moments import mean_negativity
from negmoments.sampling import SampleBatch, haar_pure_state, reduced_state_a, sample_negativities


class TestSingletDistance:
    def test_maximally_entangled_saturates(self):
        m = 8
        assert singlet_distance_lower((m - 1) / 2, m) == 0.0

    def test_asymptotic_preset(self):
        assert asymptotic_singlet_distance(RATIO_PRESET) == pytest.approx(0.55926, abs=1e-5)

    def test_small_system_exact_mean(self):
        mean = eval_float(mean_negativity(2))
        expected = 1 - 3 * math.pi / 16
        assert singlet_distance_lower(mean, 2) == pytest.approx(expected, abs=1e-12)

    def test_clamping(self):
        assert singlet_distance_lower(10.0, 2) == 0.0
        assert singlet_distance_lower(10.0, 2, clamp=False) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            singlet_distance_lower(0.5, 1)
        with pytest.raises(ValueError):
            singlet_distance_lower(-0.1, 4)


class TestFidelity:
    def test_asymptotic_preset(self):
        # In the large-n limit the bound approaches the ratio itself.
        assert teleportation_fidelity_upper(RATIO_PRESET * (2**10 - 1) / 2, 2**10) == pytest.approx(
            RATIO_PRESET, abs=3e-4
        )

    def test_maximally_entangled(self):
        m = 16
        assert teleportation_fidelity_upper((m - 1) / 2, m) == 1.0

    def test_small_system_exact_mean(self):
        mean = eval_float(mean_negativity(2))
        assert teleportation_fidelity_upper(mean, 2) == pytest.approx((3 * math.pi / 16 + 1) / 2, abs=1e-12)

    def test_consistency_with_distance(self):
        for mean in (0.0, 0.3, 1.1, 2.0):
            m = 8
            fidelity = teleportation_fidelity_upper(mean, m, clamp=False)
            distance = singlet_distance_lower(mean, m, clamp=False)
            assert fidelity == pytest.approx(1 - distance / 2, abs=1e-12)

    def test_monotone_in_mean(self):
        grid = np.linspace(0.0, 7.5, 40)
        m = 16
        fidelities = [teleportation_fidelity_upper(v, m, clamp=False) for v in grid]
        distances = [singlet_distance_lower(v, m, clamp=False) for v in grid]
        assert all(a < b for a, b in zip(fidelities, fidelities[1:]))
        assert all(a > b for a, b in zip(distances, distances[1:]))


class TestDistillable:
    def test_trivial_ratio_gives_half_n(self):
        for n in (4, 10, 30):
            assert distillable_upper(n, 1.0) == pytest.approx(n / 2, abs=1e-12)

    def test_large_n_offset(self):
        n = 60
        offset = distillable_upper(n, RATIO_PRESET) - n / 2
        assert offset == pytest.approx(-0.47319, abs=1e-5)
        assert offset == pytest.approx(math.log2(RATIO_PRESET), abs=1e-9)

    def test_small_system_value(self):
        assert distillable_upper(4, RATIO_PRESET) == pytest.approx(math.log2(0.72037 * 4 + 1 - 0.72037), abs=1e-12)

    def test_monotone_in_ratio(self):
        values = [distillable_upper(8, c) for c in (0.2, 0.5, 0.8, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_jensen_direction(self):
        # log of the mean trace norm dominates the mean of the log.
        batch = SampleBatch(master_seed=3, count=2000, dims=(4, 4))
        values = sample_negativities(batch)
        sample_logs = np.log2(2 * values + 1)
        bound = math.log2(2 * values.mean() + 1)
        assert bound >= sample_logs.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            distillable_upper(4, 0.0)
        with pytest.raises(ValueError):
            distillable_upper(3, 0.5)

    def test_largest_size(self):
        # 2^(n/2) must fit a double: 2^1023 does, 2^1024 overflows.
        assert distillable_upper(2046, 1.0) == 1023.0
        with pytest.raises(ValueError, match="at most 2046"):
            distillable_upper(2048, 0.5)


class TestLogNegativity:
    def test_examples(self):
        assert log_negativity(0.0) == 0.0
        assert log_negativity(0.5) == pytest.approx(1.0, abs=1e-15)
        for mu in (2, 8, 32):
            assert log_negativity((mu - 1) / 2) == pytest.approx(math.log2(mu), abs=1e-12)
        with pytest.raises(ValueError):
            log_negativity(-0.1)


class TestClusterCheck:
    def test_maximally_mixed_passes(self):
        for d in (2, 5, 8):
            assert cluster_check(np.eye(d) / d, 1e-6)

    def test_pure_state_fails(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert not cluster_check(rho, 0.1)

    def test_lopsided_haar_mostly_passes(self):
        passes = sum(
            cluster_check(reduced_state_a(haar_pure_state(2, 512, 9, i)), 0.1)
            for i in range(200)
        )
        assert passes >= 190

    def test_validation(self):
        with pytest.raises(ValueError):
            cluster_check(np.eye(2) / 2, 0.0)
        with pytest.raises(ValueError):
            cluster_check(np.zeros((2, 3)), 0.1)


class TestBoundsReport:
    def test_asymptotic_form(self):
        report = build_bounds_report(22, c=RATIO_PRESET)
        assert report.singlet_distance_lb == pytest.approx(0.55926, abs=1e-5)
        assert report.fidelity_ub == pytest.approx(0.72037, abs=1e-5)
        assert report.distillable_ub_ebits <= 11.0
        assert report.log_neg_mean == report.distillable_ub_ebits

    def test_mean_form(self):
        mean = eval_float(mean_negativity(2))
        report = build_bounds_report(2, mean_negativity=mean)
        assert report.fidelity_ub == pytest.approx((3 * math.pi / 16 + 1) / 2, abs=1e-12)
        assert report.singlet_distance_lb == pytest.approx(1 - 3 * math.pi / 16, abs=1e-12)

    def test_invariants(self):
        for n in (4, 8, 16):
            report = build_bounds_report(n, c=0.9)
            assert 0.0 <= report.singlet_distance_lb <= 2.0
            assert 0.0 < report.fidelity_ub <= 1.0
            assert report.distillable_ub_ebits <= n / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_bounds_report(3, c=0.5)
        with pytest.raises(ValueError):
            build_bounds_report(4)
        with pytest.raises(ValueError):
            build_bounds_report(4, c=0.5, mean_negativity=1.0)

    def test_largest_size(self):
        assert build_bounds_report(2046, c=0.5).mean_negativity == 0.5 * (2.0**1023 - 1) / 2
        assert build_bounds_report(2046, mean_negativity=1.0).fidelity_ub == 3.0 / 2.0**1023
        for kwargs in ({"c": 0.5}, {"mean_negativity": 1.0}):
            with pytest.raises(ValueError, match="at most 2046"):
                build_bounds_report(2048, **kwargs)
