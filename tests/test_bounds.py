import json
import math
from fractions import Fraction

import numpy as np
import pytest

from negmoments.bounds import (
    RATIO_LIMIT,
    RATIO_PRESET,
    asymptotic_singlet_distance,
    build_bounds_report,
    cluster_check,
    distillable_upper,
    log_negativity,
)
from negmoments.cli import main
from negmoments.sampling import SampleBatch, haar_pure_state, reduced_state_a, sample_negativities


def test_ratio_limit_is_64_over_9_pi_squared_correctly_rounded():
    # Both ends of a rational enclosure of 64/(9 pi^2), with no math.pi,
    # round to the literal.
    from negmoments.exactring import _pi_bracket

    lo, hi = _pi_bracket(200)
    assert float(Fraction(64, 9) / hi**2) == RATIO_LIMIT == float(Fraction(64, 9) / lo**2)


class TestSingletDistance:
    def test_maximally_entangled_saturates(self):
        assert build_bounds_report(6, c=1.0).singlet_distance_lb == 0.0

    def test_asymptotic_preset(self):
        assert asymptotic_singlet_distance(RATIO_PRESET) == pytest.approx(0.55926, abs=1e-5)

    def test_validation(self):
        for c in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"ratio must lie in \(0, 1\]"):
                build_bounds_report(4, c=c)


class TestFidelity:
    def test_asymptotic_preset(self):
        # The large-n bound is the ratio itself.
        assert build_bounds_report(20, c=RATIO_PRESET).fidelity_ub == RATIO_PRESET

    def test_maximally_entangled(self):
        assert build_bounds_report(8, c=1.0).fidelity_ub == 1.0

    def test_consistency_with_distance(self):
        for c in (0.05, 0.3, 0.72, 1.0):
            report = build_bounds_report(6, c=c)
            assert report.fidelity_ub == pytest.approx(1 - report.singlet_distance_lb / 2, abs=1e-12)

    def test_monotone_in_mean(self):
        reports = [build_bounds_report(8, c=c) for c in np.linspace(0.025, 1.0, 40)]
        assert all(a.mean_negativity < b.mean_negativity for a, b in zip(reports, reports[1:]))
        assert all(a.fidelity_ub < b.fidelity_ub for a, b in zip(reports, reports[1:]))
        assert all(a.singlet_distance_lb > b.singlet_distance_lb for a, b in zip(reports, reports[1:]))


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

    def test_invariants(self):
        for n in (4, 8, 16):
            report = build_bounds_report(n, c=0.9)
            assert 0.0 <= report.singlet_distance_lb <= 2.0
            assert 0.0 < report.fidelity_ub <= 1.0
            assert report.distillable_ub_ebits <= n / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_bounds_report(3, c=0.5)
        with pytest.raises(TypeError):
            build_bounds_report(4)
        with pytest.raises(TypeError):
            build_bounds_report(4, c=0.5, mean_negativity=1.0)

    def test_largest_size(self):
        assert build_bounds_report(2046, c=0.5).mean_negativity == 0.5 * (2.0**1023 - 1) / 2
        with pytest.raises(ValueError, match="at most 2046"):
            build_bounds_report(2048, c=0.5)

    def test_fields_are_the_unclamped_formulas(self, capsys):
        # For c in (0, 1] the bounds need no clamping, and the CLI's "raw"
        # block repeats them.
        header = "n_qubits,c,mean_negativity,singlet_distance_lb,fidelity_ub,distillable_ub_ebits"
        for n in (2, 4, 22, 80, 2046):
            for c in (RATIO_PRESET, 1.0, 0.3, 1e-300):
                report = build_bounds_report(n, c=c)
                assert report.c == c
                assert report.singlet_distance_lb == 2.0 * (1.0 - c)
                assert report.fidelity_ub == c
                assert report.distillable_ub_ebits == distillable_upper(n, c)
                args = ["bounds", "--n-qubits", str(n), "--c", repr(c)]
                assert main(args) == 0
                raw = json.loads(capsys.readouterr().out)["raw"]
                assert raw == {"singlet_distance": report.singlet_distance_lb, "fidelity": report.fidelity_ub}
                assert main(args + ["--format", "csv"]) == 0
                assert capsys.readouterr().out.splitlines()[0] == header
