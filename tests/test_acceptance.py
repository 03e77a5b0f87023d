"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` (test names double as the
pass/fail table) or with ``-s`` to see the one-line PASS summaries.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from negmoments.bounds import RATIO_PRESET, asymptotic_singlet_distance, cluster_check, distillable_upper
from negmoments.cli import main
from negmoments.distribution import build_histogram, compare, gaussian_reference
from negmoments.exactring import SqrtPiPolynomial, eval_float
from negmoments.moments import (
    extrapolate_limit,
    generate_table,
    mean_negativity,
    normalized_moments,
    variance_negativity,
)
from negmoments.sampling import SampleBatch, haar_pure_state, reduced_state_a, sample_negativities
from negmoments.selfcheck import run_all

REFERENCE_RATIOS = {
    2: 0.589049,
    4: 0.65368,
    6: 0.686614,
    8: 0.703378,
    10: 0.711878,
    12: 0.716171,
    14: 0.718332,
}


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_table_regression_exact_engine():
    start = time.time()
    rows = generate_table(sorted(REFERENCE_RATIOS))
    elapsed = time.time() - start
    worst = 0.0
    for row in rows:
        error = abs(row.ratio - REFERENCE_RATIOS[row.n_qubits])
        worst = max(worst, error)
        assert error < 5e-6, f"n={row.n_qubits}: {row.ratio} vs {REFERENCE_RATIOS[row.n_qubits]}"
    assert elapsed < 600.0
    report(f"1 PASS table n=2..14 exact, max |error| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_closed_forms_at_mu_2():
    mean = mean_negativity(2)
    variance = variance_negativity(2)
    assert mean == SqrtPiPolynomial({2: Fraction(3, 32)})
    assert variance == SqrtPiPolynomial({0: Fraction(1, 10), 4: Fraction(-9, 1024)})
    report("2 PASS mu=2 closed forms match structurally (zero tolerance)")


def test_criterion_3_delta_halving_and_extrapolation():
    rows = generate_table([2, 4, 6, 8, 10, 12, 14])
    deltas = {row.n_qubits: row.delta for row in rows if row.delta is not None}
    for n in (6, 8, 10, 12, 14):
        ratio = deltas[n] / deltas[n - 2]
        assert 0.4 < ratio < 0.6, f"delta ratio at n={n} is {ratio}"
    limit = extrapolate_limit(rows)
    assert limit == pytest.approx(0.7204, abs=1e-3)

    # Independent spectral-density oracle: the limiting mean of sqrt of a
    # squared-singular-value sample is integral sqrt(x) (1/2pi) sqrt((4-x)/x)
    # on [0, 4]; with x = 4 sin^2(t) the integrand is smooth for Simpson.
    t = np.linspace(0.0, math.pi / 2, 20001)
    integrand = 16.0 * np.sin(t) * np.cos(t) ** 2 / (2.0 * math.pi)
    h = t[1] - t[0]
    mean_sqrt = h / 3 * (integrand[0] + integrand[-1] + 4 * integrand[1:-1:2].sum() + 2 * integrand[2:-1:2].sum())
    assert mean_sqrt == pytest.approx(8 / (3 * math.pi), abs=1e-10)
    spectral_limit = mean_sqrt**2
    assert limit == pytest.approx(spectral_limit, abs=1e-3)
    report(f"3 PASS deltas halve, extrapolated limit {limit:.5f} vs oracle {spectral_limit:.5f}")


def test_criterion_4_identity_suite_exact():
    start = time.time()
    results = run_all(64)
    elapsed = time.time() - start
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert elapsed < 300.0
    report(f"4 PASS identity suite ({len(results)} checks) in {elapsed:.1f}s")


def test_criterion_5_monte_carlo_agreement():
    start = time.time()
    lines = []
    for mu, seed in ((2, 101), (4, 102), (8, 103)):
        values = sample_negativities(SampleBatch(master_seed=seed, count=100_000, dims=(mu, mu)), threads=2)
        analytic_mean = eval_float(mean_negativity(mu))
        analytic_sigma = math.sqrt(eval_float(variance_negativity(mu)))
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        mean_gap = abs(values.mean() - analytic_mean)
        sigma_rel = abs(values.std(ddof=1) - analytic_sigma) / analytic_sigma
        assert mean_gap < 4 * stderr, f"mu={mu}: mean off by {mean_gap / stderr:.2f} standard errors"
        assert sigma_rel < 0.05, f"mu={mu}: sigma off by {sigma_rel:.3%}"
        lines.append(f"mu={mu} z={mean_gap / stderr:.2f} dsigma={sigma_rel:.2%}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(f"5 PASS Haar Monte Carlo ({'; '.join(lines)}) in {elapsed:.1f}s")


def test_criterion_6_circuit_distribution_reproduction():
    lines = []
    for n, count, seed in ((4, 100_000, 7), (8, 10_000, 7)):
        mu = 2 ** (n // 2)
        n_max = (mu - 1) / 2
        batch = SampleBatch(master_seed=seed, count=count, n_qubits=n, generator="circuit", j=40)
        values = sample_negativities(batch, threads=2) / n_max
        reference = gaussian_reference(normalized_moments(mu))
        mean_gap = abs(values.mean() - REFERENCE_RATIOS[n])
        assert mean_gap < 0.01, f"n={n}: normalized mean off by {mean_gap}"
        comparison = compare(build_histogram(values, 60), reference)
        assert comparison.ks_statistic < 0.05, f"n={n}: KS {comparison.ks_statistic}"
        lines.append(f"n={n} dmean={mean_gap:.4f} KS={comparison.ks_statistic:.3f}")
    report(f"6 PASS circuit batches ({'; '.join(lines)})")


def test_criterion_7_bound_spot_checks():
    assert asymptotic_singlet_distance(RATIO_PRESET) == pytest.approx(0.55926, abs=1e-5)
    assert min(1.0, RATIO_PRESET) == pytest.approx(0.72037, abs=1e-5)
    offset = distillable_upper(80, RATIO_PRESET) - 40.0
    assert offset == pytest.approx(-0.47319, abs=1e-5)
    report("7 PASS bound spot checks (0.55926 / 0.72037 / -0.47319)")


def test_criterion_8_concentration_demo():
    def pass_fraction(d_a, d_b, seed):
        hits = 0
        for i in range(1000):
            state = haar_pure_state(d_a, d_b, seed, i)
            hits += cluster_check(reduced_state_a(state), 0.1)
        return hits / 1000

    lopsided = pass_fraction(2, 512, 42)
    balanced = pass_fraction(32, 32, 43)
    assert lopsided >= 0.95
    assert balanced <= 0.05
    report(f"8 PASS concentration: lopsided {lopsided:.1%} pass, balanced {balanced:.1%} pass")


def test_criterion_9_byte_identical_reruns(tmp_path):
    sample_args = [
        "sample", "--n-qubits", "4", "--generator", "circuit", "--j", "40",
        "--samples", "2000", "--seed", "7", "--format", "csv",
    ]
    outputs = []
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        path = tmp_path / f"sample_{tag}.csv"
        assert main(sample_args + ["--threads", threads, "--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    haar_args = ["sample", "--mu", "8", "--samples", "4000", "--seed", "5"]
    a, b = tmp_path / "h1.json", tmp_path / "h2.json"
    assert main(haar_args + ["--threads", "1", "--output", str(a)]) == 0
    assert main(haar_args + ["--threads", "2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["moments", "--mu", "8", "--output", str(m1)]) == 0
    assert main(["moments", "--mu", "8", "--output", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for target in (t1, t2):
        assert main(["table", "--n-max", "8", "--format", "csv", "--output", str(target)]) == 0
    assert t1.read_bytes() == t2.read_bytes()

    doc = json.loads(a.read_text())
    assert doc["histogram"]["total"] == 4000
    report("9 PASS byte-identical reruns across thread counts")
