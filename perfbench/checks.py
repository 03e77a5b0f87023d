"""Output checks for every request the benchmark times.

Each check takes the request's stdout bytes and returns ``None`` when the
output is right, or a one-line reason when it is not. Tolerances are the
acceptance gate's (``tests/test_acceptance.py``); exact coefficients are
compared with the golden copy in ``golden.json`` and must never change.
Sampled outputs get statistical gates only, never golden bytes, because the
random stream is allowed to change.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))

#: Acceptance criterion 1: normalized mean <N>/N_max by qubit count.
REFERENCE_RATIOS = {2: 0.589049, 4: 0.65368, 6: 0.686614, 8: 0.703378, 10: 0.711878, 12: 0.716171, 14: 0.718332}
RATIO_TOLERANCE = 5e-6
#: The spectral-density limit of the normalized mean, and criterion 3's gate.
SPECTRAL_LIMIT = 64 / (9 * math.pi**2)
LIMIT_TOLERANCE = 1e-3
#: Criteria 5 and 6: mean within 4 standard errors, sigma within 5 %, KS below 0.05.
MAX_ZSCORE = 4.0
MAX_SIGMA_RELATIVE_ERROR = 0.05
MAX_KS = 0.05
CIRCUIT_MEAN_TOLERANCE = 0.01
FLOAT_RTOL = 1e-9


def _json(stdout: bytes) -> dict:
    return json.loads(stdout.decode("utf-8"))


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def exact_moments_mu64(stdout: bytes) -> str | None:
    doc = _json(stdout)
    golden = GOLDEN["moments_mu64_exact"]
    if (doc["mean_exact"] or {}).get("pi_half_coeffs") != golden["mean"]:
        return "mean pi_half_coeffs differ from the golden copy"
    if (doc["variance_exact"] or {}).get("pi_half_coeffs") != golden["variance"]:
        return "variance pi_half_coeffs differ from the golden copy"
    return None


def moments_mu96(stdout: bytes) -> str | None:
    doc = _json(stdout)
    golden = GOLDEN["moments_mu96"]
    if (doc["mean_exact"] or {}).get("pi_half_coeffs") != golden["mean"]:
        return "mean pi_half_coeffs differ from the golden copy"
    # The variance comes from the verified float path today; an exact
    # variance later must evaluate to the same double within FLOAT_RTOL.
    for key in ("mean_float", "sigma_float"):
        if not _close(doc[key], golden[key], FLOAT_RTOL):
            return f"{key} {doc[key]!r} differs from {golden[key]!r}"
    return None


def table(stdout: bytes) -> str | None:
    doc = _json(stdout)
    rows = {row["n_qubits"]: row["ratio"] for row in doc["rows"]}
    if sorted(rows) != sorted(REFERENCE_RATIOS):
        return f"table rows are n={sorted(rows)}"
    for n, ratio in rows.items():
        if abs(ratio - REFERENCE_RATIOS[n]) >= RATIO_TOLERANCE:
            return f"ratio at n={n} is {ratio!r}"
    limit = doc["extrapolated_limit"]
    if limit is None or abs(limit - SPECTRAL_LIMIT) >= LIMIT_TOLERANCE:
        return f"extrapolated limit {limit!r} is not within {LIMIT_TOLERANCE} of 64/(9 pi^2)"
    return None


def bounds(stdout: bytes) -> str | None:
    doc = _json(stdout)
    if abs(doc["c"] - SPECTRAL_LIMIT) >= LIMIT_TOLERANCE:
        return f"default c {doc['c']!r} is not within {LIMIT_TOLERANCE} of 64/(9 pi^2)"
    values = [v for k, v in doc.items() if isinstance(v, float)] + list(doc["raw"].values())
    if not all(math.isfinite(v) for v in values):
        return "non-finite bound"
    return None


def verify(stdout: bytes) -> str | None:
    lines = stdout.decode("utf-8").splitlines()
    if not lines or lines[-1] != "8/8 suites passed":
        return f"verify ended with {lines[-1] if lines else 'nothing'!r}"
    return None


def _reference_mu4_matches(reference: dict) -> bool:
    golden = GOLDEN["reference_mu4"]
    return all(_close(reference[k], golden[k], FLOAT_RTOL) for k in ("mean_prime", "sigma_prime"))


def haar_compare(stdout: bytes, samples: int) -> str | None:
    doc = _json(stdout)
    if doc["histogram"]["total"] != samples:
        return f"histogram holds {doc['histogram']['total']} of {samples} samples"
    if not _reference_mu4_matches(doc["reference"]):
        return f"Gaussian reference {doc['reference']} differs from the golden copy"
    comparison = doc["comparison"]
    if abs(comparison["mean_zscore"]) >= MAX_ZSCORE:
        return f"mean z-score {comparison['mean_zscore']:.3f}"
    if comparison["sigma_relative_error"] >= MAX_SIGMA_RELATIVE_ERROR:
        return f"sigma relative error {comparison['sigma_relative_error']:.4f}"
    if comparison["ks_statistic"] >= MAX_KS:
        return f"KS {comparison['ks_statistic']:.4f}"
    return None


def _normal_cdf(x: float, mean: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))


def circuit_csv(stdout: bytes, samples: int) -> str | None:
    """n=4 circuit histogram: normalized mean and KS against the mu=4 reference."""
    rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))
    counts = [int(r["count"]) for r in rows]
    if sum(counts) != samples:
        return f"histogram holds {sum(counts)} of {samples} samples"
    lefts = [float(r["bin_left"]) for r in rows]
    rights = [float(r["bin_right"]) for r in rows]
    mean = sum((a + b) / 2 * c for a, b, c in zip(lefts, rights, counts)) / samples
    if abs(mean - REFERENCE_RATIOS[4]) >= CIRCUIT_MEAN_TOLERANCE:
        return f"normalized mean {mean:.5f}"
    ref = GOLDEN["reference_mu4"]
    below = 0
    ks = abs(_normal_cdf(lefts[0], ref["mean_prime"], ref["sigma_prime"]))
    for right, count in zip(rights, counts):
        below += count
        ks = max(ks, abs(_normal_cdf(right, ref["mean_prime"], ref["sigma_prime"]) - below / samples))
    if ks >= MAX_KS:
        return f"KS {ks:.4f}"
    return None
