"""The output format of every command: a JSON document, or CSV rows.

Every command but verify writes through render_json or render_rows. The
moments fields head the moments, sample and compare documents alike;
distribution adds the histogram and the agreement figures of the last two.
No numpy and no exact arithmetic load here, so bounds runs without either,
and csv loads only for CSV output.
"""

from __future__ import annotations

import io
import json


def render_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_rows(header, rows) -> str:
    """A header line and the rows as CSV; None is written as an empty field."""
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def moments_document(report, n_qubits: int | None) -> dict:
    """The document of one MomentReport: exact moments, their floats and N_max."""
    from .exactring import format_rational  # loaded with the report, and never by bounds

    return {
        "mu": report.mu,
        "n_qubits": n_qubits,
        "mean_exact": {"pi_half_coeffs": report.mean_exact.coeff_strings()},
        "variance_exact": {"pi_half_coeffs": report.variance_exact.coeff_strings()},
        "mean_float": report.mean_float,
        "sigma_float": report.sigma_float,
        "normalized": {
            "mean": report.mean_normalized,
            "sigma": report.sigma_normalized,
        },
        "n_max": format_rational(report.n_max),
        "histogram": None,
        "comparison": None,
    }
