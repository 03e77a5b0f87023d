"""Child processes of the benchmark: a traced CLI request, a layer probe, machine facts.

    python perfbench/child.py cli SPANS REQUEST -- ARGS...    # negmoments ARGS, traced
    python perfbench/child.py probe SPANS REQUEST NAME SEED SIZES_JSON
    python perfbench/child.py facts

Every child is a fresh interpreter, so the package's lru caches start cold as
they do for a CLI user. Spans are taken from outside the package: public
functions are replaced by timed wrappers in every ``negmoments`` module that
imported them, and nothing inside ``src/negmoments`` is changed. The traced
CLI writes nothing to stdout beyond what ``negmoments`` itself writes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

from spans import Recorder

#: Public functions timed in traced children, by module.
TRACED = {
    "moments": (
        "normalized_moments",
        "generate_table",
        "extrapolate_limit",
        "mean_negativity",
        "variance_negativity",
        "build_pair_integral_matrix",
        "det_moment_sum",
    ),
    "bounds": ("build_bounds_report",),
    "selfcheck": (
        "run_all",
        "check_symmetry",
        "check_orthonormality",
        "check_tridiagonal",
        "check_hyp3f2",
        "check_quadrature",
        "check_naive_vs_trace",
        "check_pair_trace_identity",
        "check_variance_identity",
    ),
    "sampling": ("sample_negativities",),
    "distribution": ("build_histogram", "gaussian_reference", "compare", "build_document", "render_json", "render_csv"),
}


def _label(module: str, attr: str):
    if attr == "det_moment_sum":
        return lambda mu, pattern, *args, **kwargs: f"moments.det_moment_sum.{pattern}"
    return f"{module}.{attr.removeprefix('check_')}"


def instrument(rec: Recorder) -> None:
    """Wrap the TRACED functions and ``SqrtPiPolynomial.evaluate_mpf`` in spans."""
    import negmoments.cli  # noqa: F401 - loaded first, so its imported names are wrapped too
    from negmoments.exactring import SqrtPiPolynomial

    loaded = [m for name, m in sys.modules.items() if name.startswith("negmoments")]
    for module, attrs in TRACED.items():
        owner = sys.modules[f"negmoments.{module}"]
        for attr in attrs:
            original = getattr(owner, attr)
            wrapped = rec.wrap(_label(module, attr), original)
            for m in loaded:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
    SqrtPiPolynomial.evaluate_mpf = rec.wrap("exactring.evaluate_mpf", SqrtPiPolynomial.evaluate_mpf)


def _seconds(record: dict) -> float:
    return record["end"] - record["start"]


def _median_span(rec: Recorder, name: str, repeats: int, fn) -> float:
    durations = []
    for _ in range(repeats):
        with rec.span(name) as s:
            fn()
        durations.append(_seconds(s))
    return statistics.median(durations)


# ---------------------------------------------------------------------------
# layer probes: each runs in its own fresh process and returns its metrics
# ---------------------------------------------------------------------------


def probe_import(rec: Recorder, seed: int, sizes: dict) -> dict:
    with rec.span("cli.import") as s:
        import negmoments.cli  # noqa: F401
    return {"cli.import_s": _seconds(s)}


def probe_exact(rec: Recorder, seed: int, sizes: dict) -> dict:
    from negmoments import moments

    instrument(rec)
    mu = sizes["exact_mu"]
    with rec.span("moments.pair_matrix") as build:
        b = moments.build_pair_integral_matrix(mu, Fraction(1, 2))
        moments.build_pair_integral_matrix(mu, 1)
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for row in b.rows for x in row)
    # The matrices are cached now, so the det_moment_sum spans inside the
    # variance are the trace products alone.
    variance = moments.variance_negativity(mu)
    mean = moments.mean_negativity(mu)
    products = sum(_seconds(s) for s in rec.spans if s["name"] in ("moments.det_moment_sum.triple", "moments.det_moment_sum.quad"))

    def evaluate():
        mean.evaluate_mpf(256)
        variance.evaluate_mpf(256)

    return {
        "moments.pair_matrix_s": _seconds(build),
        "moments.pair_matrix_bits": bits,
        "moments.trace_products_s": products,
        "exactring.evaluate_mpf_s": _median_span(rec, "exactring.evaluate_pair", sizes["repeats"], evaluate),
    }


def probe_fallback(rec: Recorder, seed: int, sizes: dict) -> dict:
    from negmoments import moments

    instrument(rec)
    with rec.span("moments.fallback") as s:
        moments.normalized_moments(sizes["fallback_mu"], exact=False)
    return {"moments.fallback_s": _seconds(s)}


def probe_table(rec: Recorder, seed: int, sizes: dict) -> dict:
    from negmoments import moments

    instrument(rec)
    with rec.span("moments.table") as s:
        moments.generate_table(list(range(2, sizes["table_n_max"] + 1, 2)))
    return {"moments.generate_table_s": _seconds(s)}


def probe_bounds(rec: Recorder, seed: int, sizes: dict) -> dict:
    from negmoments import bounds, moments

    instrument(rec)
    # The default-c path of ``negmoments bounds``: an exact table to n=12.
    with rec.span("bounds.ratio") as ratio:
        c = moments.extrapolate_limit(moments.generate_table(list(range(2, 14, 2))))
    report = _median_span(rec, "bounds.report", sizes["repeats"], lambda: bounds.build_bounds_report(sizes["bounds_n_qubits"], c=c))
    return {"bounds.ratio_s": _seconds(ratio), "bounds.report_s": report}


def probe_selfcheck(rec: Recorder, seed: int, sizes: dict) -> dict:
    from negmoments import selfcheck

    instrument(rec)
    results = selfcheck.run_all(sizes["verify_max_mu"])
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise SystemExit(f"selfcheck suites failed: {failed}")
    return {
        f"selfcheck.{s['name'].split('.', 1)[1]}_s": _seconds(s)
        for s in rec.spans
        if s["name"].startswith("selfcheck.") and s["name"] != "selfcheck.run_all"
    }


def probe_sampling(rec: Recorder, seed: int, sizes: dict) -> dict:
    import numpy as np

    from negmoments import distribution, moments, sampling

    instrument(rec)
    mu = sizes["haar_mu"]
    # First-call costs of numpy's linear algebra stay out of the timed spans.
    sampling.sample_negativities(sampling.SampleBatch(seed, 256, dims=(mu, mu)), threads=2)
    haar = sampling.SampleBatch(seed, sizes["haar_samples"], dims=(mu, mu))
    circuit = sampling.SampleBatch(
        seed, sizes["circuit_samples"], n_qubits=sizes["circuit_n_qubits"], generator="circuit", j=sizes["circuit_j"]
    )
    timed = {}
    values = {}
    for name, batch, threads in (
        ("haar", haar, 2),
        ("haar_1t", haar, 1),
        ("circuit", circuit, 2),
        ("circuit_1t", circuit, 1),
        ("circuit_j0", replace(circuit, j=0), 1),
    ):
        with rec.span(f"sampling.{name}") as s:
            values[name] = sampling.sample_negativities(batch, threads=threads)
        timed[name] = _seconds(s)
    if not (np.array_equal(values["haar"], values["haar_1t"]) and np.array_equal(values["circuit"], values["circuit_1t"])):
        raise SystemExit("samples differ between one and two threads")

    circuit_mu = 2 ** (sizes["circuit_n_qubits"] // 2)
    report = moments.normalized_moments(circuit_mu)
    normalized = values["circuit"] / ((circuit_mu - 1) / 2)
    reference = distribution.gaussian_reference(report)
    hist = distribution.build_histogram(normalized, 60)
    comparison = distribution.compare(hist, reference)
    repeats = sizes["repeats"]

    def render():
        distribution.render_json(distribution.build_document(report, None, hist, reference, comparison))
        distribution.render_csv(hist, reference)

    return {
        "sampling.haar_s": timed["haar"],
        "sampling.haar_1t_s": timed["haar_1t"],
        "sampling.haar_thread_speedup": timed["haar_1t"] / timed["haar"],
        "sampling.circuit_s": timed["circuit"],
        "sampling.circuit_1t_s": timed["circuit_1t"],
        "sampling.circuit_thread_speedup": timed["circuit_1t"] / timed["circuit"],
        "sampling.circuit_j0_s": timed["circuit_j0"],
        "sampling.circuit_gates_s": timed["circuit_1t"] - timed["circuit_j0"],
        "distribution.histogram_s": _median_span(
            rec, "distribution.histogram_probe", repeats, lambda: distribution.build_histogram(normalized, 60)
        ),
        "distribution.compare_s": _median_span(
            rec, "distribution.compare_probe", repeats, lambda: distribution.compare(hist, reference)
        ),
        "distribution.render_s": _median_span(rec, "distribution.render_probe", repeats, render),
    }


PROBES = {
    "import": probe_import,
    "exact": probe_exact,
    "fallback": probe_fallback,
    "table": probe_table,
    "bounds": probe_bounds,
    "selfcheck": probe_selfcheck,
    "sampling": probe_sampling,
}


def facts() -> dict:
    import mpmath
    import numpy

    import negmoments

    try:
        import gmpy2  # noqa: F401
    except ImportError:
        gmpy2_importable = False
    else:
        gmpy2_importable = True
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "negmoments": negmoments.__version__,
        "backend": negmoments.BACKEND,
        "gmpy2_importable": gmpy2_importable,
        "commit": commit,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "facts":
        sys.stdout.write(json.dumps(facts()) + "\n")
        return 0
    spans_path, request = argv[1], argv[2]
    rec = Recorder(request, root_parent=f"{request}.p0", tag="c")
    if mode == "cli":
        cli_args = argv[4:]  # after the "--"
        try:
            with rec.span("cli.import"):
                import negmoments.cli
            instrument(rec)
            with rec.span("cli.main"):
                code = negmoments.cli.main(cli_args)
        finally:
            sys.stdout.flush()
            rec.dump(spans_path)
        return code
    if mode == "probe":
        name, seed, sizes = argv[3], int(argv[4]), json.loads(argv[5])
        metrics = {}
        try:
            with rec.span(f"probe.{name}"):
                metrics = PROBES[name](rec, seed, sizes)
        finally:
            rec.dump(spans_path, metrics=metrics)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
