"""Command-line interface.

Subcommands: moments, table, sample, compare, bounds, verify. All output is
deterministic for a fixed configuration: reruns with any --threads value
produce byte-identical bytes.

Every command but verify goes out through one writer, which prints a JSON
document or CSV rows to stdout or to --output. compare is sample plus the
agreement figures in the JSON; its CSV rows are those of sample.

Every moment is computed exactly, and every float printed is its exact
value rounded once; there is no precision option. moments --exact only caps
the size at mu <= 128.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
limit (moments --exact asked for mu > 128, the run ran out of memory, or a
size too large for Python's integers or the random stream's 2**32 blocks
per sample, such as moments --n-qubits 300 or sample --mu 100000),
4 I/O failure.

Each command loads only the modules it runs: the package registers its
submodules lazily, and they run when a command first needs them.

sample and compare run BLAS on one thread: before numpy loads, they set
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
VECLIB_MAXIMUM_THREADS to 1, so BLAS's own threads do not compete with the
--threads workers. If any of the four is already set, they set none, and
the preset value wins. The sampled bytes do not depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, _writer, bounds, distribution, moments, sampling, selfcheck

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


class UsageError(ValueError):
    pass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    parser.add_argument("--output", default="-", help="output path, or - for stdout")


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=int)
    group.add_argument("--n-qubits", type=int)
    parser.add_argument("--generator", choices=("haar", "circuit"), default="haar")
    parser.add_argument("--j", type=int, default=None, help="circuit rounds per sample (default 40)")
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=60)
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help=(
            "worker threads (default: all cores); BLAS runs on one thread under them, unless"
            " OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS or VECLIB_MAXIMUM_THREADS is set"
        ),
    )
    _add_common(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="negmoments", description=__doc__)
    parser.add_argument("--version", action="version", version=f"negmoments {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact mean and deviation for one size")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=int, help="local dimension of the equal bipartition")
    group.add_argument("--n-qubits", type=int, help="even total qubit count (mu = 2^(n/2))")
    # 128 is moments.EXACT_MODE_CEILING, written out so that building the
    # parser does not load moments (tests/test_cli.py checks the two agree).
    p.add_argument("--exact", action="store_true", help="refuse mu > 128 (exit 3)")
    _add_common(p)

    p = sub.add_parser("table", help="normalized-mean convergence table over qubit counts")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--extrapolate", action="store_true", help="append the geometric-tail limit")
    _add_common(p)

    _add_sampling(sub.add_parser("sample", help="sample negativities and histogram them"))
    _add_sampling(sub.add_parser("compare", help="sample and compare against the Gaussian reference"))

    p = sub.add_parser("bounds", help="singlet-distance / fidelity / distillation bounds")
    p.add_argument("--n-qubits", type=int, required=True)
    p.add_argument(
        "--c", default=None, help="ratio constant, or 'preset' for the paper's 0.72037 (default: the limit 64/(9 pi^2))"
    )
    _add_common(p)

    p = sub.add_parser("verify", help="run the internal identity suites")
    p.add_argument("--max-mu", type=int, default=16)
    return parser


def _resolve_size(args) -> tuple[int, int | None]:
    if args.n_qubits is not None:
        n = args.n_qubits
        if n < 2 or n % 2:
            raise UsageError("--n-qubits must be even and at least 2")
        return 2 ** (n // 2), n
    mu = args.mu
    if mu is None or mu < 2:
        raise UsageError("--mu must be at least 2")
    n = 2 * (mu.bit_length() - 1) if mu & (mu - 1) == 0 else None
    return mu, n


def _emit(args, doc: dict, header, rows) -> int:
    """Write doc as JSON, or header and rows as CSV, to stdout or --output."""
    text = _writer.render_json(doc) if args.format == "json" else _writer.render_rows(header, rows)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _cmd_moments(args) -> int:
    mu, n = _resolve_size(args)
    report = moments.normalized_moments(mu, exact=args.exact)
    header = ["mu", "n_qubits", "mean_float", "sigma_float", "mean_normalized", "sigma_normalized"]
    row = [report.mu, n, report.mean_float, report.sigma_float, report.mean_normalized, report.sigma_normalized]
    return _emit(args, _writer.moments_document(report, n), header, [row])


def _cmd_table(args) -> int:
    if args.n_min < 2 or args.n_min % 2 or args.n_max < args.n_min or args.n_max % 2:
        raise UsageError("qubit counts must be even, n-min >= 2, n-max >= n-min")
    rows = moments.generate_table(list(range(args.n_min, args.n_max + 1, 2)))
    limit = moments.extrapolate_limit(rows) if args.extrapolate else None
    doc = {"rows": [r._asdict() for r in rows], "extrapolated_limit": limit}
    csv_rows = [tuple(r) for r in rows]
    if limit is not None:
        csv_rows.append(("limit", "", limit, ""))
    return _emit(args, doc, moments.TableRow._fields, csv_rows)


def _cmd_sample(args) -> int:
    """sample; compare is the same run plus the agreement figures."""
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    mu, n = _resolve_size(args)
    if args.generator == "circuit":
        if args.n_qubits is None:
            raise UsageError("circuit generator needs --n-qubits")
        j = 40 if args.j is None else args.j
        batch = sampling.SampleBatch(args.seed, args.samples, n_qubits=n, generator="circuit", j=j)
    else:
        if args.j is not None:
            raise UsageError("--j applies only to --generator circuit")
        batch = sampling.SampleBatch(args.seed, args.samples, dims=(mu, mu), generator="haar")
    values = sampling.sample_negativities(batch, threads=args.threads)
    values /= (mu - 1) / 2.0
    report = moments.normalized_moments(mu)
    hist = distribution.build_histogram(values, args.bins)
    ref = distribution.gaussian_reference(report)
    comparison = distribution.compare(hist, ref) if args.command == "compare" else None
    doc = distribution.build_document(report, n_qubits=n, histogram=hist, reference=ref, comparison=comparison)
    doc["sampler"] = {
        "generator": batch.generator, "stream": sampling.STREAM_ID, "master_seed": batch.master_seed, "count": batch.count
    }
    return _emit(args, doc, distribution.HISTOGRAM_COLUMNS, distribution.histogram_rows(hist, ref))


def _cmd_bounds(args) -> int:
    n = args.n_qubits
    if n < 2 or n % 2:
        raise UsageError("--n-qubits must be even and at least 2")
    if args.c is None:
        c = bounds.RATIO_LIMIT
    elif args.c == "preset":
        c = bounds.RATIO_PRESET
    else:
        try:
            c = float(args.c)
        except ValueError as exc:
            raise UsageError("--c must be a number or 'preset'") from exc
    report = bounds.build_bounds_report(n, c=c)
    doc = report._asdict()
    doc["raw"] = {"singlet_distance": report.singlet_distance_lb, "fidelity": report.fidelity_ub}
    return _emit(args, doc, report._fields, [tuple(report)])


def _cmd_verify(args) -> int:
    if args.max_mu < 2:
        raise UsageError("--max-mu must be at least 2")
    results = selfcheck.run_all(args.max_mu)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  {status}  {r.detail}\n")
    failed = sum(1 for r in results if not r.passed)
    sys.stdout.write(f"{len(results) - failed}/{len(results)} suites passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


#: Each command and the modules it runs. They are loaded before the command
#: starts: Python 3.11's LazyLoader is not thread-safe on a module's first
#: access, and compiling them after numpy has loaded raises the peak memory.
#: So sampling, which imports numpy, comes last.
_COMMANDS = {
    "moments": (_cmd_moments, (moments, _writer)),
    "table": (_cmd_table, (moments, _writer)),
    "sample": (_cmd_sample, (moments, _writer, distribution, sampling)),
    "compare": (_cmd_sample, (moments, _writer, distribution, sampling)),
    "bounds": (_cmd_bounds, (bounds, _writer)),
    "verify": (_cmd_verify, (selfcheck,)),
}

#: The thread-count variables of the BLAS builds numpy may load. BLAS reads
#: them once, when numpy loads, so sampling cannot set them: the CLI does,
#: before it runs sampling.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    command, modules = _COMMANDS[args.command]
    # One BLAS thread per worker, whatever the core count, so --threads N
    # means N cores; a variable the user set wins.
    if sampling in modules and not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    for module in modules:
        vars(module)  # the first attribute access runs a lazy module
    try:
        return command(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # before the lookup below, which runs the lazy moments module
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except moments.ResourceCeilingError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_RESOURCE
    except OverflowError as exc:
        sys.stderr.write(f"error: size out of range: {exc}\n")
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
