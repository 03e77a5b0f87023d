import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import negmoments
from negmoments import bounds
from negmoments.cli import main


def run_cli(args, tmp_path=None, capsys=None):
    code = main(args)
    return code


class TestMoments:
    def test_exact_mu2_json(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--mu", "2", "--exact", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mean_exact"]["pi_half_coeffs"] == {"2": "3/32"}
        assert doc["normalized"]["mean"] == pytest.approx(0.589049, abs=5e-7)
        assert doc["n_qubits"] == 2

    def test_n_qubits_flag(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--n-qubits", "4", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mu"] == 4
        assert doc["normalized"]["mean"] == pytest.approx(0.65368, abs=5e-6)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--mu", "3", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("mu,n_qubits,mean_float")
        assert lines[1].split(",")[0] == "3"
        assert lines[1].split(",")[1] == ""  # 3 is not a power of two

    def test_invalid_mu_is_usage_error(self):
        assert main(["moments", "--mu", "0"]) == 2

    def test_exact_ceiling_exit_code(self):
        assert main(["moments", "--mu", "200", "--exact"]) == 3
        assert main(["moments", "--mu", "129", "--exact"]) == 3

    def test_exact_help_names_the_ceiling(self):
        from negmoments.cli import _build_parser
        from negmoments.moments import EXACT_MODE_CEILING

        (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (exact,) = [a for a in subparsers.choices["moments"]._actions if "--exact" in a.option_strings]
        assert f"mu > {EXACT_MODE_CEILING} " in exact.help

    @pytest.mark.parametrize("size", [["--n-qubits", "300"], ["--mu", "100000000000000000000"]])
    def test_size_beyond_python_integers_exits_three(self, size, capsys):
        # B's common denominator 2^(4 mu - 3) has too many digits for an int.
        assert main(["moments", *size]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: size out of range: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_exact_moments_beyond_exact_mode_ceiling(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--mu", "129", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mean_exact"]["pi_half_coeffs"] and doc["variance_exact"]["pi_half_coeffs"]
        assert doc["mean_float"] == 45.9743202984628

    def test_unknown_flag_is_usage_error(self):
        assert main(["moments", "--mu", "2", "--frobnicate"]) == 2

    def test_mutually_exclusive_size_flags(self):
        assert main(["moments", "--mu", "2", "--n-qubits", "4"]) == 2


class TestTable:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--n-max", "8", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_qubits,mu,ratio,delta"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2" and first[3] == ""
        assert float(lines[2].split(",")[3]) == pytest.approx(0.0646309, abs=1e-6)

    def test_json_with_extrapolation(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["table", "--n-max", "10", "--extrapolate", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 5
        assert doc["extrapolated_limit"] == pytest.approx(0.7205, abs=1e-3)

    def test_odd_range_rejected(self):
        assert main(["table", "--n-min", "3", "--n-max", "7"]) == 2

    def test_exact_ceiling(self):
        # table has no --exact: its rows need only the mean, exact at every size.
        assert main(["table", "--n-max", "16", "--exact"]) == 2


class TestSampleAndCompare:
    def test_sample_deterministic_bytes(self, tmp_path):
        args = [
            "sample", "--n-qubits", "4", "--generator", "circuit", "--j", "40",
            "--samples", "1500", "--seed", "7", "--format", "csv",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--threads", "1", "--output", str(a)]) == 0
        assert main(args + ["--threads", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_that_cannot_start_is_not_fatal(self, monkeypatch, capsys):
        # Stands in for "can't start new thread": the caller samples alone.
        import threading

        args = ["sample", "--mu", "4", "--samples", "2500", "--seed", "5"]
        assert main(args + ["--threads", "1"]) == 0
        expected = capsys.readouterr()

        def start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert main(args + ["--threads", "2"]) == 0
        assert capsys.readouterr() == expected

    def test_sample_json_document(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sample", "--mu", "2", "--samples", "400", "--seed", "3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["histogram"]["total"] == 400
        assert doc["comparison"] is None
        assert doc["reference"]["mean_prime"] == pytest.approx(0.589049, abs=5e-7)

    def test_compare_emits_statistics(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["compare", "--mu", "4", "--samples", "4000", "--seed", "11", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        comp = doc["comparison"]
        assert comp["ks_statistic"] < 0.05
        assert abs(comp["mean_zscore"]) < 4

    def test_rectangular_haar_dims(self, capsys):
        # The analytic reference exists for equal bipartitions only, so a
        # mu x nu sample has nothing to be compared against.
        for command in ("sample", "compare"):
            assert main([command, "--mu", "2", "--nu", "8", "--samples", "300"]) == 2
            assert "unrecognized arguments: --nu" in capsys.readouterr().err

    def test_rounds_only_for_circuits(self, capsys):
        for command in ("sample", "compare"):
            assert main([command, "--mu", "2", "--samples", "200", "--j", "5"]) == 2
            assert "--j" in capsys.readouterr().err

    def test_circuit_rounds_default_to_40(self, tmp_path):
        args = ["sample", "--n-qubits", "4", "--generator", "circuit", "--samples", "300", "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--j", "40", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sampler_provenance(self, tmp_path):
        from negmoments.sampling import STREAM_ID

        for command, generator, size in (
            ("sample", "circuit", ["--n-qubits", "4", "--j", "3"]),
            ("compare", "haar", ["--mu", "2"]),
        ):
            out = tmp_path / f"{command}.json"
            # Seeds of any size key the stream.
            args = [command, *size, "--generator", generator, "--samples", "300", "--seed", str(2**70)]
            assert main(args + ["--output", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert doc["sampler"] == {"generator": generator, "stream": STREAM_ID, "master_seed": 2**70, "count": 300}

    def test_moments_document_has_no_sampler(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--mu", "2", "--output", str(out)]) == 0
        assert "sampler" not in json.loads(out.read_text())

    def test_circuit_requires_n_qubits(self):
        assert main(["sample", "--mu", "4", "--generator", "circuit", "--samples", "10"]) == 2

    @pytest.mark.parametrize(
        "size,line",
        [
            (["--n-qubits", "3"], "--n-qubits must be even and at least 2"),
            (["--mu", "1"], "--mu must be at least 2"),
        ],
    )
    @pytest.mark.parametrize("generator", ["haar", "circuit"])
    def test_size_errors_are_the_same_for_both_generators(self, size, line, generator, capsys):
        assert main(["sample", *size, "--generator", generator, "--samples", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    def test_size_past_the_block_counter_exits_three(self, capsys):
        # 99999999999^2 / 2 Philox blocks per sample: refused before any draw.
        assert main(["sample", "--mu", "99999999999", "--samples", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: size out of range: ")

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["sample", "--mu", "2", "--samples", "5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected non-negative integer\n"

    def test_io_failure_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["sample", "--mu", "2", "--samples", "200", "--output", str(missing)]) == 4

    @pytest.mark.parametrize(
        "error,line",
        [
            (MemoryError("Unable to allocate 74.5 GiB for an array"), "Unable to allocate 74.5 GiB for an array"),
            (MemoryError(), "allocation failed"),
        ],
    )
    def test_out_of_memory_exit_code(self, monkeypatch, capsys, error, line):
        # numpy raises a MemoryError subclass when the sampler's arrays do not
        # fit; stand in for it rather than allocate for real.
        from negmoments import sampling

        def exhausted(batch, threads):
            raise error

        monkeypatch.setattr(sampling, "sample_negativities", exhausted)
        assert main(["sample", "--mu", "65536", "--samples", "1", "--threads", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {line}\n"


class TestBoundsCommand:
    def test_preset_values(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n-qubits", "22", "--c", "preset", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["singlet_distance_lb"] == pytest.approx(0.55926, abs=1e-5)
        assert doc["fidelity_ub"] == pytest.approx(0.72037, abs=1e-5)

    def test_trivial_ratio(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n-qubits", "8", "--c", "1.0", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distillable_ub_ebits"] == pytest.approx(4.0, abs=1e-12)

    def test_engine_default_ratio(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n-qubits", "4", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["c"] == bounds.RATIO_LIMIT

    def test_bad_ratio(self):
        assert main(["bounds", "--n-qubits", "8", "--c", "lots"]) == 2
        assert main(["bounds", "--n-qubits", "7"]) == 2

    def test_largest_size(self, capsys):
        # 2^(n/2) must fit a double; one size more is a usage error, not an overflow.
        assert main(["bounds", "--n-qubits", "2046", "--c", "preset"]) == 0
        assert json.loads(capsys.readouterr().out)["distillable_ub_ebits"] > 1022
        for c in ([], ["--c", "0.5"]):
            assert main(["bounds", "--n-qubits", "2048", *c]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: n_qubits must be at most 2046: 2^(n/2) must fit a double\n"


#: A factory for each record the package returns, by type name.
RECORDS = {
    "PairIntegralMatrix": lambda: negmoments.build_pair_integral_matrix(2, 1),
    "MomentReport": lambda: negmoments.normalized_moments(2),
    "TableRow": lambda: negmoments.generate_table([2])[0],
    "BoundsReport": lambda: negmoments.build_bounds_report(6, c=0.7),
    "CheckResult": lambda: negmoments.selfcheck.CheckResult("suite", True, "detail"),
    "Histogram": lambda: negmoments.Histogram([0.0, 1.0], [3], 3),
    "GaussianReference": lambda: negmoments.GaussianReference(0.5, 0.1),
    "ComparisonReport": lambda: negmoments.ComparisonReport(0.1, 0.2, 0.3),
}


class TestRecords:
    """The records are named tuples: read-only fields, and _fields in output order."""

    @pytest.mark.parametrize("name", list(RECORDS))
    def test_fields_are_read_only(self, name):
        record = RECORDS[name]()
        assert type(record).__name__ == name and isinstance(record, tuple)
        assert tuple(record) == tuple(getattr(record, field) for field in record._fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_bounds_csv_header_is_the_field_order(self, capsys):
        assert main(["bounds", "--n-qubits", "6", "--format", "csv"]) == 0
        assert tuple(capsys.readouterr().out.splitlines()[0].split(",")) == negmoments.BoundsReport._fields


class TestOneWriter:
    """Every command but verify prints through one writer, and compare is sample plus statistics."""

    SAMPLE = ["--mu", "2", "--samples", "300", "--seed", "3", "--threads", "1"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--mu", "3"],
            ["table", "--n-max", "8", "--extrapolate"],
            ["bounds", "--n-qubits", "6", "--c", "preset"],
            ["sample", *SAMPLE],
        ],
    )
    def test_output_file_matches_stdout(self, args, fmt, tmp_path, capsys):
        out = tmp_path / f"out.{fmt}"
        assert main(args + ["--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--format", fmt, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")

    def test_compare_csv_is_sample_csv(self, capsys):
        assert main(["sample", *self.SAMPLE, "--format", "csv"]) == 0
        sampled = capsys.readouterr().out
        assert main(["compare", *self.SAMPLE, "--format", "csv"]) == 0
        assert capsys.readouterr().out == sampled
        assert sampled.startswith("bin_left,bin_right,count,density,gaussian_density\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_compare_needs_100_samples_in_every_format(self, fmt, capsys):
        args = ["--mu", "3", "--samples", "50", "--seed", "3", "--format", fmt]
        assert main(["sample", *args]) == 0
        capsys.readouterr()
        assert main(["compare", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: comparison needs at least 100 samples\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--mu", "2", "--samples", "100", "--bins", "1"],
            ["--n-qubits", "2", "--generator", "circuit", "--j", "0", "--samples", "100"],
        ],
        ids=["one bin", "product states"],
    )
    def test_compare_without_spread_is_usage_error(self, args, capsys):
        # sample still histograms the values; only the z-score needs a spread.
        assert main(["sample", *args]) == 0
        assert json.loads(capsys.readouterr().out)["histogram"]["total"] == 100
        assert main(["compare", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: comparison needs samples spread over more than one bin\n"


class TestVerify:
    def test_passes_and_prints_table(self, capsys):
        assert main(["verify", "--max-mu", "4"]) == 0
        out = capsys.readouterr().out
        assert "pair-integral symmetry" in out
        assert "PASS" in out and "FAIL" not in out
        assert out.strip().endswith("suites passed")

    def test_failed_suite_exits_one(self, capsys, monkeypatch):
        from negmoments import selfcheck
        from negmoments.selfcheck import CheckResult

        def rigged(max_mu):
            return [CheckResult("rigged check", False, "injected failure")]

        monkeypatch.setattr(selfcheck, "run_all", rigged)
        assert main(["verify", "--max-mu", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_rejects_tiny_mu(self):
        assert main(["verify", "--max-mu", "1"]) == 2


class TestIgnoredFlagsRejected:
    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--mu", "2", "--threads", "2"],
            ["table", "--n-max", "4", "--threads", "2"],
            ["bounds", "--n-qubits", "4", "--c", "preset", "--threads", "2"],
            ["verify", "--max-mu", "2", "--threads", "2"],
            ["verify", "--max-mu", "2", "--precision-bits", "128"],
            ["moments", "--mu", "2", "--precision-bits", "256"],
            ["table", "--n-max", "4", "--precision-bits", "256"],
            ["sample", "--mu", "2", "--samples", "200", "--precision-bits", "256"],
            ["compare", "--mu", "2", "--samples", "200", "--precision-bits", "256"],
            ["bounds", "--n-qubits", "4", "--c", "preset", "--precision-bits", "256"],
            ["table", "--n-max", "4", "--exact"],
        ],
    )
    def test_flag_without_effect_is_usage_error(self, args, capsys):
        assert main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_threads_still_accepted_by_samplers(self, tmp_path):
        for command in ("sample", "compare"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--mu", "2", "--samples", "200", "--threads", "2", "--output", str(out)]) == 0


class TestOptionSets:
    """Every option each subcommand accepts, so that a new flag shows up here."""

    OUTPUT = {"--format", "--output"}
    SAMPLING = {"--mu", "--n-qubits", "--generator", "--j", "--samples", "--seed", "--bins", "--threads", *OUTPUT}
    EXPECTED = {
        "moments": {"--mu", "--n-qubits", "--exact", *OUTPUT},
        "table": {"--n-min", "--n-max", "--extrapolate", *OUTPUT},
        "sample": SAMPLING,
        "compare": SAMPLING,
        "bounds": {"--n-qubits", "--c", *OUTPUT},
        "verify": {"--max-mu"},
    }

    @staticmethod
    def options(parser) -> set:
        return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}

    def test_option_strings_per_subcommand(self):
        from negmoments.cli import _build_parser

        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert self.options(parser) == {"--version"}
        assert {name: self.options(sub) for name, sub in subparsers.choices.items()} == self.EXPECTED


#: The thread-count variables of OpenBLAS, OpenMP, MKL and Accelerate.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Runs ``cli.main(argv)`` and reports its exit code, the BLAS variables and
#: the process's OS thread count (None where /proc is missing).
_BLAS_PROBE = """
import contextlib, io, json, os, sys
from negmoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
try:
    with open("/proc/self/status") as status:
        threads = int(status.read().split("Threads:")[1].split()[0])
except FileNotFoundError:
    threads = None
print(json.dumps({"code": code, "threads": threads, "env": {k: os.environ.get(k) for k in json.loads(sys.argv[2])}}))
"""


def _blas_probe(args: list[str], **preset: str) -> dict:
    """_BLAS_PROBE in a fresh interpreter whose environment sets no BLAS variable but those in preset."""
    package_root = str(Path(negmoments.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, json.dumps(args), json.dumps(BLAS_VARIABLES)],
        capture_output=True,
        text=True,
        env={**env, **preset},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["code"] == 0
    return report


class TestBlasThreads:
    """sample and compare run BLAS on one thread, unless a BLAS variable is preset."""

    SAMPLE = ["sample", "--mu", "2", "--samples", "200"]

    def test_sample_sets_all_four(self):
        report = _blas_probe([*self.SAMPLE, "--threads", "2"])
        assert report["env"] == dict.fromkeys(BLAS_VARIABLES, "1")

    def test_preset_variable_wins(self):
        report = _blas_probe([*self.SAMPLE, "--threads", "2"], OPENBLAS_NUM_THREADS="3")
        assert report["env"] == {**dict.fromkeys(BLAS_VARIABLES), "OPENBLAS_NUM_THREADS": "3"}

    def test_exact_command_sets_none(self):
        assert _blas_probe(["moments", "--mu", "4"])["env"] == dict.fromkeys(BLAS_VARIABLES)

    def test_blas_starts_no_thread_pool(self):
        # OpenBLAS starts its pool when numpy loads; one worker leaves the main thread alone.
        report = _blas_probe([*self.SAMPLE, "--threads", "1"])
        if report["threads"] is None:
            pytest.skip("no /proc/self/status")
        assert report["threads"] == 1


class TestEntryPoints:
    def test_module_invocation(self):
        # The child imports the package this process imported, also when
        # only pytest's pythonpath setting put it on sys.path.
        package_root = str(Path(negmoments.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "negmoments", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stdout.startswith("negmoments ")

    def test_moments_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["moments", "--mu", "4", "--output", str(a)]) == 0
        assert main(["moments", "--mu", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


#: SHA-256 of stdout for the exact commands, recorded before the exact layer
#: was reduced to one value type. Their floats are correctly rounded by
#: integer arithmetic, so the bytes do not depend on libm or numpy; bounds
#: (math.log2) and verify (float quadrature) are left out for that reason.
EXACT_STDOUT_SHA256 = {
    "moments --mu 2 --format json": "3f91bdf3d36d859fecdf07d241b9e8c56e4180ab5fe1e3757fe64458f40febbe",
    "moments --mu 2 --format csv": "09c2ef4608564ea0e7c76252a97d23c24aeade73cb05ddd7573b383632a38a08",
    "moments --mu 3 --format json": "f040338298d6d5f53621ceb29f0747d26dd330ccf5b379122cf0793d7778c023",
    "moments --mu 3 --format csv": "8f8fdfaa93c7f7042adba0861478ee8513601ee4f6f0fac6173fbc752518b4ed",
    "moments --mu 4 --format json": "af27645f1f03924496509fdbd28a2fe5147a733d54cf811192152690f077c85b",
    "moments --mu 4 --format csv": "8467c6cc505182a92da54bd8930d41ca5069ac02486d11db076062344dc28082",
    "moments --mu 5 --format json": "e9f15425dcb144162f3f4ea21cd1f3f0dbb2a0f72aaeb719e613b681e277f47f",
    "moments --mu 5 --format csv": "73efe6fd3cb06ad8f5eb3416cce5fed1dcf2a721d58b68812a060537f8932529",
    "moments --mu 6 --format json": "851911d55666207300288ad875c3ed47f94b264f732fb8c2535530f81c022e79",
    "moments --mu 6 --format csv": "d3271f044cb1d54d4a7e912d7107d33853f0c5b2d509b60cdd136612186a6a4d",
    "moments --mu 7 --format json": "5aafa87575c44957a72b66f826a35ed8a2e013a7165bc6f45032566752cde4b0",
    "moments --mu 7 --format csv": "028ed1da7bb74a453ac95b31fc7225693adf19bc0f0d332942dc8c576d89642a",
    "moments --mu 8 --format json": "eda7301c1f8964024fbb70d2a92a93370e76d9c424e7b341551328549c3f0c8a",
    "moments --mu 8 --format csv": "bd08701f8c4f20cbc2c638eaf86f4568438df5a1c8c401dc2b136eb3f48b437a",
    "moments --mu 9 --format json": "c9e7d8e63ea56d7471a88d4a529d8c070c738241562588590aff7ea65927ee78",
    "moments --mu 9 --format csv": "5eb70b1ce018e10779c36afe47a246f48a5b83f23721f5c09f91b0705ffbbe47",
    "moments --mu 10 --format json": "b67e76cf857ae2356d8eac9501d32e617a575de3e450d1bdb08c3415f5b658fa",
    "moments --mu 10 --format csv": "b9ea52017eb0cfdaa204373b884a08f38d52f8384c2b491e6557c85c627c1464",
    "moments --mu 11 --format json": "a7a256dd754fd5f760abd80a4490c1fd635586fb0c238be7c011b954285f29c5",
    "moments --mu 11 --format csv": "bcce263a8099659da6dc03b9c96043b0a1fdb01db620c3b9eeaa3cd92cfab1ed",
    "moments --mu 12 --format json": "e590e02a14971f212235d8da695505c4b56481fd68b8d3d43e7b2688e353d355",
    "moments --mu 12 --format csv": "cb654b5b9a594467d3235a0eb57c0621787fc26c64432122dd7c853b855c6372",
    "moments --mu 13 --format json": "98744915168e7f8d3a3d5f0bfc5a382b8471b9d8f97c9b5a12a24daf8fffa651",
    "moments --mu 13 --format csv": "8d8b55d418bb429bce7b1d5a9d04755c1e0a3f2b71b8dd29c4819e9c3765c9d3",
    "moments --mu 14 --format json": "b0786014366682e6ca365750f64b3206b9b31b1dba3ad35fb4b5932ffb7103e4",
    "moments --mu 14 --format csv": "ec40e71278c5a1d631f76427083626661afda5fd539562894ef7650bb040c8bc",
    "moments --mu 15 --format json": "b35e4a8e8abb97079797bc0c6bce2f710b89c57402ee8701baca0b9f76e88a56",
    "moments --mu 15 --format csv": "63fb419b436aac7d2b95d5528d0f72ffd546a971f7bb22fbe926f40b55eaf63f",
    "moments --mu 16 --format json": "de4165c0c597a5283039f745d218815e094e4b2673e352b0ddc576a4e3fcd6f6",
    "moments --mu 16 --format csv": "c127118325d1c306e553b95ba4cdf2a75b5c29abbdf271698bb69b4346ce5568",
    "moments --mu 17 --format json": "51f8554b62383a1a5b72ad4266798c7021370a01f67c47666320d8c24a523f1f",
    "moments --mu 17 --format csv": "a0c925b07dde7230d4875c123f06a99452d17d4f3568207bc31430b9e63ed349",
    "moments --mu 18 --format json": "4ebc92b883820c4477a955c99b8c638bc11ad0e8fa75af8ba6a06df2117df0db",
    "moments --mu 18 --format csv": "1a0c6b9968920250edee7b89c46989c15584f16a6d810cffe72fca7e3dd28d57",
    "moments --mu 19 --format json": "7be71ae56f36d8810351172db298a69ef20f1fa169336745159cd1bce85b8cde",
    "moments --mu 19 --format csv": "f9e2ee6288fd842e37f1ce6c82a4eb64d43b984143397194107610a4ceec0c97",
    "moments --mu 20 --format json": "7b99f259a9ced83ec88782b3bb8a88cc0f4767e63d6ce16bd67371bfc1d03a92",
    "moments --mu 20 --format csv": "2251523d9956b13f80cfb2cf1fa99349beb4e4aeca7da61cec12ca35754bf8b8",
    "moments --mu 21 --format json": "985ce207834ab57e5785a4b9b1c9dc8ec30e0bdf24df6259de7c192ad4a5d0eb",
    "moments --mu 21 --format csv": "c7ff56debeaee787b924ef6db1c448a1b72e7b80ad5b375deb86faa583db66e0",
    "moments --mu 22 --format json": "3aaf569f3a8a325e71f9140696db3538c888213e2353ecb67b42aec41f4736ea",
    "moments --mu 22 --format csv": "73951722129b471819d6f8b12322d268a9e9262849899a19a7012293dd659323",
    "moments --mu 23 --format json": "c43039feb1f38f9b6c607ed02e69f29cd2fe4195dd70b6254f8c4a41c4b0c87c",
    "moments --mu 23 --format csv": "96dc2992cc26e20fb39e0d33f132394d395d9154ec1f7f1c8ab17bb6db2fef08",
    "moments --mu 24 --format json": "6c37dc872310ab28178849ed88d712dcf9fa1d95a57cd252c13cefeacec6b7c5",
    "moments --mu 24 --format csv": "50ecc59f33ff9116f100282586f2dd720d73def3e48e9f7e94541574e3bf0ea5",
    "moments --mu 64 --format json": "3e3cbdb8e81ee545c6518f6cb3cdbc90397884d8a554980ba7b496ab2f67202f",
    "moments --mu 64 --format csv": "41562a07f12bc2ca3a0dab338d9dbe1f46936435fb4d01cf7f9c35797dda0684",
    "moments --mu 96 --format json": "1d588ebc554af5e21c85b2d933bfec2768c86f22501f2a483dc6044b87a80666",
    "moments --mu 96 --format csv": "897086d597e96cb7c7cea8c4eb624ab1c4b28b011960b4e03001fe6fbf97d503",
    "moments --mu 127 --format json": "88adadc3c038676b28b3c6b1824d1c65e23a3876c2b297c614961b02f6af2fd5",
    "moments --mu 128 --format json": "86509cca3a36ed47d1c4b4816177e820918939a8ea9ab5228bf9308a4e3dd162",
    "moments --mu 256": "bcd358ed21edaea13efeec9e2189d38eaf9d97055781a53c1d4ba768870201c2",
    "table --n-max 16 --extrapolate --format json": "fa3669b655917a8d106f9c9e41abf02d12ec46890584f44f29b049301dd90401",
    "table --n-max 16 --extrapolate --format csv": "10de68966d9619cd0ddec6c79fbcc1e74810be0466b3bbb475c36e42b91f8942",
}


class TestExactBytePins:
    @pytest.mark.parametrize("command", list(EXACT_STDOUT_SHA256))
    def test_stdout_bytes(self, command, capsys):
        assert main(command.split()) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == EXACT_STDOUT_SHA256[command]


def _readme_commands() -> list[list[str]]:
    """The ``negmoments ...`` lines of the README's Command line block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "negmoments" for argv in commands if argv)
    return [argv[1:] for argv in commands if argv]


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_line_example_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # an --output file lands here
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
