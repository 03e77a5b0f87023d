import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negmoments
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
        # The recurrence scale 2^(4 mu) has too many digits for an int.
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
        assert main(["sample", "--mu", "100000", "--samples", "1", "--threads", "1"]) == 3
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
        assert doc["c"] == pytest.approx(0.7205, abs=2e-3)

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

    def test_thread_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEGMOMENTS_THREADS", "2")
        out = tmp_path / "e.json"
        assert main(["sample", "--mu", "2", "--samples", "300", "--output", str(out)]) == 0
        monkeypatch.setenv("NEGMOMENTS_THREADS", "zero")
        assert main(["sample", "--mu", "2", "--samples", "300", "--output", str(out)]) == 2

    def test_moments_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["moments", "--mu", "4", "--output", str(a)]) == 0
        assert main(["moments", "--mu", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
