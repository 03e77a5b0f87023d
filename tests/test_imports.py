"""Start-up cost: which heavy modules each entry point loads, and the lazy package namespace.

sampling imports numpy when it runs, and only ``sample`` and ``compare``
run it; distribution and bounds import numpy inside the functions that use
it. So the package, ``--version``, the exact commands and ``verify`` start
without it; the quadrature oracle behind ``verify`` runs on plain Python
floats and imports no numpy at all. Floats are rounded
by integer arithmetic, so no command loads mpmath; only
``SqrtPiPolynomial.evaluate_mpf`` does. Each start-up case runs in a fresh
interpreter, because any earlier test in this process has loaded both.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negmoments

HEAVY = ("numpy", "numpy.random", "mpmath")

#: Runs ``cli.main(argv)`` with stdout captured and reports the heavy
#: modules loaded before and after it, the exit code and the output.
_MAIN = f"""
import contextlib, io, json, sys
from negmoments import cli
heavy = {HEAVY!r}
before = [m for m in heavy if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
after = [m for m in heavy if m in sys.modules]
print(json.dumps({{"code": code, "before": before, "after": after, "stdout": out.getvalue()}}))
"""

#: Runs ``cli.main(argv)`` and reports the exit code and the package's
#: submodules whose code ran.
_RAN = """
import contextlib, io, json, sys, types
from negmoments import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
ran = [n.split(".", 1)[1] for n, m in sys.modules.items() if n.startswith("negmoments.") and type(m) is types.ModuleType]
print(json.dumps({"code": code, "ran": ran}))
"""


def _fresh(code: str, *argv: str) -> str:
    """stdout of ``python -c code argv...`` in a fresh interpreter that imports this package."""
    package_root = str(Path(negmoments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _fresh_main(args: list[str]) -> dict:
    report = json.loads(_fresh(_MAIN, json.dumps(args)))
    assert report["code"] == 0
    return report


class TestImportBudget:
    def test_package_import_loads_neither(self):
        code = f"import sys, negmoments; print([m for m in {HEAVY!r} if m in sys.modules])"
        assert _fresh(code).strip() == "[]"

    def test_version_loads_neither(self):
        report = _fresh_main(["--version"])
        assert report["stdout"] == f"negmoments {negmoments.__version__}\n"
        assert report["after"] == []

    @pytest.mark.parametrize(
        "args",
        [
            ["--version"],
            ["moments", "--mu", "8"],
            ["moments", "--mu", "8", "--exact", "--format", "csv"],
            ["table", "--n-max", "6", "--extrapolate"],
            ["bounds", "--n-qubits", "6", "--format", "csv"],
            ["verify", "--max-mu", "4"],
        ],
        ids=" ".join,
    )
    def test_version_loads_no_dataclasses(self, args):
        # dataclasses imports inspect, ast, dis and tokenize (about 12 ms), so
        # the records of the exact commands are named tuples. Only sample and
        # compare load it, for SampleBatch, and they load numpy anyway.
        code = (
            "import contextlib, io, json, sys\n"
            "from negmoments import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(json.loads(sys.argv[1]))\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
        )
        assert _fresh(code, json.dumps(args)).splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--mu", "8"],
            ["moments", "--mu", "8", "--exact", "--format", "csv"],
            ["table", "--n-max", "6", "--extrapolate"],
            ["bounds", "--n-qubits", "6"],
            ["bounds", "--n-qubits", "6", "--c", "preset"],
            ["verify", "--max-mu", "4"],
            ["verify", "--max-mu", "20"],
        ],
        ids=" ".join,
    )
    def test_exact_commands_load_no_numpy(self, args):
        report = _fresh_main(args)
        assert report["before"] == []
        assert "numpy" not in report["after"]

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--mu", "2", "--samples", "10", "--threads", "1"],
            ["compare", "--mu", "2", "--samples", "100", "--threads", "1"],
        ],
        ids=" ".join,
    )
    def test_numeric_commands_do_load_numpy(self, args):
        # The probe above can see numpy: these commands need it.
        assert "numpy" in _fresh_main(args)["after"]

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--mu", "2", "--samples", "10", "--threads", "1"],
            ["sample", "--n-qubits", "4", "--generator", "circuit", "--j", "3", "--samples", "10", "--threads", "2"],
            ["compare", "--mu", "2", "--samples", "100", "--threads", "1"],
        ],
        ids=" ".join,
    )
    def test_samplers_load_no_numpy_random(self, args):
        # The Philox key is SeedSequence's algorithm on Python ints.
        report = _fresh_main(args)
        assert "numpy" in report["after"]
        assert "numpy.random" not in report["after"]

    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--mu", "8"],
            ["moments", "--mu", "8", "--exact", "--format", "csv"],
            ["table", "--n-max", "6", "--extrapolate"],
            ["bounds", "--n-qubits", "6"],
            ["verify", "--max-mu", "4"],
            ["verify", "--max-mu", "20"],
            ["sample", "--mu", "2", "--samples", "10", "--threads", "1"],
            ["compare", "--mu", "2", "--samples", "100", "--threads", "1"],
        ],
        ids=" ".join,
    )
    def test_commands_load_no_mpmath(self, args):
        report = _fresh_main(args)
        assert report["stdout"]
        assert "mpmath" not in report["after"]

    @pytest.mark.parametrize(
        "args,needed",
        [
            (["--version"], []),
            (["moments", "--mu", "8"], ["moments", "distribution", "exactring"]),
            (["table", "--n-max", "6", "--extrapolate"], ["moments", "distribution", "exactring"]),
            (["bounds", "--n-qubits", "6"], ["bounds", "distribution", "exactring"]),
            (["verify", "--max-mu", "4"], ["selfcheck", "moments", "laguerre", "quadrature", "exactring"]),
        ],
        ids=["--version", "moments --mu 8", "table --n-max 6 --extrapolate", "bounds --n-qubits 6", "verify --max-mu 4"],
    )
    def test_command_runs_only_the_modules_it_needs(self, args, needed):
        # The package registers its submodules lazily; one that never ran is
        # absent from sys.modules or still of LazyLoader's own module type.
        report = json.loads(_fresh(_RAN, json.dumps(args)))
        assert report["code"] == 0
        assert set(report["ran"]) == {"cli", *needed}

    def test_evaluate_mpf_loads_mpmath(self):
        # The probe above can see mpmath: the adapter imports it.
        code = (
            "import sys\n"
            "from negmoments.exactring import SqrtPiPolynomial\n"
            "before = 'mpmath' in sys.modules\n"
            "value = SqrtPiPolynomial({1: 1}).evaluate_mpf(64)\n"
            "print(before, 'mpmath' in sys.modules, type(value).__name__)"
        )
        assert _fresh(code).strip() == "False True mpf"


def test_only_sampling_imports_numpy_when_it_runs():
    # Running a module executes its top level; the exact modules, and the two
    # that import numpy inside their functions, must not load it there.
    quiet = ("exactring", "laguerre", "quadrature", "moments", "selfcheck", "bounds", "distribution")
    code = (
        "import importlib, sys\n"
        f"for name in {quiet + ('sampling',)!r}:\n"
        "    vars(importlib.import_module('negmoments.' + name))  # runs a lazy module\n"
        "    print(name, 'numpy' in sys.modules)"
    )
    assert _fresh(code).splitlines() == [f"{name} False" for name in quiet] + ["sampling True"]


def test_cli_import_loads_what_the_benchmark_wraps():
    """perfbench/child.py ``instrument`` imports only ``negmoments.cli`` and then
    reads these modules from ``sys.modules`` by name and wraps
    ``SqrtPiPolynomial.evaluate_mpf``; they must be in sys.modules, where the
    package registers them lazily, once ``cli`` is imported."""
    modules = ("moments", "bounds", "selfcheck", "sampling", "distribution")
    code = (
        "import sys, negmoments.cli\n"
        "from negmoments.exactring import SqrtPiPolynomial\n"
        f"print([m for m in {modules!r} if 'negmoments.' + m in sys.modules], callable(SqrtPiPolynomial.evaluate_mpf))"
    )
    assert _fresh(code).strip() == f"{list(modules)!r} True"


def _benchmark_traced() -> dict:
    """``TRACED`` of perfbench/child.py, read from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no TRACED")


class TestBenchmarkPins:
    """perfbench wraps functions by name and reads ``verify``'s suites by count."""

    def test_traced_names_resolve(self):
        traced = _benchmark_traced()
        assert "moments" in traced and "selfcheck" in traced
        for module, names in traced.items():
            owner = importlib.import_module(f"negmoments.{module}")
            missing = [name for name in names if not callable(getattr(owner, name, None))]
            assert missing == [], f"negmoments.{module} lacks {missing}"

    def test_suite_names_and_order(self):
        from negmoments import selfcheck

        assert [result.name for result in selfcheck.run_all(2)] == [
            "pair-integral symmetry",
            "weight-0 orthonormality",
            "weight-1 tridiagonal form",
            "3F2 re-derivation",
            "quadrature oracle agreement",
            "naive vs trace determinant sums",
            "pair sum trace identity",
            "variance moment identity",
        ]


#: The names the package exports, by the submodule that defines them.
EXPORTS = {
    "bounds": [
        "BoundsReport",
        "RATIO_PRESET",
        "asymptotic_singlet_distance",
        "build_bounds_report",
        "cluster_check",
        "distillable_upper",
        "log_negativity",
    ],
    "distribution": [
        "ComparisonReport",
        "GaussianReference",
        "Histogram",
        "build_document",
        "build_histogram",
        "compare",
        "gaussian_reference",
    ],
    "exactring": [
        "BACKEND",
        "PoleError",
        "SqrtPiPolynomial",
        "eval_float",
        "format_rational",
        "gamma_half",
    ],
    "laguerre": [
        "laguerre_pair_integral",
        "laguerre_pair_integral_hyp3f2",
    ],
    "moments": [
        "EXACT_MODE_CEILING",
        "MomentReport",
        "PairIntegralMatrix",
        "ResourceCeilingError",
        "TableRow",
        "build_pair_integral_matrix",
        "det_moment_sum",
        "extrapolate_limit",
        "generate_table",
        "max_negativity",
        "mean_negativity",
        "mean_pair_product",
        "normalized_moments",
        "variance_negativity",
    ],
    "quadrature": ["InsufficientNodesError", "laguerre_pair_integral_quadrature"],
    "sampling": [
        "STREAM_ID",
        "SampleBatch",
        "haar_pure_state",
        "reduced_state_a",
        "sample_negativities",
    ],
}


class TestPackageNamespace:
    def test_all_is_the_old_export_list(self):
        expected = [name for names in EXPORTS.values() for name in names]
        assert sorted(negmoments.__all__) == sorted(expected)
        assert len(set(negmoments.__all__)) == len(negmoments.__all__)

    @pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_is_the_submodule_object(self, module, name):
        assert getattr(negmoments, name) is getattr(importlib.import_module(f"negmoments.{module}"), name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from negmoments import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(negmoments.__all__)
        assert set(negmoments.__all__) <= set(dir(negmoments))
        assert "__version__" in dir(negmoments)

    def test_submodules_resolve_as_attributes(self):
        for module in EXPORTS:
            assert getattr(negmoments, module) is importlib.import_module(f"negmoments.{module}")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            negmoments.no_such_name  # noqa: B018
        assert not hasattr(negmoments, "Precision")
        with pytest.raises(ImportError):
            exec("from negmoments import no_such_name", {})

    @pytest.mark.parametrize(
        "name",
        [
            "PureState",
            "SchmidtSpectrum",
            "DensityMatrix",
            "schmidt_spectrum",
            "negativity_pure",
            "partial_transpose",
            "negativity_general",
            "pseudorandom_circuit_state",
        ],
    )
    def test_single_state_surface_is_gone(self, name):
        assert not hasattr(negmoments, name)
        assert not hasattr(importlib.import_module("negmoments.sampling"), name)

    @pytest.mark.parametrize("name", ["singlet_distance_lower", "teleportation_fidelity_upper"])
    def test_finite_mean_bounds_gone(self, name):
        assert not hasattr(negmoments, name)
        assert not hasattr(importlib.import_module("negmoments.bounds"), name)


def test_first_numpy_use_under_threads_matches_one_thread():
    # numpy loads when the command preloads sampling, before any worker
    # thread starts; the first sampled run of the process uses two workers.
    args = ["sample", "--mu", "4", "--samples", "3000", "--seed", "5"]
    two = _fresh_main(args + ["--threads", "2"])
    one = _fresh_main(args + ["--threads", "1"])
    assert two["before"] == [] and "numpy" in two["after"]
    assert two["stdout"] == one["stdout"]
    assert json.loads(two["stdout"])["histogram"]["total"] == 3000
