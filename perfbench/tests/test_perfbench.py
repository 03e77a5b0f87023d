"""Tests of the benchmark harness itself, at sizes that run in seconds.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL_SIZES = {
    "exact_mu": 8,
    "fallback_mu": 8,
    "table_n_max": 6,
    "bounds_n_qubits": 22,
    "verify_max_mu": 4,
    "haar_mu": 4,
    "haar_samples": 2000,
    "circuit_n_qubits": 4,
    "circuit_j": 4,
    "circuit_samples": 2000,
    "import_repeats": 2,
    "repeats": 3,
}


def _span(span_id, parent, start, end, name="s"):
    return {"id": span_id, "parent": parent, "request": "r", "name": name, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_child_intervals():
    recorded = [
        _span("a", None, 0.0, 10.0, "root"),
        _span("b", "a", 1.0, 4.0, "child"),
        _span("c", "a", 3.0, 6.0, "child"),  # overlaps b: covered once
        _span("d", "b", 2.0, 3.0, "leaf"),  # grandchild: only b loses it
        _span("e", "a", 9.0, 12.0, "late"),  # clipped to its parent's end
    ]
    assert spans.self_times(recorded) == pytest.approx({"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 3.0})
    totals = spans.totals_by_name(recorded)
    assert totals["child"] == pytest.approx({"calls": 2, "total_s": 6.0, "self_s": 5.0})


def test_recorder_nests_spans_under_one_request():
    rec = spans.Recorder("r7", root_parent="r7.p0", tag="c")
    traced = rec.wrap(lambda x, **kw: f"fn.{x}", lambda x, **kw: x * 2)
    with rec.span("outer"):
        assert traced(3) == 6
    outer, inner = rec.spans
    assert (outer["name"], outer["parent"]) == ("outer", "r7.p0")
    assert (inner["name"], inner["parent"]) == ("fn.3", outer["id"])
    assert {s["request"] for s in rec.spans} == {"r7"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


@pytest.fixture
def runner():
    run.OUT_DIR.mkdir(exist_ok=True)
    return run.Runner(deadline=run.time.monotonic() + 120)


def test_failing_and_wrong_requests_count_as_failed(runner):
    ceiling = runner.request(run.Request("moments", ("moments", "--mu", "129", "--exact"), checks.exact_moments_mu64))
    assert ceiling.code == 3
    wrong = runner.request(run.Request("moments", ("moments", "--mu", "8", "--exact"), checks.exact_moments_mu64))
    assert wrong.code == 0
    assert runner.attempted == 2
    assert runner.failed == {1, 2}
    assert "exit 3" in runner.failures[0]
    assert "golden" in runner.failures[1]


@pytest.mark.parametrize(
    "args",
    [
        ("moments", "--mu", "8", "--exact"),
        ("sample", "--mu", "2", "--samples", "300", "--seed", "3", "--format", "csv", "--threads", "2"),
        ("verify", "--max-mu", "3"),
    ],
)
def test_traced_request_leaves_stdout_bytes_unchanged(runner, args):
    req = run.Request(args[0], args, lambda stdout: None)
    plain = runner.request(req)
    traced = runner.request(req, traced=True)
    assert plain.code == traced.code == 0
    assert plain.stdout and traced.stdout == plain.stdout
    names = {s["name"] for s in runner.spans}
    assert {f"process.{args[0]}", "cli.import", "cli.main"} <= names
    assert not runner.failures


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(monkeypatch, capsys, workload):
    monkeypatch.setattr(run, "SIZES", SMALL_SIZES)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    result = _result(capsys)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
    if workload == "sampling":  # the only workload whose checks hold at these sizes
        assert result["correct"] and result["failed"] == 0


def test_traced_run_emits_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "SIZES", SMALL_SIZES)
    assert run.main(["--workload", "sampling", "--seed", "1", "--seconds", "0.1", "--trace", "1"]) == 0
    result = _result(capsys)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"], result
    assert (run.OUT_DIR / "trace-sampling-seed1.json").is_file()


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
