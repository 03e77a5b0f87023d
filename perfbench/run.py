#!/usr/bin/env python3
"""Benchmark of the negmoments command line, end to end and per layer.

    python3 perfbench/run.py --workload exact-moments --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is taken from ``src/``
and not installed. One client runs a closed loop: it starts a fresh
``python -m negmoments ...`` process, waits for it to exit, checks its stdout
and starts the next request. A pass is the workload's whole request script;
passes repeat while at least half of another one fits into ``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes (their difference is the tracing
overhead), then runs one fresh process per layer probe and prints the
per-layer metrics. The spans of a traced run are written to
``.perfbench_out/`` when it ends. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from spans import totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Problem sizes of the workloads and of the layer probes.
SIZES = {
    "exact_mu": 64,
    "fallback_mu": 96,
    "table_n_max": 14,
    "bounds_n_qubits": 22,
    "verify_max_mu": 16,
    "haar_mu": 4,
    "haar_samples": 60_000,
    "circuit_n_qubits": 4,
    "circuit_j": 40,
    "circuit_samples": 10_000,
    "import_repeats": 5,
    "repeats": 25,
}
#: Fresh ``--version`` processes timed for setup_s, after one untimed warm-up
#: that compiles the .pyc files.
SETUP_REPEATS = 9
#: Every child is killed, and no request started, this long after the run began.
RUN_BUDGET_S = 165.0
PROBES = ("import", "exact", "fallback", "table", "bounds", "selfcheck", "sampling")


@dataclass(frozen=True)
class Request:
    name: str
    args: tuple[str, ...]
    check: Callable[[bytes], str | None]
    samples: int = 0

    @property
    def metric(self) -> tuple[str, str]:
        return (f"{self.name}_samples_per_s", "1/s") if self.samples else (f"{self.name}_s", "s")


def workloads(seed: int) -> dict[str, list[Request]]:
    """The request script of each workload; only sampling depends on the seed."""
    s = SIZES
    haar, circuit = s["haar_samples"], s["circuit_samples"]
    return {
        "exact-moments": [
            Request("moments", ("moments", "--mu", str(s["exact_mu"]), "--exact"), checks.exact_moments_mu64),
            Request("table", ("table", "--n-max", str(s["table_n_max"]), "--extrapolate"), checks.table),
            Request("bounds", ("bounds", "--n-qubits", str(s["bounds_n_qubits"])), checks.bounds),
            Request("verify", ("verify", "--max-mu", str(s["verify_max_mu"])), checks.verify),
        ],
        "large-moments": [
            Request("moments", ("moments", "--mu", str(s["fallback_mu"])), checks.moments_mu96),
        ],
        "sampling": [
            Request(
                "haar",
                ("compare", "--mu", str(s["haar_mu"]), "--samples", str(haar), "--seed", str(seed), "--threads", "2"),
                partial(checks.haar_compare, samples=haar),
                haar,
            ),
            Request(
                "circuit",
                (
                    "sample", "--n-qubits", str(s["circuit_n_qubits"]), "--generator", "circuit",
                    "--j", str(s["circuit_j"]), "--format", "csv",
                    "--samples", str(circuit), "--seed", str(seed), "--threads", "2",
                ),
                partial(checks.circuit_csv, samples=circuit),
                circuit,
            ),
        ],
    }


@dataclass(frozen=True)
class Child:
    wall: float
    rss_mb: float
    code: int | None  # None: killed at the run deadline
    stdout: bytes
    stderr: bytes
    serial: int = 0  # which counted request this was; 0 for set-up processes


class Runner:
    """Starts child processes one at a time and keeps the run's accounting."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.spans: list[dict] = []
        self._ids = 0

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; peak RSS is this child's own, from wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Child(0.0, 0.0, None, b"", b"run deadline reached before start")
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}

            def kill():
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # wait4, not Popen.wait: RUSAGE_CHILDREN would give the
                # largest peak over all children so far, not this one's.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            code = None if state["killed"] else proc.returncode
            return Child(wall, usage.ru_maxrss / 1024.0, code, out.read(), err.read())

    def _next_id(self) -> str:
        self._ids += 1
        return f"r{self._ids}"

    def fail(self, serial: int, label: str, reason: str) -> None:
        """Record a mismatch; a request counts once in ``failed`` however many it has."""
        self.failures.append(f"{label}: {reason}")
        self.failed.add(serial)

    def request(self, req: Request, traced: bool = False, extra: tuple[str, ...] = ()) -> Child:
        """One counted CLI request: exit code and output are checked."""
        self.attempted += 1
        args = list(req.args) + list(extra)
        if not traced:
            child = self.spawn([sys.executable, "-m", "negmoments", *args])
        else:
            child, _ = self._spawn_traced("cli", ["--", *args], f"process.{req.name}")
        child = replace(child, serial=self.attempted)
        label = " ".join(["negmoments", *args])
        if child.code != 0:
            self.fail(child.serial, label, _exit_reason(child))
            return child
        try:
            reason = req.check(child.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            self.fail(child.serial, label, reason)
        return child

    def _spawn_traced(self, mode: str, args: list[str], name: str) -> tuple[Child, dict]:
        """Run ``child.py MODE SPANS REQUEST ARGS``; keep its spans and return its metrics."""
        request_id = self._next_id()
        spans_path = OUT_DIR / f"spans-{request_id}.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, str(spans_path), request_id, *args]
        span = {"id": f"{request_id}.p0", "parent": None, "request": request_id, "name": name}
        span["start"] = time.perf_counter()
        child = self.spawn(argv)
        span["end"] = time.perf_counter()
        self.spans.append(span)
        try:
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        except (OSError, ValueError):
            recorded = {}
        self.spans.extend(recorded.get("spans", []))
        return child, recorded.get("metrics", {})

    def probe(self, name: str, seed: int) -> dict:
        """One layer probe in a fresh process; returns its metrics."""
        self.attempted += 1
        child, metrics = self._spawn_traced("probe", [name, str(seed), json.dumps(SIZES)], f"process.probe.{name}")
        if child.code != 0:
            self.fail(self.attempted, f"probe {name}", _exit_reason(child))
            return {}
        return metrics


def _exit_reason(child: Child) -> str:
    tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
    return f"exit {child.code}: {tail[0]}"


def run_pass(runner: Runner, requests: list[Request], traced: bool = False) -> dict[str, Child]:
    return {req.name: runner.request(req, traced=traced) for req in requests}


def pass_wall(results: dict[str, Child]) -> float:
    return sum(child.wall for child in results.values())


def check_repeatable(runner: Runner, requests: list[Request], first: dict[str, Child], later: dict[str, Child], what: str) -> None:
    for req in requests:
        a, b = first[req.name], later[req.name]
        if a.code == 0 and b.code == 0 and a.stdout != b.stdout:
            runner.fail(b.serial, " ".join(["negmoments", *req.args]), f"stdout differs {what}")


def closed_loop(runner: Runner, seconds: float, one_pass: Callable[[], float]) -> None:
    """Repeat one_pass while at least half of the median pass fits into ``seconds``.

    The half keeps a run near ``seconds`` on average and gives a slow first
    pass of a long script a second one, so the median is not one sample.
    """
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) / 2 > seconds or runner.out_of_time():
            return


def measure_untraced(runner: Runner, requests: list[Request], seconds: float) -> tuple[dict, dict]:
    passes: list[dict[str, Child]] = []

    def one_pass() -> float:
        passes.append(run_pass(runner, requests))
        check_repeatable(runner, requests, passes[0], passes[-1], "from the first pass")
        return pass_wall(passes[-1])

    closed_loop(runner, seconds, one_pass)
    # Sampled output must not depend on the thread count.
    for req in requests:
        if "--threads" in req.args and not runner.out_of_time():
            single = runner.request(req, extra=("--threads", "1"))
            check_repeatable(runner, [req], passes[0], {req.name: single}, "between --threads 2 and --threads 1")

    per_request = {}
    for req in requests:
        walls = [p[req.name].wall for p in passes]
        name, unit = req.metric
        value = statistics.median(walls)
        per_request[name] = (req.samples / value if req.samples else value, unit)
    end_to_end = {
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "peak_rss_mb": (max(c.rss_mb for p in passes for c in p.values()), "MB"),
    }
    per_request["passes"] = (len(passes), "count")
    per_request["pass_walls"] = (" ".join(f"{pass_wall(p):.4f}" for p in passes), "s")
    return end_to_end, per_request


LAYER_UNITS = {"moments.pair_matrix_bits": "bits", "sampling.haar_thread_speedup": "x", "sampling.circuit_thread_speedup": "x"}


def measure_traced(runner: Runner, requests: list[Request], seconds: float, seed: int) -> dict:
    plain: list[float] = []
    traced: list[float] = []

    def one_pair() -> float:
        a = run_pass(runner, requests)
        b = run_pass(runner, requests, traced=True)
        check_repeatable(runner, requests, a, b, "between the untraced and the traced run")
        plain.append(pass_wall(a))
        traced.append(pass_wall(b))
        return plain[-1] + traced[-1]

    closed_loop(runner, seconds, one_pair)
    metrics: dict[str, tuple[float, str]] = {}
    for name in PROBES:
        repeats = SIZES["import_repeats"] if name == "import" else 1
        found: dict[str, list[float]] = {}
        for _ in range(repeats):
            for key, value in runner.probe(name, seed).items():
                found.setdefault(key, []).append(value)
        for key, values in found.items():
            metrics[key] = (statistics.median(values), LAYER_UNITS.get(key, "s"))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "negmoments" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no negmoments sources under {ROOT / 'src'}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(time.monotonic() + RUN_BUDGET_S)

    facts_child = runner.spawn([sys.executable, str(HERE / "child.py"), "facts"])
    version = [sys.executable, "-m", "negmoments", "--version"]
    setup = [runner.spawn(version) for _ in range(SETUP_REPEATS + 1)][1:]
    if facts_child.code != 0 or any(c.code != 0 for c in setup):
        sys.stderr.write("perfbench: the package does not start\n" + facts_child.stderr.decode("utf-8", "replace"))
        return 1
    facts = json.loads(facts_child.stdout)

    requests = workloads(args.seed)[args.workload]
    if args.trace:
        metrics = measure_traced(runner, requests, args.seconds, args.seed)
        report = {}
    else:
        metrics, report = measure_untraced(runner, requests, args.seconds)
        metrics["setup_s"] = (statistics.median(c.wall for c in setup), "s")
    report["ops_attempted"] = (runner.attempted, "count")
    report["ops_failed"] = (len(runner.failed), "count")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in report.items():
        print(f"report {name} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    if args.trace:
        for name, row in sorted(totals_by_name(runner.spans).items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name} calls={row['calls']} self={row['self_s']:.6f}s total={row['total_s']:.6f}s")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"machine": facts, "spans": runner.spans}), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
