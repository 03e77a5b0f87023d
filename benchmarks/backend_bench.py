#!/usr/bin/env python3
"""Benchmark the two rational-arithmetic backends on the exact hot kernels.

The engine selects gmpy2 (GMP-backed, compiled) at import when available and
falls back to fractions.Fraction otherwise. This script times the dominant
exact workloads under both, re-executing itself with
NEGMOMENTS_PURE_RATIONAL=1 for the pure-Python pass.

Usage: python benchmarks/backend_bench.py [--sizes 32,64,128]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def run_current_backend(sizes):
    from fractions import Fraction

    from negmoments import BACKEND, DEFAULT_EXACT_VARIANCE_CEILING, build_pair_integral_matrix, variance_negativity

    results = {"backend": BACKEND, "matrix": {}, "variance": {}}
    for mu in sizes:
        t0 = time.perf_counter()
        build_pair_integral_matrix(mu, Fraction(1, 2))
        results["matrix"][mu] = time.perf_counter() - t0
    for mu in (s for s in sizes if s <= DEFAULT_EXACT_VARIANCE_CEILING):
        t0 = time.perf_counter()
        variance_negativity(mu)
        results["variance"][mu] = time.perf_counter() - t0
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="32,64,128")
    parser.add_argument("--emit-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    if args.emit_json:
        print(json.dumps(run_current_backend(sizes)))
        return

    passes = []
    for pure in (False, True):
        env = dict(os.environ)
        env["NEGMOMENTS_PURE_RATIONAL"] = "1" if pure else "0"
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--sizes", args.sizes, "--emit-json"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        passes.append(json.loads(out.stdout))

    fast, pure = passes
    print(f"backends: {fast['backend']} vs {pure['backend']}")
    print(f"{'kernel':<28}{fast['backend']:>12}{pure['backend']:>12}{'speedup':>10}")
    for mu in sizes:
        key = str(mu)
        a, b = fast["matrix"][key], pure["matrix"][key]
        print(f"{'pair matrix mu=' + key:<28}{a:>11.3f}s{b:>11.3f}s{b / a:>9.1f}x")
    for key in fast["variance"]:
        a, b = fast["variance"][key], pure["variance"][key]
        print(f"{'variance mu=' + key:<28}{a:>11.3f}s{b:>11.3f}s{b / a:>9.1f}x")
    if fast["backend"] == pure["backend"]:
        print("note: gmpy2 not installed; both passes ran the pure backend")


if __name__ == "__main__":
    main()
