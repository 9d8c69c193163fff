#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload in BENCHMARK.json it
runs perfbench/run.py with --tiny in both modes and checks that the run
passes, that the result line has exactly the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1), each with the unit
BENCHMARK.json names, and that every value is a finite number.  Then it
plants a wrong bound (--plant-wrong-bound) and checks that the checks
catch it: the run exits nonzero, reports correct=false, and, traced,
error_rate above zero.  Exits nonzero on the first failure.
"""
import json
import math
import subprocess
import sys


def run(workload, trace, *extra):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--tiny", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def expect(ok, what):
    if not ok:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)


def check_metrics(label, result, declared):
    expect(result is not None, f"{label}: no result line")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    metrics = result["metrics"]
    expect(set(metrics) == set(declared),
           f"{label}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(declared) - set(metrics))}, "
           f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        value = metrics[name]
        expect(value["unit"] == unit,
               f"{label}: {name} has unit {value['unit']}, declared {unit}")
        expect(isinstance(value["value"], (int, float)) and
               math.isfinite(value["value"]),
               f"{label}: {name} is not a finite number")


def main():
    bench = json.load(open("BENCHMARK.json"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            code, result = run(workload, trace)
            expect(code == 0, f"{label}: exit code {code}")
            check_metrics(label, result, declared)
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, f"{label}: checks failed")
            print(f"selftest: ok: {label}")

    for trace in (0, 1):
        label = f"planted wrong bound, --trace {trace}"
        code, result = run("table1-fast", trace, "--plant-wrong-bound")
        expect(code != 0, f"{label}: exit code 0")
        expect(result is not None and not result["correct"] and
               result["failed"] > 0, f"{label}: not reported as failed")
        if trace == 1:
            expect(result["metrics"]["error_rate"]["value"] > 0,
                   f"{label}: error_rate is 0")
        print(f"selftest: ok: {label}")
    print("selftest: all passed")


if __name__ == "__main__":
    main()
