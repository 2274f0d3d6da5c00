#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload, in both modes, it runs perfbench/run.py with --tiny
and asserts that the result line has exactly the contract's keys, that
every metric BENCHMARK.json declares is emitted with its declared unit,
that the named readings and workload keys are printed, and that the
output checks ran and passed. It also checks that run.py fails without a
result in a directory holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import re
import shutil
import subprocess
import sys

READINGS = {
    "analyze": {"analyze_csv_s": "s", "analyze_tsnap_s": "s"},
    "sweep": {"sweep_replicates_per_s": "1/s", "repairs_replicates_per_s": "1/s"},
    "serve": {"study_scan_best_s": "s", "study_scan_s": "s", "restore_best_s": "s",
              "restore_s": "s", "ingest_events_per_s": "1/s",
              "query_p50_ms": "ms", "query_p99_ms": "ms", "scrape_p50_ms": "ms",
              "scrape_p95_ms": "ms"},
}
COMMON_READINGS = {"setup_s": "s", "failed_ratio": "ratio", "rss_peak_mib": "MiB"}
# Fewest checks one tiny run makes (analyze has the fewest per iteration).
MIN_ATTEMPTED = 4


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(spec, workload, trace):
    out = run(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
               "--tiny"], os.getcwd())
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {out.stderr[-3000:]}"
    assert result["attempted"] >= MIN_ATTEMPTED, f"{where}: only {result['attempted']} checks"

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, where
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], f"{where}: {metric['name']} unit"
        assert isinstance(emitted["value"], (int, float)), f"{where}: {metric['name']} value"
        if not trace:
            assert emitted["value"] > 0, f"{where}: {metric['name']} is not positive"

    record = json.loads(lines[-2])["record"]
    for key in ("workload", "seed", "N", "jobs", "raw"):
        assert key in record, f"{where}: record lacks {key}"
    assert record["workload"] == workload and record["seed"] == 7, where

    if not trace:
        table = "\n".join(lines[:-2])
        for name, unit in {**READINGS[workload], **COMMON_READINGS}.items():
            pattern = rf"^  {re.escape(name)} = \S+ {re.escape(unit)}(  \(n=\d+\))?$"
            assert re.search(pattern, table, re.M), f"{where}: reading {name} [{unit}] missing"
    print(f"ok  {where}: {result['attempted']} checks, {len(result['metrics'])} metrics")


def check_refuses_without_sources():
    bare = os.path.join(".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    try:
        out = run(["--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert out.returncode != 0, "run.py succeeded without the sources"
        assert '"metrics"' not in out.stdout, "run.py printed a result without the sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  run.py refuses a directory without the sources")


def main():
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(READINGS)
    for workload in READINGS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
