"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at ``--size tiny`` and
checks that each result line is well formed, that every metric named in
BENCHMARK.json prints with its unit, that every correctness check passed,
and that each per-layer metric is measured by at least one workload.  It
also checks that the benchmark refuses to run, without printing a result,
from a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when everything holds; takes about two minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    measured = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
            if set(result["metrics"]) != {m["name"] for m in listed}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in listed:
                got = result["metrics"].get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"] or isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
                elif value:
                    measured.setdefault(m["name"], []).append(workload)
                elif trace == 0:
                    problems.append(f"{where}: end-to-end metric {m['name']} is zero")
            print(f"{where}: correct={result['correct']} attempted={result['attempted']}", flush=True)
    for m in spec["per_layer"]:
        # failure counts are zero on a correct commit
        if m["name"] not in measured and not m["name"].endswith(".failed"):
            problems.append(f"per-layer metric {m['name']} is not measured by any workload")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark ran without the package source")

    for msg in problems:
        print(f"PROBLEM {msg}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
