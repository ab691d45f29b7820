"""Benchmark of the qhahn-polymer toolkit: four workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the package is imported from ``src/``.
A run starts ``bench/workloads.py`` in one fresh process, which pays the
interpreter, the imports and the process-wide lazy tables (the F2 table) once,
then repeats rounds of the workload's operations until ``--seconds`` would be
exceeded, with at least two.  Every round rebuilds its inputs and makes the
same calls on the same inputs, so each call is timed once per round.

``wall_ref_s`` is the time of one pass of the workload as a fresh process
makes it, at a fixed reference speed of the host: the calls of the cold phase
plus, for every call of a round, the median of its times over the rounds.
On a shared host the speed can drift by up to 1.8x within minutes, in CPU
time too, with load from other guests (seen on a 2-vCPU KVM guest).  So every call is divided by the host's
slowdown around it: the median over the speed probes that ran within
``LOCAL_S`` of the call (``workloads.speed_probe``, fixed work independent of
the package, run between calls all through the run) of probe time over its
reference time.  The median per call then drops the calls that a burst of
load slowed down.  The raw median pass time is a per-layer metric
(``bench.raw_wall_s``).  Set-up time is the median over the run's process and
a few more processes that stop once the inputs are built, each divided by the
slowdown of the probes it runs right after its set-up.  Peak RSS is the run
process's.

With ``--trace 0`` the result holds those end-to-end metrics.  With
``--trace 1`` rounds alternate untraced and traced; the result holds the
per-layer metrics of the traced rounds (a span around every operation), as
medians over them, and the tracing overhead, the traced minus the untraced
median round time at the reference speed.  Exact work counts (replicas, quadrature nodes, F2 table
points, the enumeration tail bound, ...) must repeat exactly from round to
round; a mismatch counts as a failed operation, as does any failed
correctness check.

Metric names and units are read from ``BENCHMARK.json``.  The last line of
standard output is the result object; the lines before it give provenance
and one summary per round.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("lattice_mc", "lattice_exact", "polymer_laplace", "tracy_widom")
LAYERS = ("model", "weights", "hecke", "moments", "polymer", "fredholm", "asymptotics", "cli", "bench")
SETUP_PROBES = 6
# Probes that started this close to a call (s), or as close as the call is
# long, give the host's slowdown for it; calls this long (s) or longer get the
# run's median slowdown.
LOCAL_S = 0.5
GLOBAL_CALL_S = 2.0
PROBE_BURST = 3  # as in workloads.py
# Nominal times of the parts of workloads.speed_probe(), in its PROBE_PARTS
# order, near their medians on a 2-vCPU Xeon KVM guest; end-to-end times are
# reported at this probe speed.
REF_PROBE_S = {"py": 0.67e-3, "np": 1.3e-3, "mem": 2.5e-3, "la": 0.7e-3}
TIME_LIMIT_S = 170.0
# One BLAS thread: steadiest timings, and never more than nproc.
BLAS_THREADS = 1

UNITS = {
    "calls": "count", "failed": "count", "replicas": "count", "replica_cells": "count",
    "nodes": "count", "nodes_L": "count", "converged": "count", "points": "count", "spans": "count",
    "busy_s": "s", "self_s": "s", "trace_overhead_s": "s", "raw_wall_s": "s", "us_per_replica": "us",
    "ns_per_replica_cell": "ns", "T": "1", "tail": "1", "ks": "1",
}
PERCENTILES = (99, 95, 90, 75)


class BenchError(Exception):
    pass


def unit_of(name):
    stat = name.rsplit(".", 1)[-1]
    if stat.startswith("p") and stat.endswith("_ms"):
        return "ms"
    return UNITS.get(stat)


def nearest_rank(sorted_values, pct):
    idx = max(0, -(-len(sorted_values) * pct // 100) - 1)
    return sorted_values[idx]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, extra, deadline):
    """One fresh workload process; returns its record with ``setup_s`` added."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size] + extra
    launched = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["ready_at"] - launched
    if "rounds" in rec:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(lines[-1])
    return rec


def merged(cold, rnd):
    """A traced round together with the cold phase that preceded it."""
    durations = {key: cold["durations"].get(key, []) + rnd["durations"].get(key, [])
                 for key in cold["durations"].keys() | rnd["durations"].keys()}
    self_s = {layer: cold["self_s"].get(layer, 0.0) + rnd["self_s"].get(layer, 0.0)
              for layer in cold["self_s"].keys() | rnd["self_s"].keys()}
    return {"durations": durations, "self_s": self_s, "counts": {**cold["counts"], **rnd["counts"]},
            "failures": cold["failures"] + rnd["failures"], "spans": cold["spans"] + rnd["spans"]}


def layer_metrics(rec):
    """Per-layer metrics of one traced round."""
    out = dict(rec["counts"])
    for key, durations in rec["durations"].items():
        if key.startswith("bench."):
            continue
        busy = sum(durations)
        ordered = sorted(durations)
        out[f"{key}.calls"] = len(durations)
        out[f"{key}.busy_s"] = busy
        out[f"{key}.p50_ms"] = nearest_rank(ordered, 50) * 1e3
        for pct in PERCENTILES:
            if len(durations) * (100 - pct) >= 1000:
                out[f"{key}.p{pct}_ms"] = nearest_rank(ordered, pct) * 1e3
                break
        if rec["counts"].get(f"{key}.replicas"):
            out[f"{key}.us_per_replica"] = busy / rec["counts"][f"{key}.replicas"] * 1e6
        if rec["counts"].get(f"{key}.replica_cells"):
            out[f"{key}.ns_per_replica_cell"] = busy / rec["counts"][f"{key}.replica_cells"] * 1e9
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = rec["self_s"].get(layer, 0.0)
        out[f"layer.{layer}.failed"] = sum(1 for key, _ in rec["failures"] if key.split(".", 1)[0] == layer)
    out["bench.spans"] = rec["spans"]
    return out


def slowdown(probe):
    """How much slower than the reference one speed probe ran: the geometric
    mean over its parts, so that no one part dominates."""
    return math.exp(statistics.fmean(math.log(t / ref) for t, ref in zip(probe[1:], REF_PROBE_S.values())))


def local_slowdown(probes):
    """A function of a call's start and end: the host's slowdown during the call.

    That is the median slowdown of the probes that started within
    max(LOCAL_S, call time) of the call (at least the two nearest on each
    side).  A call of GLOBAL_CALL_S or more spans several changes of load, and
    the probes right around the cold phase's long call run just after the
    imports, so such a call gets the run's median slowdown instead.
    """
    probes = sorted(probes)
    starts = [probe[0] for probe in probes]
    slow = [slowdown(probe) for probe in probes]
    overall = statistics.median(slow)

    def at(t0, t1):
        if t1 - t0 >= GLOBAL_CALL_S:
            return overall
        pad = max(LOCAL_S, t1 - t0)
        i, j = bisect.bisect_left(starts, t0 - pad), bisect.bisect_right(starts, t1 + pad)
        if j - i < 2:
            k = bisect.bisect_left(starts, t0)
            i, j = max(0, k - 2), min(len(starts), k + 2)
        return statistics.median(slow[i:j])

    return at


def reference_times(rnd, slow_at):
    """The round's call times, each divided by the host's slowdown during it."""
    return [dt / slow_at(t0, t0 + dt) for _, dt, t0 in rnd["calls"]]


def probe_parts(records):
    """Median time of each probe part over the records."""
    probes = [probe for rnd in records for probe in rnd["probes"]]
    return {name: statistics.median(probe[1 + i] for probe in probes) for i, name in enumerate(REF_PROBE_S)}


def provenance(args):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "git_commit": commit, "blas_threads": BLAS_THREADS,
            "tw_experiment_workers": 1}


def run(args, spec):
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups = []
    for _ in range(SETUP_PROBES):
        child = run_child(args, ["--setup-only"], deadline)
        setups.append((child["setup_s"], child["probes"]))
    budget = args.seconds - (time.monotonic() - start)
    rec = run_child(args, ["--trace", str(args.trace), "--seconds", f"{budget:.3f}"], deadline)
    cold, rounds = rec["cold"], rec["rounds"]
    # the cold phase starts with a burst of probes right after the set-up
    setups.append((rec["setup_s"], cold["probes"][:PROBE_BURST]))
    setup_ref = statistics.median(t / statistics.median(slowdown(pr) for pr in probes) for t, probes in setups)
    plain = [rnd for rnd in rounds if not rnd["traced"]]
    traced = [rnd for rnd in rounds if rnd["traced"]]
    parts = probe_parts([cold] + plain)
    slow_at = local_slowdown([probe for rnd in [cold] + plain for probe in rnd["probes"]])
    raw_wall = sum(call[1] for call in cold["calls"]) + sum(
        statistics.median(times) for times in zip(*([call[1] for call in rnd["calls"]] for rnd in plain)))
    wall_ref = sum(reference_times(cold, slow_at)) + sum(
        statistics.median(times) for times in zip(*(reference_times(rnd, slow_at) for rnd in plain)))
    print(json.dumps({"cold_s": cold["wall_s"], "setup_s": rec["setup_s"], "peak_rss_mb": rec["peak_rss_mb"],
                      "raw_wall_s": raw_wall, "wall_ref_s": wall_ref, "slowdown": raw_wall / wall_ref,
                      "probe_ms": {k: v * 1e3 for k, v in parts.items()}, "runtime": rec["runtime"]}))
    for i, rnd in enumerate(rounds):
        print(json.dumps({"round": i, "traced": rnd["traced"], "wall_s": rnd["wall_s"], "ops": rnd["ops"],
                          "failed": len(rnd["failures"])}))

    attempted = cold["ops"] + sum(rnd["ops"] for rnd in rounds) + 2 * (len(rounds) - 1)
    failed = len(cold["failures"]) + sum(len(rnd["failures"]) for rnd in rounds)
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd["counts"] != rounds[0]["counts"]:
            diff = sorted(k for k in rnd["counts"].keys() | rounds[0]["counts"].keys()
                          if rnd["counts"].get(k) != rounds[0]["counts"].get(k))
            print(f"FAIL work counts of round {i} differ from round 0: {diff}", file=sys.stderr)
            failed += 1
        if [call[0] for call in rnd["calls"]] != [call[0] for call in rounds[0]["calls"]]:
            print(f"FAIL calls of round {i} differ from round 0", file=sys.stderr)
            failed += 1

    if args.trace:
        per_round = [layer_metrics(merged(cold, rnd)) for rnd in traced]
        computed = {name: statistics.median(m.get(name, 0) for m in per_round)
                    for name in set().union(*per_round)}
        # round times at the reference speed, each by the median slowdown of its own probes
        ref_wall = [rnd["wall_s"] / statistics.median(slowdown(pr) for pr in rnd["probes"]) for rnd in rounds]
        computed["bench.trace_overhead_s"] = (
            statistics.median(w for w, rnd in zip(ref_wall, rounds) if rnd["traced"])
            - statistics.median(w for w, rnd in zip(ref_wall, rounds) if not rnd["traced"]))
        computed["bench.raw_wall_s"] = raw_wall
        computed["bench.probe_ms"] = sum(parts.values()) * 1e3
        wanted = spec["per_layer"]
    else:
        computed = {
            "wall_ref_s": wall_ref,
            "setup_s": setup_ref,
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in computed and unit_of(name) not in (None, m["unit"]):
            raise BenchError(f"metric {name} has unit {unit_of(name)}, BENCHMARK.json says {m['unit']}")
        # a layer this workload never calls reports zero
        metrics[name] = {"value": computed.get(name, 0), "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qhahn_polymer" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(args)}))
    try:
        result = run(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
