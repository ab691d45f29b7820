"""One benchmark run: rounds of a fixed sequence of timed, checked operations.

``bench/run.py`` starts this script in a fresh process for every run::

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
    python3 bench/workloads.py --workload NAME --seed N --setup-only

An *operation* is one call into one public function of a package module,
followed by a correctness check with the acceptance suite's tolerance.  Long
Monte Carlo operations are split into short calls on fixed streams and their
checks pool the calls, so each call is short and identical from round to
round.  The run first pays the process-wide lazy tables once (the cold
phase: the F2 table on ``tracy_widom``), then repeats *rounds* until ``--seconds``
would be exceeded, at least two.  Each round rebuilds its inputs from the
seed, so per-model lazy tables (vertex and boundary tables) are paid in every
round, and makes the same calls on the same inputs.  With ``--trace 1``
rounds alternate untraced and traced.

The run prints one JSON line: the wall clock at which the first operation was
ready (``ready_at``, for set-up time), the cold phase and every round with
the start and duration of each call and the speed probes run between calls
(``speed_probe``), peak RSS, the operation and failure counts, exact
work counts per operation and, for traced rounds, per-operation span
durations and per-layer self time.  Spans are kept in memory and written to
``.bench_out/`` when the run ends.

Every input (model parameters, Monte Carlo streams, random exact instances,
the F2 grid offset) is derived from ``--seed``; the package only receives
those inputs.  Parameters are jittered by at most 1e-3 relative, which keeps
quadrature node counts and enumeration caps the same from seed to seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from qhahn_polymer import asymptotics, cli, fredholm, hecke, model, moments, polymer, weights
from qhahn_polymer.qtools import Permutation, spawn_rng

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Work counts that are extremes rather than totals over the calls of one operation.
MAX_STATS = {"T", "tail", "ks"}

SIZES = {
    # replicas per call x calls: short calls on fixed streams, pooled by the checks
    "lattice_mc": {
        "full": {"shift_calls": 16, "shift_samples": 60, "n2_calls": 4, "n2_samples": 250,
                 "bridge_calls": 12, "bridge_samples": 60, "cli_samples": 20},
        "tiny": {"shift_calls": 2, "shift_samples": 40, "n2_calls": 1, "n2_samples": 200,
                 "bridge_calls": 2, "bridge_samples": 60, "cli_samples": 2},
    },
    "lattice_exact": {
        "full": {"ybe_draws": 25, "outgoing_draws": 100, "local_draws": 100, "hecke_points": 50, "cli_trials": 10},
        "tiny": {"ybe_draws": 25, "outgoing_draws": 100, "local_draws": 100, "hecke_points": 5, "cli_trials": 2},
    },
    "polymer_laplace": {
        "full": {"dp_calls": 10, "replicas": 50_000, "moment_calls": 5, "moment_replicas": 50_000, "environments": 20},
        "tiny": {"dp_calls": 2, "replicas": 25_000, "moment_calls": 2, "moment_replicas": 25_000, "environments": 3},
    },
    # the cold F2 table dominates either way, and KS(32) <= 0.15 needs about 1000 replicas
    "tracy_widom": {
        "full": {"tw_replicas": 1000, "cli_samples": 400},
        "tiny": {"tw_replicas": 1000, "cli_samples": 400},
    },
}
WORKLOADS = tuple(SIZES)

# Enumeration tolerance: loose enough that the three requests of criterion 6
# fit a round several times over in one run; the tail bound (about 1e-8)
# still leaves the enumeration within 1e-8 of the integral, under its 1e-6 gate.
ENUM_TOL = 1e-7
TW_THETA = 0.3
TW_TIMES = (32, 64, 96)
LAPLACE_U = (-0.5, -1.0, -2.0, -3.5, -5.0)


def gate(label, value, limit):
    """None when ``value < limit``, otherwise a failure message (NaN fails)."""
    return None if value < limit else f"{label} = {value:.3g}, limit {limit:g}"


def rel(value, target):
    return abs(value - target) / abs(target)


def quad_counts(out):
    _, info = out
    return {"nodes": info["nodes"], "converged": int(info["converged"])}


def quad_converged(out):
    return None if out[1]["converged"] else f"quadrature not converged at {out[1]['nodes']} nodes"


def pooled(estimates):
    """Mean and standard error of equal-size independent (mean, se) estimates."""
    n = len(estimates)
    return sum(m for m, _ in estimates) / n, math.sqrt(sum(se * se for _, se in estimates)) / n


# The speed probe: fixed work independent of the package, in four parts that
# load the host the way the workloads do: the interpreter on small dicts,
# numpy on a cache-resident array, numpy streaming an 8 MB array, and LAPACK
# on a small matrix.  About 5 ms in all.  A shared host's speed can drift by up
# to 1.8x over minutes (load from other guests, felt in CPU time too; seen on a
# 2-vCPU KVM guest); probing all through the run lets run.py express times at
# one reference speed.
PROBE_EVERY_S = 0.1
# After a call this long, and right after the set-up, probe a few times at
# once, so that every long call has probes right before and right after it.
LONG_CALL_S = 0.25
PROBE_BURST = 3
PROBE_PARTS = ("py", "np", "mem", "la")
PROBE_SMALL = np.linspace(-1.0, 1.0, 8192)
PROBE_LARGE = np.linspace(-1.0, 1.0, 1 << 20)
PROBE_MATRIX = np.eye(96) - 0.01 * np.cos(np.arange(96 * 96, dtype=float)).reshape(96, 96)


def speed_probe():
    """Times of the probe's parts, in PROBE_PARTS order, after its start time."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(4000):
        s += i * i % 7
        d[i & 63] = s
    t1 = time.perf_counter()
    x = PROBE_SMALL
    for _ in range(10):
        x = np.sin(x) * 0.5 + x[::-1] * 0.25
    t2 = time.perf_counter()
    (PROBE_LARGE * 1.0001).sum()
    t3 = time.perf_counter()
    for _ in range(3):
        np.linalg.slogdet(PROBE_MATRIX)
    t4 = time.perf_counter()
    return [t0, t1 - t0, t2 - t1, t3 - t2, t4 - t3]


class Pass:
    """Runs operations, checks each result, and records call times, counts and spans."""

    def __init__(self, trace, run_id):
        self.trace = trace
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start_ns, end_ns]
        self.stack = []
        self.calls = []  # [key, seconds, start] per operation, in call order
        self.ops = 0
        self.failures = []
        self.counts = {}
        self.probes = []  # speed_probe() results, one at most every PROBE_EVERY_S between calls
        self.next_probe = 0.0

    @contextmanager
    def span(self, name):
        if not self.trace:
            yield
            return
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else None, name, time.perf_counter_ns(), None])
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[sid][4] = time.perf_counter_ns()

    def op(self, key, fn, check, counts=None):
        """Call ``fn`` inside a span named ``key``, time it, then check its result.

        ``check(out)`` returns None for a correct result and a message
        otherwise; ``counts(out)`` returns exact work counts for ``key``.
        Returns the result, or None when the call raised.
        """
        self.ops += 1
        if time.perf_counter() >= self.next_probe:
            self.probe(1)
        t0 = time.perf_counter()
        try:
            with self.span(key):
                out = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.end_call(key, t0)
            self.failures.append((key, f"{type(exc).__name__}: {exc}"))
            return None
        self.end_call(key, t0)
        with self.span("bench.check"):
            try:
                msg = check(out)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                self.failures.append((key, msg))
            if counts is not None:
                for stat, value in counts(out).items():
                    name = f"{key}.{stat}"
                    prev = self.counts.get(name)
                    if prev is None:
                        self.counts[name] = value
                    else:
                        self.counts[name] = max(prev, value) if stat in MAX_STATS else prev + value
        return out

    def probe(self, times):
        self.probes.extend(speed_probe() for _ in range(times))
        self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def end_call(self, key, t0):
        dt = time.perf_counter() - t0
        self.calls.append([key, dt, t0])
        if dt >= LONG_CALL_S:
            self.probe(PROBE_BURST)

    def pooled_check(self, key, outs, check):
        """Check the pooled result of the calls of one split operation.

        ``outs`` holds the results of the calls; a call that raised was
        already counted, so the pooled check is skipped.
        """
        if any(out is None for out in outs):
            return
        with self.span("bench.check"):
            try:
                msg = check(outs)
            except Exception as exc:
                msg = f"pooled check raised {type(exc).__name__}: {exc}"
            if msg:
                self.failures.append((key, f"pooled: {msg}"))

    def cli(self, argv, check, config=None):
        """One in-process ``cli.main`` call with its config and outputs in a temp dir.

        ``{tmp}`` in ``argv`` names that dir, which holds ``config.json`` when
        ``config`` is given; ``check(tmp)`` reads what the call wrote.
        """
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if config is not None:
                (Path(tmp) / "config.json").write_text(json.dumps({"model": config}))
            argv = [a.replace("{tmp}", tmp) for a in argv]
            self.op("cli.main", lambda: cli.main(argv),
                    lambda rc: f"exit code {rc}" if rc != 0 else check(Path(tmp)))

    def self_times(self):
        """Self time per layer: span time not covered by child spans."""
        child = [0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child[sid]) * 1e-9
        return out

    def durations(self):
        out = {}
        for _, _, name, start, end in self.spans:
            out.setdefault(name, []).append((end - start) * 1e-9)
        return out

    def write_spans(self, fh, round_label):
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"run": self.run_id, "round": round_label, "id": sid, "parent": parent,
                                 "name": name, "start_ns": start, "end_ns": end}) + "\n")


def jitter(rng, values):
    """Multiply each parameter by an independent factor in [1 - 1e-3, 1 + 1e-3]."""
    return tuple(float(v) * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0)) for v in values)


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Criterion-6 model and requests (lattice_mc and lattice_exact share them).


def criterion6(rng):
    m6 = model.QHahnModel(q=0.6, mu=jitter(rng, (2.4, 2.5, 2.6)), kappa=jitter(rng, (1.25, 1.3)),
                          lam=jitter(rng, (0.16, 0.18)), colors=(1, 1))
    reqs = [model.HeightRequest.make(xs, ys, cs, Permutation(tau))
            for tau, xs, ys, cs in [((1,), [1.5], [2.5], [1]),
                                    ((1, 2), [0.5, 1.5], [2.5, 1.5], [1, 2]),
                                    ((2, 1), [0.5, 1.5], [2.5, 1.5], [1, 2])]]
    return m6, reqs


# ---------------------------------------------------------------------------
# lattice_mc: the three sampler regimes, checked against contour integrals.


def build_lattice_mc(seed, size):
    rng = np.random.default_rng([seed, 1])
    n = 5
    mu = jitter(rng, [2.3 + 0.02 * i for i in range(n + 1)])
    kap = jitter(rng, (1.30, 1.34, 1.38, 1.42, 1.46))
    lam = jitter(rng, (0.20, 0.22, 0.24, 0.26, 0.28))
    model_a = model.QHahnModel(q=0.55, mu=mu, kappa=kap, lam=lam, colors=(1,) * n)
    model_b = model.QHahnModel(q=0.55, mu=mu, kappa=(kap[3], kap[2], kap[0], kap[1], kap[4]),
                               lam=(lam[2], lam[0], lam[1], lam[3], lam[4]), colors=(1,) * n)
    m6, reqs6 = criterion6(rng)
    pm = polymer.PolymerModel(jitter(rng, (1.1, 1.3, 0.9, 1.2)), jitter(rng, (0.1, 0.3, 0.2)),
                              jitter(rng, (-0.9, -1.1, -0.7)))
    cli_model = {"q": 0.6, "mu": list(m6.mu), "kappa": list(m6.kappa), "lam": list(m6.lam), "colors": [1, 1]}
    return {
        "seed": seed,
        "size": size,
        "shift": (model_a, model.HeightRequest.make([1.5, 1.5], [4.5, 4.5], [1, 3], Permutation.identity(2)),
                  model_b, model.HeightRequest.make([1.5, 1.5], [4.5, 2.5], [1, 1], Permutation.identity(2))),
        "n2": (m6, reqs6),
        "bridge": (polymer.qhahn_bridge_model(pm, 0.01, 3), model.HeightRequest.make([1.5], [3.5], [2])),
        "cli_config": cli_model,
    }


def run_lattice_mc(p, inp):
    size, seed = inp["size"], inp["seed"]
    model_a, req_a, model_b, req_b = inp["shift"]
    r = size["shift_samples"]
    reps = [p.op("model.verify_shift_invariance",
                 lambda: model.verify_shift_invariance(model_a, req_a, model_b, req_b, r, spawn_rng(seed, 1400 + i)),
                 lambda rep: gate("integral diff", rep.integral_diff, 1e-8),
                 lambda rep: {"replicas": 2 * r})
            for i in range(size["shift_calls"])]

    def check_shift(reps):
        (ma, sa), (mb, sb) = (pooled([rep.joint[side] for rep in reps]) for side in (0, 1))
        return gate("joint z", abs(ma - mb) / math.hypot(sa, sb), 4.0)

    p.pooled_check("model.verify_shift_invariance", reps, check_shift)

    m6, reqs6 = inp["n2"]
    qm, req_b1 = inp["bridge"]
    cases = ([("n2", m6, req, size["n2_calls"], size["n2_samples"]) for req in reqs6]
             + [("bridge", qm, req_b1, size["bridge_calls"], size["bridge_samples"])])
    for idx, (case, mdl, req, calls, r) in enumerate(cases):
        key = f"model.estimate_qmoment.{case}"
        ref = p.op(f"moments.qmoment_integral.k{req.k}", lambda: moments.qmoment_integral(mdl, req, with_info=True),
                   quad_converged, quad_counts)
        ests = [p.op(key, lambda: model.estimate_qmoment(mdl, req, r, spawn_rng(seed, 6000 + 100 * idx + i)),
                     lambda est: None if math.isfinite(est[0]) and est[1] > 0 else f"estimate {est}",
                     lambda est: {"replicas": r})
                for i in range(calls)]

        def check_estimate(ests):
            mean, se = pooled(ests)
            return gate("z vs integral", abs(mean - ref[0].real) / se, 4.0)

        if ref is not None:
            p.pooled_check(key, ests, check_estimate)

    n_samples = size["cli_samples"]

    def check_sample(tmp):
        rows = (tmp / "h.csv").read_text().splitlines()
        want = 1 + n_samples * m6.n_colors * (m6.size + 1) ** 2
        if len(rows) != want:
            return f"{len(rows)} CSV lines, expected {want}"
        return None if read_jsonl(tmp / "m.jsonl")[-1]["seed"] == seed else "manifest seed mismatch"

    p.cli(["sample", "qhahn", "--config", "{tmp}/config.json", "--samples", str(n_samples), "--seed", str(seed),
           "--output", "{tmp}/h.csv", "--manifest", "{tmp}/m.jsonl"], check_sample, inp["cli_config"])


# ---------------------------------------------------------------------------
# lattice_exact: exact enumeration, quadrature at k = 1..3, exact verifiers.


def build_lattice_exact(seed, size):
    rng = np.random.default_rng([seed, 2])
    m6, reqs6 = criterion6(rng)
    n = 3
    m5 = model.QHahnModel(q=0.85, mu=jitter(rng, [2.4 + 0.01 * i for i in range(n + 1)]),
                          kappa=jitter(rng, [2.0 + 0.02 * j for j in range(n)]),
                          lam=jitter(rng, [0.2 + 0.01 * d for d in range(n)]), colors=(1,) * n)
    # criterion 5's draws: three requests each at k = 1, 2 and its second k = 3 request
    draw = spawn_rng(505)
    base = []
    for k, count in ((1, 3), (2, 3), (3, 2)):
        for _ in range(count):
            cs = sorted(int(draw.integers(1, 4)) for _ in range(k))
            ys = sorted((int(draw.integers(0, 4)) + 0.5 for _ in range(k)), reverse=True)
            tau = list(draw.permutation(k) + 1)
            base.append(model.HeightRequest.make([0.5] * k, ys, cs, Permutation(tau)))
    del base[6]

    exact_rng = spawn_rng(seed, 101)
    ybe = [(kind,) + weights.random_ybe_instance(kind, exact_rng, colors=2, max_entry=2)
           for kind in weights.YBE_KINDS for _ in range(size["ybe_draws"])]

    def frac():
        return Fraction(int(exact_rng.integers(1, 8)), int(exact_rng.integers(9, 17)))

    def comp(n, hi):
        return tuple(int(v) for v in exact_rng.integers(0, hi, size=n))

    outgoing = [(comp(2, 3), comp(2, 3), frac(), frac(), frac()) for _ in range(size["outgoing_draws"])]
    local = []
    for _ in range(size["local_draws"]):
        k = int(exact_rng.integers(1, 4))
        a, b, r = comp(k, 3), comp(k, 3), comp(k, 2)
        while sum(r) > 4:
            r = comp(k, 2)
        local.append((a, b, r, frac(), frac(), frac()))
    return {"seed": seed, "size": size, "c6": (m6, reqs6), "c5": (m5, base), "ybe": ybe,
            "outgoing": outgoing, "local": local, "hecke_rng": spawn_rng(seed, 404)}


def run_lattice_exact(p, inp):
    size, seed = inp["size"], inp["seed"]
    m6, reqs6 = inp["c6"]
    for req in reqs6:
        ex = p.op("model.enumerate_exact", lambda: model.enumerate_exact(m6, req, tol=ENUM_TOL),
                  lambda out: gate("tail bound", out[1], ENUM_TOL), lambda out: {"tail": out[1]})
        p.op(f"moments.qmoment_integral.k{req.k}", lambda: moments.qmoment_integral(m6, req, with_info=True),
             lambda out: quad_converged(out) or gate("rel vs enumeration", rel(out[0], ex[0]), 1e-6), quad_counts)

    m5, base = inp["c5"]
    for req in base:
        target = p.op("model.base_case_product", lambda: model.base_case_product(m5, req),
                      lambda v: None if v > 0 and math.isfinite(v) else f"product {v}")
        p.op(f"moments.qmoment_integral.k{req.k}",
             lambda: moments.qmoment_integral(m5, req, rtol=3e-9 if req.k == 3 else None, with_info=True),
             lambda out: quad_converged(out) or gate("rel vs base product", rel(out[0], target), 1e-8), quad_counts)

    for kind, boundary, params in inp["ybe"]:
        p.op("weights.ybe_residual", lambda: weights.ybe_residual(kind, boundary, params),
             lambda res: None if res == 0 else f"{kind} residual {res}")
    for a, b, q, tt, ss in inp["outgoing"]:
        p.op("weights.qhahn_outgoing", lambda: weights.qhahn_outgoing(a, b, q, tt, ss),
             lambda out: None if sum(out.values()) == 1 else f"total weight {sum(out.values())}")
    for a, b, r, q, tt, ss in inp["local"]:
        p.op("weights.local_relation_residual", lambda: weights.local_relation_residual(a, b, r, q, tt, ss),
             lambda res: None if res == 0 else f"residual {res}")
    p.op("hecke.hecke_suite", lambda: hecke.hecke_suite(4, 0.44, inp["hecke_rng"], npoints=size["hecke_points"]),
         lambda errs: gate("worst relation error", max(errs.values()), 1e-10))

    trials = size["cli_trials"]

    def check_verify(tmp):
        summary = read_jsonl(tmp / "v.jsonl")[-1]["summary"]
        return None if summary == {"kind": "qhahn", "trials": trials, "nonzero_residuals": 0} else str(summary)

    p.cli(["verify", "ybe", "--kind", "qhahn", "--trials", str(trials), "--seed", str(seed),
           "--output", "{tmp}/v.jsonl"], check_verify)


# ---------------------------------------------------------------------------
# polymer_laplace: the linear-space DP over many shallow replicas, the
# criterion-7 oracles, the Laplace-transform determinants and polymer moments.


def build_polymer_laplace(seed, size):
    rng = np.random.default_rng([seed, 3])
    pm10 = polymer.PolymerModel(jitter(rng, (1.30, 1.26, 1.33)), jitter(rng, (0.20, 0.28, 0.24, 0.26, 0.22)),
                                jitter(rng, (-1.6, -1.75, -1.68, -1.7, -1.72)))
    pm8 = polymer.PolymerModel(jitter(rng, (1.3, 1.25, 1.28, 1.27)), jitter(rng, (0.2, 0.3, 0.25, 0.27)),
                               jitter(rng, (-4.2, -4.3, -4.1, -4.25)))
    pm7 = polymer.PolymerModel(jitter(rng, [1.0 + 0.04 * (i % 3) for i in range(7)]),
                               jitter(rng, [0.1 + 0.05 * (j % 2) for j in range(6)]),
                               jitter(rng, [-1.0 - 0.07 * (d % 3) for d in range(6)]))
    cli_model = {"sigma": list(pm10.sigma_list), "rho": list(pm10.rho_list), "omega": list(pm10.omega_list)}
    return {"seed": seed, "size": size, "pm10": pm10, "pm8": pm8, "pm7": pm7, "cli_config": cli_model}


def run_polymer_laplace(p, inp):
    size, seed = inp["size"], inp["seed"]
    pm10, pm8, pm7 = inp["pm10"], inp["pm8"], inp["pm7"]
    x, y, reps = 2, 5, size["replicas"]
    chunks = [p.op("polymer.sample_partition_values",
                   lambda: polymer.sample_partition_values(pm10, 0, x, y, reps, seed=seed * 1000 + 10 + i),
                   lambda v: None if v.shape == (reps,) and bool(((v > 0) & (v <= 1)).all()) else "values outside (0, 1]",
                   lambda v: {"replicas": reps, "replica_cells": reps * (x + 1) * y})
              for i in range(size["dp_calls"])]
    vals = None if any(v is None for v in chunks) else np.concatenate(chunks)
    for u in LAPLACE_U:
        series = p.op("fredholm.laplace_series_det", lambda: fredholm.laplace_series_det(pm10, x, y, u),
                      lambda d: None if 0 < d.real <= 1 else f"det {d}")

        def check_mb(out):
            emp = float(np.exp(u * vals).mean())
            return gate("|series - MB|", abs(series - out[0]), 1e-6) or gate("MB vs MC rel", rel(out[0].real, emp), 1e-2)

        p.op("fredholm.mb_determinant", lambda: fredholm.mb_determinant(pm10, x, y, u, with_info=True), check_mb,
             lambda out: {"nodes": out[1]["nodes"], "nodes_L": out[1]["nodes_L"], "T": out[1]["T"]})

    x, y, reps = 1, 3, size["moment_replicas"]
    parts = [p.op("polymer.mc_statistics",
                  lambda: polymer.mc_statistics(pm8, 0, x, y, reps, seed=seed * 1000 + 8 + 100 * i, mode="moments",
                                                max_power=3),
                  lambda st: None if all(se > 0 for _, se in st.moments.values()) else "zero standard error",
                  lambda st: {"replicas": reps})
             for i in range(size["moment_calls"])]
    # moment k: (mean, se) pooled over the calls
    mc_moments = None if any(st is None for st in parts) else {k: pooled([st.moments[k] for st in parts])
                                                                for k in (1, 2, 3)}
    for k in (1, 2, 3):
        annealed = p.op("polymer.moment_annealed", lambda: polymer.moment_annealed(pm8, x, y, 0, k),
                        lambda v: None if v > 0 else f"moment {v}")

        def check_nested(out):
            mean, se = mc_moments[k]
            return (quad_converged(out) or gate("rel vs annealed", rel(out[0], annealed), 1e-7)
                    or gate("z vs Monte Carlo", abs(out[0].real - mean) / se, 4.0))

        nested = p.op(f"moments.beta_moment_integral.k{k}",
                      lambda: moments.beta_moment_integral(pm8, [x] * k, [y] * k, [0] * k, with_info=True),
                      check_nested, quad_counts)
        if k >= 2:
            p.op("moments.single_contour_moment", lambda: moments.single_contour_moment(pm8, x, y, k),
                 lambda v: gate("nested vs single rel", rel(nested[0], v), 1e-7))

    for e in range(size["environments"]):
        env = p.op("polymer.sample_environment", lambda: polymer.sample_environment(pm7, 6, 6, spawn_rng(seed, 700 + e)),
                   lambda env: None if env.eta.shape == (7, 7) else "wrong environment shape")
        for r, x, y in ((0, 3, 6), (0, 2, 5), (1, 2, 6)):
            z_dp = p.op("polymer.partition_dp", lambda: polymer.partition_dp(env, r, x, y).value(x, y),
                        lambda z: None if 0 < z <= 1 else f"Z = {z}")
            p.op("polymer.partition_bruteforce", lambda: polymer.partition_bruteforce(env, r, x, y),
                 lambda z: gate("|DP - path sum|", abs(z - z_dp), 1e-13))
            p.op("polymer.rwre_hitting", lambda: polymer.rwre_hitting(env, r, x, y),
                 lambda z: gate("|DP - walk|", abs(z - z_dp), 1e-13))

    def check_mb_cli(tmp):
        rec = read_jsonl(tmp / "f.jsonl")[0]
        return gate("CLI |series - MB|", rec["abs_diff"], 1e-6)

    p.cli(["fredholm", "mb-check", "--config", "{tmp}/config.json", "--x", "2", "--y", "5", "--u", "-2.0",
           "--output", "{tmp}/f.jsonl"], check_mb_cli, inp["cli_config"])


# ---------------------------------------------------------------------------
# tracy_widom: what `qhahn-polymer tw --workers 1` does in a fresh process.


def build_tracy_widom(seed, size):
    rng = np.random.default_rng([seed, 4])
    fm = asymptotics.FreqModel.homogeneous(sigma=0.0, rho=-1.0, omega=-2.0)
    const = asymptotics.theta_constants(fm, TW_THETA)
    shapes = {t: asymptotics.scheduled_polymer_model(fm, const, t)[1:] for t in TW_TIMES}
    fm_gen = asymptotics.FreqModel(sigma=(0.0, 0.15), alpha=(0.6, 0.4), rho=(-1.0, -1.2), beta=(0.5, 0.5),
                                   omega=(-2.0, -2.5), gamma=(0.7, 0.3))
    fm_ass = asymptotics.FreqModel(sigma=(0.0,), alpha=(1.0,), rho=(-1.0,), beta=(1.0,),
                                   omega=(-1.5, -3.0), gamma=(0.5, 0.5))
    hf_gen = asymptotics.HFunction(fm_gen, asymptotics.theta_constants(fm_gen, 0.8))
    hf_ass = asymptotics.HFunction(fm_ass, asymptotics.theta_constants(fm_ass, 0.3))
    offset = float(rng.uniform(0.0, 0.25))
    return {"seed": seed, "size": size, "fm": fm, "shapes": shapes,
            "grid": [-6.0 + offset + 0.25 * i for i in range(41)],
            "descent": [(hf_gen, "line", {}), (hf_ass, "circle", {}), (hf_ass, "arcs", {"eps": 0.05})],
            "cli_config": {"sigma": [0.0], "alpha": [1.0], "rho": [-1.0], "beta": [1.0],
                           "omega": [-2.0], "gamma": [1.0]}}


def cold_tracy_widom(p, inp):
    """The F2 table: built once per process, as a fresh `tw` process pays it."""

    def check_table(out):
        grid, vals = out
        if len(grid) != 291 or not bool((np.diff(vals) >= -1e-12).all()):
            return f"{len(grid)} points or not monotone"
        return gate("F2(-8.5)", vals[0], 1e-8) or gate("1 - F2(6)", 1.0 - vals[-1], 1e-8)

    fredholm.tracy_widom_cdf_table.cache_clear()
    p.op("fredholm.tracy_widom_cdf_table", fredholm.tracy_widom_cdf_table, check_table,
         lambda out: {"points": len(out[0])})


def run_tracy_widom(p, inp):
    size, seed = inp["size"], inp["seed"]
    prev = 0.0
    for r in inp["grid"]:
        val = p.op("fredholm.tracy_widom_F2", lambda: fredholm.tracy_widom_F2(r),
                   lambda v: None if prev - 1e-12 <= v <= 1.0 else f"F2({r:.3f}) = {v} not monotone")
        prev = prev if val is None else val
    for r in (-2.0, 0.0, 2.0):
        coarse = p.op("fredholm.tracy_widom_F2.refine", lambda: fredholm.tracy_widom_F2(r, nodes=96),
                      lambda v: None if 0.0 <= v <= 1.0 else f"F2 = {v}")
        p.op("fredholm.tracy_widom_F2.refine", lambda: fredholm.tracy_widom_F2(r, nodes=192),
             lambda v: gate("refinement", abs(v - coarse), 1e-8))
    p.op("fredholm.tracy_widom_F2.refine", lambda: fredholm.tracy_widom_F2(10.0),
         lambda v: gate("1 - F2(10)", abs(1.0 - v), 1e-10))

    reps = size["tw_replicas"]
    for t in TW_TIMES:
        big_x, big_y = inp["shapes"][t]
        p.op(f"asymptotics.tw_experiment.t{t}",
             lambda: asymptotics.tw_experiment(inp["fm"], TW_THETA, [t], reps, seed=seed, workers=1)[0],
             lambda b: None if b.ks <= 0.15 and math.isfinite(b.mean) else f"KS({t}) = {b.ks:.4f}",
             lambda b: {"replicas": reps, "replica_cells": reps * (big_x + 1) * big_y, "ks": b.ks})

    for hf, which, kw in inp["descent"]:
        p.op("asymptotics.check_steep_descent", lambda: asymptotics.check_steep_descent(hf, which, grid=200, **kw),
             lambda out: None if out[0] else f"{which} profile check failed")

    def check_tw_cli(tmp):
        recs = read_jsonl(tmp / "t.jsonl")
        return None if recs[0]["ks"] <= 0.15 and recs[-1]["workers"] == 1 else f"KS {recs[0]['ks']:.4f}"

    p.cli(["tw", "--workers", "1", "--t", "64", "--samples", str(size["cli_samples"]), "--seed", str(seed),
           "--config", "{tmp}/config.json", "--output", "{tmp}/t.jsonl"], check_tw_cli, inp["cli_config"])


BUILD = {"lattice_mc": build_lattice_mc, "lattice_exact": build_lattice_exact,
         "polymer_laplace": build_polymer_laplace, "tracy_widom": build_tracy_widom}
RUN = {"lattice_mc": run_lattice_mc, "lattice_exact": run_lattice_exact,
       "polymer_laplace": run_polymer_laplace, "tracy_widom": run_tracy_widom}
COLD = {"tracy_widom": cold_tracy_widom}
MIN_ROUNDS = 2


def runtime_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def round_record(p, wall):
    rec = {"wall_s": wall, "traced": p.trace, "calls": p.calls, "probes": p.probes, "ops": p.ops,
           "failures": p.failures, "counts": p.counts}
    if p.trace:
        rec.update(durations=p.durations(), self_s=p.self_times(), spans=len(p.spans))
    return rec


def timed(p, fn, inp, name):
    t0 = time.perf_counter()
    with p.span(name):
        fn(p, inp)
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="time budget for the rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.monotonic()
    size = SIZES[args.workload][args.size]
    inp = BUILD[args.workload](args.seed, size)
    ready_at = time.time()
    if args.setup_only:
        # probes after the set-up, to express it at the reference speed
        print(json.dumps({"ready_at": ready_at, "probes": [speed_probe() for _ in range(PROBE_BURST)]}))
        return 0

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    cold = Pass(bool(args.trace), run_id)
    cold.probe(PROBE_BURST)
    cold_wall = timed(cold, COLD[args.workload], inp, "bench.cold") if args.workload in COLD else 0.0
    passes, walls = [], []
    while True:
        if passes:
            inp = BUILD[args.workload](args.seed, size)
        p = Pass(bool(args.trace) and len(passes) % 2 == 1, run_id)
        walls.append(timed(p, RUN[args.workload], inp, f"bench.{args.workload}"))
        passes.append(p)
        # stop when another round would likely end past the budget
        if len(passes) >= MIN_ROUNDS and time.monotonic() - start + sorted(walls)[len(walls) // 2] > args.seconds:
            break

    for q in [cold] + passes:
        for key, msg in q.failures:
            print(f"FAIL {key}: {msg}", file=sys.stderr)
    out = {
        "ready_at": ready_at,
        "cold": round_record(cold, cold_wall),
        "rounds": [round_record(q, wall) for q, wall in zip(passes, walls)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runtime": runtime_info(),
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for label, q in [("cold", cold)] + list(enumerate(passes)):
                if q.trace:
                    q.write_spans(fh, label)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
