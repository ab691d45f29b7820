"""Delayed inhomogeneous Beta polymer: environment, DP, oracles, Monte Carlo.

The partition function Z^(r)_{x,y} sums directed paths from (0, r) to (x, y)
over products of Beta-environment edge weights, starting at the first vertical
step.  Equivalently it is the conditional hitting probability of a random walk
in the same Beta environment; both descriptions are implemented and serve as
mutual oracles.  The third oracle is one annealed-walker transfer matrix,
``joint_moment_annealed``: walkers with their own delays in a shared Beta
environment give the joint integer moments, exactly for rational parameters;
``moment_annealed`` is its case of k identical walkers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .qtools import spawn_rng

__all__ = [
    "PolymerModel",
    "Environment",
    "PartitionField",
    "schedule_values",
    "sample_environment",
    "partition_dp",
    "partition_bruteforce",
    "rwre_hitting",
    "moment_annealed",
    "joint_moment_annealed",
    "sample_partition_values",
    "sample_log_partition",
    "mc_statistics",
    "MCStats",
    "qhahn_bridge_model",
    "usable_cpus",
]


def schedule_values(values, freqs, count):
    """Deterministic finite schedule: value i fills round(freq_i * count)
    consecutive slots, the last value absorbing the rounding remainder."""
    values = list(values)
    freqs = [float(f) for f in freqs]
    if abs(sum(freqs) - 1.0) > 1e-12 or any(f < 0 for f in freqs):
        raise ValueError("frequencies must be nonnegative and sum to 1")
    counts = [int(round(f * count)) for f in freqs[:-1]]
    counts.append(count - sum(counts))
    if counts[-1] < 0:
        raise ValueError("rounding produced a negative slot count")
    out = []
    for v, c in zip(values, counts):
        out.extend([v] * c)
    return tuple(out)


@dataclass
class PolymerModel:
    """Explicit parameter schedules; sigma is indexed from 0, rho/omega from 1."""

    sigma_list: tuple
    rho_list: tuple
    omega_list: tuple

    def __post_init__(self):
        self.sigma_list = tuple(self.sigma_list)
        self.rho_list = tuple(self.rho_list)
        self.omega_list = tuple(self.omega_list)
        w_hi = max(self.omega_list)
        r_lo, r_hi = min(self.rho_list), max(self.rho_list)
        s_lo = min(self.sigma_list)
        if not (w_hi < r_lo and r_hi < s_lo):
            raise ValueError("need omega < rho < sigma across all scheduled values")

    def sigma(self, i):
        if not 0 <= i < len(self.sigma_list):
            raise IndexError(f"sigma index {i} outside the schedule")
        return self.sigma_list[i]

    def rho(self, j):
        if not 1 <= j <= len(self.rho_list):
            raise IndexError(f"rho index {j} outside the schedule")
        return self.rho_list[j - 1]

    def omega(self, d):
        if not 1 <= d <= len(self.omega_list):
            raise IndexError(f"omega index {d} outside the schedule")
        return self.omega_list[d - 1]

    def corner_slots(self, x, y):
        """The slots of the corner (x, y): (sigma_0..sigma_x), (rho_1..rho_y), (omega_1..omega_{y-x})."""
        return (tuple(map(self.sigma, range(0, x + 1))), tuple(map(self.rho, range(1, y + 1))),
                tuple(map(self.omega, range(1, y - x + 1))))

    def beta_shapes(self, i, j):
        return self.sigma(i) - self.rho(j), self.rho(j) - self.omega(j - i)


@dataclass
class Environment:
    """Sampled eta field on the triangle 0 <= i <= x_max, i < j <= y_max."""

    x_max: int
    y_max: int
    eta: np.ndarray  # shape (x_max+1, y_max+1); NaN where not sampled

    def value(self, i, j):
        v = self.eta[i, j]
        if np.isnan(v):
            raise IndexError(f"environment not sampled at {(i, j)}")
        return float(v)


def beta_draws(rng, a, b, size=None):
    """Beta(a, b) variates; inverse-CDF fast path for a = 1, two-Gamma ratio otherwise.

    The a = 1 path takes all of ``size`` from one ``rng.random`` call, so a
    leading axis of rows consumes the stream as one call per row would, and
    returns 1 - (1 - w) ** (1/b).  With b = 1 as well it returns the uniforms
    w themselves, which is the same value: ``rng.random`` gives multiples of
    2**-53 in [0, 1), so 1 - w and 1 - (1 - w) are exact.  The two-Gamma path
    hands ``rng.standard_gamma`` contiguous shape arrays, which draws the same
    values as ``rng.gamma`` on the broadcast view, faster.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    if size is None:
        size = a_arr.shape
    if np.all(a_arr == 1.0):
        w = rng.random(size)
        if np.all(b_arr == 1.0):
            return w
        np.subtract(1.0, w, out=w)
        np.power(w, 1.0 / np.broadcast_to(b_arr, size), out=w)
        return np.subtract(1.0, w, out=w)
    # .copy(), not np.ascontiguousarray, which turns size () into shape (1,)
    g1 = rng.standard_gamma(np.broadcast_to(a_arr, size).copy())
    g2 = rng.standard_gamma(np.broadcast_to(b_arr, size).copy())
    out = g1 / np.maximum(g1 + g2, 1e-300)
    return np.clip(out, 1e-300, 1.0 - 1e-16)


def sample_environment(model, x_max, y_max, rng):
    """Independent Beta draws at every site of the triangle i < j."""
    eta = np.full((x_max + 1, y_max + 1), np.nan)
    for j in range(1, y_max + 1):
        for i in range(0, min(x_max, j - 1) + 1):
            a, b = model.beta_shapes(i, j)
            if a <= 0 or b <= 0:
                raise ValueError(f"nonpositive Beta shapes at {(i, j)}")
            eta[i, j] = beta_draws(rng, a, b, size=())
    return Environment(x_max=x_max, y_max=y_max, eta=eta)


@dataclass
class PartitionField:
    r: int
    table: np.ndarray  # (x_max+1, y_max+1), NaN outside the domain

    def value(self, x, y):
        v = self.table[x, y]
        if np.isnan(v):
            raise IndexError(f"partition function undefined at {(x, y)}")
        return float(v)


def partition_dp(env, r, x_max=None, y_max=None):
    """Dynamic-programming table of Z^(r) on 0 <= x <= x_max, x + r <= y <= y_max."""
    if x_max is None:
        x_max = env.x_max
    if y_max is None:
        y_max = env.y_max
    if x_max + r > y_max:
        raise IndexError("domain requires r <= y_max - x_max")
    Z = np.full((x_max + 1, y_max + 1), np.nan)
    for t in range(0, min(x_max, y_max - r) + 1):
        Z[t, r + t] = 1.0
    for y in range(r + 1, y_max + 1):
        for x in range(0, min(x_max, y - r - 1) + 1):
            e = env.value(x, y)
            up = Z[x, y - 1]
            diag = Z[x - 1, y - 1] if x >= 1 else 0.0
            Z[x, y] = e * up + (1.0 - e) * diag
    return PartitionField(r=r, table=Z)


_BRUTEFORCE_PATHS = 100_000


def partition_bruteforce(env, r, x, y):
    """Delayed path sum over all directed lattice paths (0, r) -> (x, y), at most ``_BRUTEFORCE_PATHS``."""
    n_steps = y - r
    n_diag = x
    if n_steps < n_diag or n_diag < 0:
        raise ValueError("no admissible paths")
    if math.comb(n_steps, n_diag) > _BRUTEFORCE_PATHS:
        raise ValueError("path count exceeds the brute-force guard")
    import itertools

    total = 0.0
    for diag_steps in itertools.combinations(range(n_steps), n_diag):
        diag_set = set(diag_steps)
        fp = None  # first vertical step index
        for s in range(n_steps):
            if s not in diag_set:
                fp = s
                break
        weight = 1.0
        cx, cy = 0, r
        for s in range(n_steps):
            if s in diag_set:
                cx, cy = cx + 1, cy + 1
            else:
                cy = cy + 1
            if fp is None or s < fp:
                continue  # delayed steps contribute no weight
            if s in diag_set:
                weight *= 1.0 - env.value(cx, cy)
            else:
                weight *= env.value(cx, cy)
        total += weight
    return total


def rwre_hitting(env, r, x, y):
    """P(X_{y-r} >= -r) for the conditioned walk, by exact distribution sweep.

    The walk starts at lattice point (x, y) and steps down-left or down with
    probabilities read from the same environment.  Columns never increase, so
    column < 0 is an absorbing failure, while a walker with i >= j - r can no
    longer fail and is absorbed as a success (this is the polymer's diagonal
    boundary; the environment on j <= i is never consulted).
    """
    done = 0.0
    probs = {x: 1.0}
    for j in range(y, r, -1):
        nxt = {}
        for i, p in probs.items():
            if i >= j - r:
                done += p
                continue
            e = env.value(i, j)
            nxt[i] = nxt.get(i, 0.0) + p * e
            if i - 1 >= 0:
                nxt[i - 1] = nxt.get(i - 1, 0.0) + p * (1.0 - e)
        probs = nxt
    return done + sum(probs.values())


def _rising(a, n):
    out = a * 0 + 1
    for m in range(n):
        out = out * (a + m)
    return out


def moment_annealed(model, x, y, r, k, exact=False):
    """E[(Z^(r)_{x,y})^k]: k identical walkers in ``joint_moment_annealed``."""
    return joint_moment_annealed(model, [(x, y, r)] * k, exact=exact)


def joint_moment_annealed(model, specs, exact=False):
    """E[prod_a Z^(r_a)_{x_a, y_a}] by the annealed multi-walker transfer matrix.

    Each factor contributes one walker entering at row y_a in column x_a; a
    walker is absorbed as a success once its column reaches the safe region
    i >= j - r_a, and any walker at column < 0 kills the state.  Walkers
    sharing a cell share its Beta variable, so joint steps integrate to ratios
    of rising factorials.  Walkers with equal delay are exchangeable: a state
    holds, per delay, the sorted columns of its live walkers.  Exact rationals
    when requested and the parameters are Fractions.
    """
    one = Fraction(1) if exact else 1.0
    specs = list(specs)
    delays = sorted({r for _, _, r in specs})
    entering = {}
    for x, y, r in specs:
        entering.setdefault(y, []).append((delays.index(r), x))

    @lru_cache(maxsize=None)
    def column_moves(i, j, counts):
        """(stayers per delay, weight) for the walkers in cell (i, j), counts per delay."""
        a, b = model.beta_shapes(i, j)
        if exact:
            a, b = Fraction(a), Fraction(b)
        m = sum(counts)
        out = []
        for stay in product(*(range(mc + 1) for mc in counts)):
            v = sum(stay)
            if i > 0 or v == m:  # a walker leaving column 0 kills the state
                w = _rising(a, v) * _rising(b, m - v) / _rising(a + b, m)
                out.append((stay, w * math.prod(map(math.comb, counts, stay))))
        return out

    states = {((),) * len(delays): one}
    for j in range(max(entering, default=0), 0, -1):
        nxt = {}
        for state, p in states.items():
            live = [list(cols) for cols in state]
            for c, x in entering.get(j, ()):
                live[c].append(x)
            counts = {}
            for c, (cols, r) in enumerate(zip(live, delays)):
                for i in cols:
                    if i < j - r:  # walkers with i >= j - r are certain successes; drop them
                        counts.setdefault(i, [0] * len(delays))[c] += 1
            # columns in ascending order keep every delay's tuple sorted
            branches = [(((),) * len(delays), p)]
            for i in sorted(counts):
                cnt = tuple(counts[i])
                branches = [
                    (tuple(cols + (i - 1,) * (m - v) + (i,) * v for cols, m, v in zip(prev, cnt, stay)), w * wm)
                    for prev, w in branches for stay, wm in column_moves(i, j, cnt)
                ]
            for key, w in branches:
                nxt[key] = nxt.get(key, 0 * one) + w
        states = nxt
    return sum(states.values(), 0 * one)


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo over environments.


# Rows per batched uniform draw, and rows between renormalisations of the
# column exponents once the diagonal has left the window.
_ROW_CHUNK = 8


def _dp_block(model, r, x, y, n_block, rng, want_log):
    """DP over a block of replicas; returns ln Z (or Z) at the corner (x, y).

    The state is column-major, shape (x+1, n_block).  Each column of each
    replica keeps a power-of-two exponent, Z = s * 2**E, so the update of
    column c is eta s[c] + (1 - eta) s[c-1] 2**(E[c-1] - E[c]).  ``np.frexp``
    renormalises s every ``_ROW_CHUNK`` rows, and on every row while the
    diagonal boundary cell (= 1) is inside the window.  Scaling by a power of
    two is exact, so the values equal the unscaled recurrence wherever that
    stays in float range, and stay in float range for any depth; linear mode
    raises if a corner value falls below the normal float range.

    The draws are those of ``beta_draws`` row by row, in the same order, from
    shapes sliced out of the sigma, rho and omega schedules built once per
    call.  Full-width rows go ``_ROW_CHUNK`` at a time: with a = 1 in every
    cell of the chunk one call draws them all, which consumes the stream as
    one call per row does.  Where a = b = 1 in every cell of a chunk or of a
    window row, Beta(1, 1), the eta are the uniforms themselves, drawn by
    ``rng.random`` into one buffer per call; ``beta_draws`` returns the same
    values (see there), so the result is bit for bit what it gives.
    """
    band = y - x
    if band == 0:
        return np.zeros(n_block) if want_log else np.ones(n_block)
    if band > len(model.omega_list):
        raise IndexError("omega schedule shorter than the diagonal range y - x")
    if x > y - r:
        raise IndexError("corner outside the domain: need r <= y - x")
    # the schedules once per call: rho[k] is row y = r + 1 + k, and cell
    # (x', y) takes omega_at[y - x'], omega_{y - x'} with the index clamped to
    # 1..band; out-of-band cells (y - x' > band) never reach the corner, and
    # clamping keeps the vector draw simple
    sigma = np.array(list(map(model.sigma, range(0, x + 1))))
    rho = np.array(list(map(model.rho, range(r + 1, y + 1))))[:, None]
    omega = np.array(list(map(model.omega, range(1, band + 1))))
    omega_at = omega[np.clip(np.arange(y + 1), 1, band) - 1]
    buf = None  # the Beta(1, 1) uniforms; allocated at the first such row, so other models never hold it

    def draws(k0, k1, m):
        """The eta of rows k0..k1-1 on columns 0..m-1: shape (k1 - k0, n_block, m), or one array per row."""
        nonlocal buf
        a = sigma[:m] - rho[k0:k1]
        b = rho[k0:k1] - omega_at[np.arange(r + 1 + k0, r + 1 + k1)[:, None] - np.arange(m)]
        if not (a == 1.0).all():
            return [beta_draws(rng, ak, bk, size=(n_block, m)) for ak, bk in zip(a, b)]
        if not (b == 1.0).all():
            return beta_draws(rng, 1.0, b[:, None, :], size=(k1 - k0, n_block, m))
        if buf is None:
            buf = np.empty(_ROW_CHUNK * n_block * (x + 1))
        out = buf[: (k1 - k0) * n_block * m].reshape(k1 - k0, n_block, m)
        rng.random(out=out)  # Beta(1, 1): the uniforms themselves, as in beta_draws
        return out

    s = np.zeros((x + 1, n_block))
    s[0] = 1.0  # Z_{0, r} = 1
    E = np.zeros((x + 1, n_block), dtype=np.intc)
    ex = np.empty_like(E)
    ratio = np.ones((x + 1, n_block))  # 2**(E[c-1] - E[c]) for column c >= 1
    eta = np.empty((x + 1, n_block))
    tmp = np.empty((x + 1, n_block))

    def step(draw, m, cols):
        """One row of width m: columns 1..cols-1 by the recurrence, column 0 by eta."""
        np.copyto(eta[:m], draw.T)
        diag = np.subtract(1.0, eta[1:cols], out=tmp[1:cols])
        diag *= ratio[1:cols]
        diag *= s[: cols - 1]
        s[1:cols] *= eta[1:cols]
        s[1:cols] += diag
        s[0] *= eta[0]

    def renormalise(m):
        np.frexp(s[:m], out=(s[:m], ex[:m]))
        E[:m] += ex[:m]
        np.subtract(E[: m - 1], E[1:m], out=ex[1:m])
        np.ldexp(1.0, ex[1:m], out=ratio[1:m])

    # while the diagonal is inside the window, row i has width i + 2 and
    # ends in the boundary cell Z = 1
    for i in range(x):
        m = i + 2
        step(draws(i, i + 1, m)[0], m, m - 1)
        s[m - 1] = 1.0
        E[m - 1] = 0
        renormalise(m)
    m = x + 1
    for k0 in range(x, y - r, _ROW_CHUNK):
        for draw in draws(k0, min(k0 + _ROW_CHUNK, y - r), m):
            step(draw, m, m)
        renormalise(m)
    if want_log:
        return np.log(s[x]) + E[x] * math.log(2.0)
    vals = np.ldexp(s[x], E[x])
    if ((vals < np.finfo(float).tiny) & (s[x] > 0.0)).any():
        raise OverflowError("partition values underflow linear space; use log mode")
    return vals


def usable_cpus():
    """The CPUs this process may run on: its affinity set where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replica_blocks(model, r, x, y, samples, seed, block, want_log, workers):
    """Replica values in blocks of ``block``, block i drawn from spawn_rng(seed, i).

    The blocks run on ``min(workers, number of blocks)`` threads (``None``:
    ``usable_cpus()``); NumPy releases the interpreter lock inside the draws
    and the ufunc loops, and each block owns its generator.  Each block's
    values go to its own slice of the output, so they depend only on the seed
    and the block size, never on the worker count.
    """
    if workers is None:
        workers = usable_cpus()
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    starts = range(0, samples, block)
    counts = [min(block, samples - start) for start in starts]
    gens = [spawn_rng(seed, i) for i in range(len(counts))]
    run = partial(_dp_block, model, r, x, y, want_log=want_log)
    out = np.empty(samples)
    threads = min(workers, len(counts))
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        blocks = map(run, counts, gens) if pool is None else pool.map(run, counts, gens)
        for start, vals in zip(starts, blocks):
            out[start : start + vals.size] = vals
    return out


def sample_partition_values(model, r, x, y, samples, seed=0, block=4096, workers=None):
    """Replica values Z^(r)_{x,y} (linear space; raises ``OverflowError`` below the float range).

    ``workers`` threads run the blocks (``None``: ``usable_cpus()``); the
    values do not depend on it.
    """
    return _replica_blocks(model, r, x, y, samples, seed, block, want_log=False, workers=workers)


def sample_log_partition(model, r, x, y, samples, seed=0, block=256, workers=None):
    """Replica values ln Z^(r)_{x,y} (DP with a power-of-two exponent per column).

    The exponents keep every column in float range for any depth, so ln Z
    stays accurate where one row spans more than the float range: for the
    homogeneous model (sigma 0, rho -1, omega -2, theta 0.3) at t = 256 it
    agrees with extended precision on the same draws to about 2e-13.
    ``workers`` threads run the blocks (``None``: ``usable_cpus()``); the
    values do not depend on it.  The threads share out whole blocks, and a
    256-replica block is many short array operations, so on the a = 1 path
    two threads gain little.  On the homogeneous model (a = b = 1) the draws
    are the raw uniforms, which ``_dp_block`` explains.
    """
    return _replica_blocks(model, r, x, y, samples, seed, block, want_log=True, workers=workers)


@dataclass
class MCStats:
    mode: str
    n: int
    moments: dict = field(default_factory=dict)  # k -> (mean, stderr)
    log_mean: float = 0.0
    log_sd: float = 0.0
    samples: np.ndarray | None = None


def mc_statistics(model, r, x, y, samples, seed=0, mode="moments", max_power=3,
                  keep_samples=False, workers=None):
    """Monte Carlo statistics of Z or ln Z over independent environments.

    ``workers`` threads run the replica blocks (``None``: ``usable_cpus()``);
    the statistics do not depend on it.
    """
    if mode not in ("moments", "logZ"):
        raise ValueError("mode must be 'moments' or 'logZ'")
    if mode == "moments":
        vals = sample_partition_values(model, r, x, y, samples, seed=seed, workers=workers)
        moments = {}
        for k in range(1, max_power + 1):
            pk = vals**k
            moments[k] = (float(pk.mean()), float(pk.std(ddof=1) / math.sqrt(samples)))
        return MCStats(mode=mode, n=samples, moments=moments,
                       samples=vals if keep_samples else None)
    vals = sample_log_partition(model, r, x, y, samples, seed=seed, workers=workers)
    return MCStats(mode=mode, n=samples, log_mean=float(vals.mean()),
                   log_sd=float(vals.std(ddof=1)), samples=vals if keep_samples else None)


def qhahn_bridge_model(pmodel, eps, n_rows):
    """Matched q-Hahn model with q = exp(-eps) and distinct boundary colors."""
    from .model import QHahnModel

    q = math.exp(-eps)
    mu = tuple(q ** -pmodel.sigma(i) for i in range(0, n_rows + 1))
    kappa = tuple(q ** -pmodel.rho(j) for j in range(1, n_rows + 1))
    lam = tuple(q ** -pmodel.omega(d) for d in range(1, n_rows + 1))
    return QHahnModel(q=q, mu=mu, kappa=kappa, lam=lam, colors=(1,) * n_rows)
