"""Delayed inhomogeneous Beta polymer: environment, DP, oracles, Monte Carlo.

The partition function Z^(r)_{x,y} sums directed paths from (0, r) to (x, y)
over products of Beta-environment edge weights, starting at the first vertical
step.  Equivalently it is the conditional hitting probability of a random walk
in the same Beta environment; both descriptions are implemented and serve as
mutual oracles, together with an annealed multi-walker computation of the
integer moments that is exact for rational parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

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

    @classmethod
    def from_frequencies(cls, sigma, alpha, rho, beta, omega, gamma, n_sigma, n_rho, n_omega):
        return cls(
            schedule_values(sigma, alpha, n_sigma),
            schedule_values(rho, beta, n_rho),
            schedule_values(omega, gamma, n_omega),
        )

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

    def beta_shapes(self, i, j):
        return self.sigma(i) - self.rho(j), self.rho(j) - self.omega(j - i)


@dataclass
class Environment:
    """Sampled eta field on the triangle 0 <= i <= x_max, i < j <= y_max."""

    x_max: int
    y_max: int
    eta: np.ndarray  # shape (x_max+1, y_max+1); NaN where not sampled
    seed_info: tuple = ()

    def value(self, i, j):
        v = self.eta[i, j]
        if np.isnan(v):
            raise IndexError(f"environment not sampled at {(i, j)}")
        return float(v)


def beta_draws(rng, a, b, size=None):
    """Beta(a, b) variates; inverse-CDF fast path for a = 1, two-Gamma ratio otherwise."""
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    if size is None:
        size = a_arr.shape
    if np.all(a_arr == 1.0):
        u = rng.random(size)
        return 1.0 - np.power(1.0 - u, 1.0 / np.broadcast_to(b_arr, size))
    g1 = rng.gamma(np.broadcast_to(a_arr, size))
    g2 = rng.gamma(np.broadcast_to(b_arr, size))
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


def partition_bruteforce(env, r, x, y, guard=100_000):
    """Delayed path sum over all directed lattice paths (0, r) -> (x, y)."""
    n_steps = y - r
    n_diag = x
    if n_steps < n_diag or n_diag < 0:
        raise ValueError("no admissible paths")
    if math.comb(n_steps, n_diag) > guard:
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
    """E[(Z^(r)_{x,y})^k] by the annealed k-walker transfer matrix.

    Walkers sharing a site share its Beta variable, so joint steps integrate
    to ratios of rising factorials; exact rationals when requested and the
    parameters are Fractions.
    """
    if k == 0:
        return Fraction(1) if exact else 1.0
    one = Fraction(1) if exact else 1.0
    done = 0 * one
    states = {tuple([x] * k): one}
    for j in range(y, r, -1):
        nxt = {}
        for cols, p in states.items():
            # walkers with i >= j - r are guaranteed survivors; drop them
            cols = tuple(i for i in cols if i < j - r)
            if not cols:
                done += p
                continue
            groups = {}
            for i in cols:
                groups[i] = groups.get(i, 0) + 1
            outcomes = [((), one)]
            for i, m in groups.items():
                a = model.sigma(i) - model.rho(j)
                b = model.rho(j) - model.omega(j - i)
                if exact:
                    a, b = Fraction(a), Fraction(b)
                denom = _rising(a + b, m)
                new_outcomes = []
                for prefix, w in outcomes:
                    for v in range(m + 1):
                        pw = w * math.comb(m, v) * _rising(a, v) * _rising(b, m - v) / denom
                        cols_part = (i,) * v + (i - 1,) * (m - v)
                        new_outcomes.append((prefix + cols_part, pw))
                outcomes = new_outcomes
            for cols_new, w in outcomes:
                if min(cols_new) < 0:
                    continue
                key = tuple(sorted(cols_new))
                nxt[key] = nxt.get(key, 0 * one) + p * w
        states = nxt
    return done + sum(states.values())


def joint_moment_annealed(model, specs):
    """E[prod_a Z^(r_a)_{x_a, y_a}] for labeled walkers with individual delays.

    Each factor contributes one walker entering at row y_a in column x_a; a
    walker is absorbed as a success once its column reaches the safe region
    i >= j - r_a, and any walker at column < 0 kills the state.  Walkers
    sharing a cell share the cell's Beta variable.
    """
    specs = [tuple(s) for s in specs]
    if not specs:
        return 1.0
    DONE = None
    y_top = max(s[1] for s in specs)
    states = {tuple(DONE for _ in specs): 1.0}
    # place walkers lazily as the sweep reaches their starting rows
    started = [False] * len(specs)
    for j in range(y_top, 0, -1):
        entering = [a for a, (xa, ya, ra) in enumerate(specs) if ya == j and not started[a]]
        if entering:
            new_states = {}
            for cols, p in states.items():
                cols = list(cols)
                for a in entering:
                    cols[a] = specs[a][0]
                new_states[tuple(cols)] = new_states.get(tuple(cols), 0.0) + p
            states = new_states
            for a in entering:
                started[a] = True
        nxt = {}
        for cols, p in states.items():
            cols = list(cols)
            for a, i in enumerate(cols):
                if i is not DONE and started[a] and i >= j - specs[a][2]:
                    cols[a] = DONE
            active = [a for a, i in enumerate(cols) if i is not DONE]
            if not active:
                key = tuple(cols)
                nxt[key] = nxt.get(key, 0.0) + p
                continue
            groups = {}
            for a in active:
                groups.setdefault(cols[a], []).append(a)
            outcomes = [({}, 1.0)]
            for i, members in groups.items():
                m = len(members)
                aa = model.sigma(i) - model.rho(j)
                bb = model.rho(j) - model.omega(j - i)
                denom = _rising(aa + bb, m)
                new_outcomes = []
                import itertools as _it

                for assign, w in outcomes:
                    for stay_set in _it.chain.from_iterable(
                        _it.combinations(members, v) for v in range(m + 1)
                    ):
                        v = len(stay_set)
                        pw = w * float(_rising(aa, v) * _rising(bb, m - v)) / float(denom)
                        upd = dict(assign)
                        for a in members:
                            upd[a] = i if a in stay_set else i - 1
                        new_outcomes.append((upd, pw))
                    # combinations over subsets already counts each pattern once
                outcomes = new_outcomes
            for assign, w in outcomes:
                cols_new = list(cols)
                dead = False
                for a, i_new in assign.items():
                    if i_new < 0:
                        dead = True
                        break
                    cols_new[a] = i_new
                if dead:
                    continue
                key = tuple(cols_new)
                nxt[key] = nxt.get(key, 0.0) + p * w
        states = nxt
    return sum(states.values())


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo over environments.


def _dp_block(model, r, x, y, n_block, rng, want_log):
    """DP over a block of replicas; returns ln Z (or Z) at the corner (x, y).

    Convex row recursion with per-replica rescaling: a scalar log offset is
    exact for the linear recurrence, so values stay in float range for any
    depth.  The row maximum includes the diagonal boundary cell (= 1) while it
    exists, so rescaling only activates after the diagonal leaves the window.
    """
    band = y - x
    if band == 0:
        return np.zeros(n_block) if want_log else np.ones(n_block)
    if band > len(model.omega_list):
        raise IndexError("omega schedule shorter than the diagonal range y - x")
    sigma = np.array([model.sigma(i) for i in range(0, x + 1)])
    omega = np.array([model.omega(d) for d in range(1, band + 1)])
    cur = np.zeros((n_block, x + 1))
    cur[:, 0] = 1.0  # Z_{0, r} = 1
    offset = np.zeros(n_block)
    for yy in range(r + 1, y + 1):
        hi = min(x, yy - r)
        xs = np.arange(0, hi + 1)
        rho = model.rho(yy)
        a = sigma[: hi + 1] - rho
        # out-of-band cells (yy - x' > band) never reach the corner; clamping
        # their diagonal index keeps the vector draw simple and is harmless
        dgrid = np.clip(yy - xs, 1, band)
        b = rho - omega[dgrid - 1]
        eta = beta_draws(rng, a, b, size=(n_block, hi + 1))
        new = np.empty((n_block, hi + 1))
        new[:, 0] = eta[:, 0] * cur[:, 0]
        if hi >= 1:
            reach = min(hi, cur.shape[1] - 1)
            new[:, 1 : reach + 1] = (
                eta[:, 1 : reach + 1] * cur[:, 1 : reach + 1]
                + (1.0 - eta[:, 1 : reach + 1]) * cur[:, 0:reach]
            )
        if yy - r <= x:
            new[:, yy - r] = 1.0  # diagonal boundary
        cur = new
        m = cur.max(axis=1)
        small = m < 1e-200
        if small.any():
            scale = np.where(small, m, 1.0)
            cur = cur / scale[:, None]
            offset += np.where(small, np.log(scale), 0.0)
    vals = cur[:, x]
    if want_log:
        return np.log(vals) + offset
    if (offset != 0.0).any():
        raise OverflowError("partition values underflow linear space; use log mode")
    return vals


def _replica_blocks(model, r, x, y, samples, rng, seed, block, want_log, mapper=map):
    """Replica values in blocks of ``block``, block i drawn from ``rng`` or spawn_rng(seed, i).

    ``mapper`` runs the blocks: ``map``, or a process pool's ``map`` when
    ``rng`` is None (a shared generator must run its blocks in order).  The
    values depend only on the seed and the block size.
    """
    starts = range(0, samples, block)
    counts = [min(block, samples - start) for start in starts]
    gens = [rng if rng is not None else spawn_rng(seed, i) for i in range(len(counts))]
    out = np.empty(samples)
    blocks = mapper(_dp_block, repeat(model), repeat(r), repeat(x), repeat(y), counts, gens,
                    repeat(want_log))
    for start, vals in zip(starts, blocks):
        out[start : start + vals.size] = vals
    return out


def sample_partition_values(model, r, x, y, samples, rng=None, seed=0, block=4096):
    """Replica values Z^(r)_{x,y} (linear space; small grids)."""
    return _replica_blocks(model, r, x, y, samples, rng, seed, block, want_log=False)


def sample_log_partition(model, r, x, y, samples, rng=None, seed=0, block=256):
    """Replica values ln Z^(r)_{x,y} (rescaled DP; any grid depth)."""
    return _replica_blocks(model, r, x, y, samples, rng, seed, block, want_log=True)


@dataclass
class MCStats:
    mode: str
    n: int
    moments: dict = field(default_factory=dict)  # k -> (mean, stderr)
    log_mean: float = 0.0
    log_sd: float = 0.0
    samples: np.ndarray | None = None


def mc_statistics(model, r, x, y, samples, rng=None, seed=0, mode="moments", max_power=3,
                  keep_samples=False):
    """Monte Carlo statistics of Z or ln Z over independent environments."""
    if mode not in ("moments", "logZ"):
        raise ValueError("mode must be 'moments' or 'logZ'")
    if mode == "moments":
        vals = sample_partition_values(model, r, x, y, samples, rng=rng, seed=seed)
        moments = {}
        for k in range(1, max_power + 1):
            pk = vals**k
            moments[k] = (float(pk.mean()), float(pk.std(ddof=1) / math.sqrt(samples)))
        return MCStats(mode=mode, n=samples, moments=moments,
                       samples=vals if keep_samples else None)
    vals = sample_log_partition(model, r, x, y, samples, rng=rng, seed=seed)
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
