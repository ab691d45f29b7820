"""The stochastic q-Hahn grid model with parameters on columns, rows, and diagonals.

An N x N grid of vertices samples colored paths sequentially: boundary
multiplicities enter on the left edge row by row, then every vertex converts
its incoming pair (A, B) into an outgoing pair (C, D) with the q-Hahn weights
evaluated at (tt, ss) = (lam_{j-i}/kappa_j, lam_{j-i}/mu_i).  Colored height
functions count paths of color >= c below a facet, normalized to vanish at
(1/2, 1/2).

Two samplers run these updates.  The replica-batched sampler
(``sample_grids``, used by ``estimate_qmoment``, ``verify_shift_invariance``
and the CLI) runs the vertex updates in lockstep over R replicas, one integer
array of shape (R, n) per edge: b_j by inverse CDF on the boundary tables,
|D| by inverse CDF from the one-color q-Hahn marginal and its split over
colors by the q-Vandermonde conditionals, both in log space over a padded
(R, max |A| + 1) grid, and the height fields as cumulative sums.  Its
uniforms are drawn replica-major, one row of N + N*N*n per replica (N
boundary draws, then n per vertex in lexicographic order), so a replica's
configuration depends only on the generator state and its index, not on R or
on the chunking.  The scalar ``sample_grid``/``sample_vertex`` keep one
Python call per vertex and serve as the per-replica oracle and the
one-replica API: boxes prod(A_c + 1) <= 64 draw from the exact outcome table
``vertex_outcome_table``, larger boxes through ``_sample_vertices`` on one row.
The outcome tables and ``enumerate_exact`` both read the weights from
``weights.qhahn_outgoing``, and the boundary tables and ``enumerate_exact``
both take the boundary weights from the one recurrence ``_boundary_ratios``.

``enumerate_exact`` is the exact oracle.  The q-moment statistic is a product
of one power of q per boundary edge and per vertical edge, so the expectation
with capped boundary draws is a transfer-matrix sum over frontier states, in
the samplers' vertex order, restricted to the vertices that can reach the
requested facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from operator import mul

import numpy as np

from .qtools import comp_add, comp_interval, comp_sub, q_pochhammer
from .weights import qhahn_outgoing

__all__ = [
    "QHahnModel",
    "HeightRequest",
    "PathConfiguration",
    "sample_boundary",
    "sample_vertex",
    "sample_grid",
    "GridBatch",
    "sample_grids",
    "height_field",
    "qmoment_statistic",
    "qmoment_factors",
    "estimate_qmoment",
    "enumerate_exact",
    "base_case_product",
    "verify_shift_invariance",
    "Welford",
]

_BOX_CAP = 64  # outcome-table fast path bound on prod(A_c + 1)
# Element budget of one batched chunk: caps R_chunk * (max |A| + 1) and the
# per-replica uniforms and edges, so that peak memory stays flat for large boxes.
_CHUNK_CELLS = 1 << 17


@dataclass
class QHahnModel:
    """Grid parameters; mu has N+1 entries (column 0 drives the boundary law)."""

    q: float
    mu: tuple
    kappa: tuple
    lam: tuple
    colors: tuple  # boundary composition I with |I| = N

    _vertex_tables: dict = field(default_factory=dict, repr=False, compare=False)
    _boundary_tables: dict = field(default_factory=dict, repr=False, compare=False)
    _integrals: dict = field(default_factory=dict, repr=False, compare=False)  # verify_shift_invariance

    def __post_init__(self):
        self.mu = tuple(self.mu)
        self.kappa = tuple(self.kappa)
        self.lam = tuple(self.lam)
        self.colors = tuple(int(c) for c in self.colors)
        n_rows = sum(self.colors)
        if len(self.mu) != n_rows + 1 or len(self.kappa) != n_rows or len(self.lam) != n_rows:
            raise ValueError("need len(mu) = N+1, len(kappa) = N, len(lam) = N with N = |I|")
        if not (0 < self.q < 1):
            raise ValueError("q must lie in (0, 1)")
        for lam_d in self.lam:
            for kap_j in self.kappa:
                for mu_i in self.mu:
                    if not (0 < lam_d < kap_j < mu_i):
                        raise ValueError("parameters must satisfy 0 < lam_d < kappa_j < mu_i")

    @property
    def size(self):
        return sum(self.colors)

    @property
    def n_colors(self):
        return len(self.colors)

    def mu_of(self, i):
        return self.mu[i]

    def kappa_of(self, j):
        return self.kappa[j - 1]

    def lam_of(self, d):
        return self.lam[d - 1]

    def row_color(self, j):
        """Color of the incoming left edge at row j (1-indexed)."""
        acc = 0
        for c, mult in enumerate(self.colors, start=1):
            acc += mult
            if j <= acc:
                return c
        raise ValueError(f"row {j} outside the grid")

    def spin_params(self, i, j):
        lam = self.lam_of(j - i)
        return lam / self.kappa_of(j), lam / self.mu_of(i)


@dataclass(frozen=True)
class HeightRequest:
    """Evaluation facets (x_a, y_a), sorted colors c_a, and the pairing permutation."""

    x2: tuple  # doubled half-integer coordinates (odd ints)
    y2: tuple
    colors: tuple
    tau: object  # Permutation

    @classmethod
    def make(cls, xs, ys, colors, tau=None):
        from .qtools import Permutation

        x2 = tuple(int(round(2 * float(x))) for x in xs)
        y2 = tuple(int(round(2 * float(y))) for y in ys)
        colors = tuple(int(c) for c in colors)
        k = len(x2)
        if tau is None:
            tau = Permutation.identity(k)
        req = cls(x2, y2, colors, tau)
        req.validate_shape()
        return req

    @property
    def k(self):
        return len(self.x2)

    @property
    def facets(self):
        """(c, ix, iy) per facet a: the color c = c_{tau^{-1}(a)} read there and (ix, iy) = (x_a, y_a) - 1/2."""
        return tuple((self.colors[self.tau.inv(a) - 1], (x2 - 1) // 2, (y2 - 1) // 2)
                     for a, (x2, y2) in enumerate(zip(self.x2, self.y2), start=1))

    def validate_shape(self):
        if not (len(self.x2) == len(self.y2) == len(self.colors) == self.tau.rank):
            raise ValueError("request components must have equal length")
        if any(v % 2 == 0 or v < 1 for v in self.x2 + self.y2):
            raise ValueError("coordinates must be positive half-integers")
        if list(self.x2) != sorted(self.x2) or list(self.y2) != sorted(self.y2, reverse=True):
            raise ValueError("need x ascending and y descending")
        if any(x > y for x, y in zip(self.x2, self.y2)):
            raise ValueError("need x_a <= y_a")
        if list(self.colors) != sorted(self.colors) or any(c < 1 for c in self.colors):
            raise ValueError("colors must be >= 1 and ascending")

    def validate_against(self, model):
        self.validate_shape()
        n_rows = model.size
        if max(self.y2) > 2 * n_rows + 1:
            raise ValueError("facet outside the sampled grid")
        if max(self.colors) > model.n_colors:
            raise ValueError("color beyond those present in the boundary composition")

    def cutoffs(self, model):
        """l_a = I_{[1, c_a - 1]}."""
        return tuple(comp_interval(model.colors, 1, c - 1) for c in self.colors)


# ---------------------------------------------------------------------------
# Boundary sampling.


def _boundary_ratios(model, j):
    """x and the ratios w_{b+1}/w_b, b = 0, 1, ..., of row j's unnormalized boundary weights (w_0 = 1).

    The ratio is x (1 - y q^b) / (1 - q^{b+1}) with x = kappa_j/mu_0 and y = lam_j/kappa_j,
    in the scalar type of the model (a Fraction q keeps every weight exact).  Every ratio
    from b on is at most x / (1 - q^{b+1}), which bounds the geometric tails.
    """
    q = model.q
    one = q**0
    x = model.kappa_of(j) / model.mu_of(0)
    y = model.lam_of(j) / model.kappa_of(j)
    return x, (x * (one - y * q**b) / (one - q ** (b + 1)) for b in count())


def _boundary_table(model, j, tol=1e-14, cap=200000):
    key = (j, tol)
    if key in model._boundary_tables:
        return model._boundary_tables[key]
    q = model.q
    x, ratios = _boundary_ratios(model, j)
    w = 1.0
    weights = [w]
    for b, ratio in zip(range(cap), ratios):
        w *= ratio
        weights.append(w)
        # geometric tail bound, valid only once the ratio majorant drops below 1
        rho_bar = max(ratio, x / (1.0 - q ** (b + 2)))
        tail = w * rho_bar / (1.0 - rho_bar) if rho_bar < 1.0 else math.inf
        if tail < tol:
            break
    else:
        raise ValueError(f"boundary table for row j={j} reached cap={cap} with tail bound {tail:.3g} > tol={tol}")
    arr = np.array(weights)
    if (arr < 0).any():
        raise ValueError("boundary distribution has negative weights (parameter violation)")
    cum = np.cumsum(arr)
    model._boundary_tables[key] = (arr / cum[-1], cum / cum[-1])
    return model._boundary_tables[key]


def sample_boundary(model, rng):
    """Independent draws b_1..b_N of the left-boundary multiplicities."""
    out = np.empty(model.size, dtype=np.int64)
    for j in range(1, model.size + 1):
        _, cum = _boundary_table(model, j)
        out[j - 1] = int(np.searchsorted(cum, rng.random(), side="right"))
    return out


def boundary_pmf(model, j, b_max):
    probs, _ = _boundary_table(model, j)
    out = np.zeros(b_max + 1)
    upto = min(b_max + 1, len(probs))
    out[:upto] = probs[:upto]
    return out


# ---------------------------------------------------------------------------
# Vertex sampling.


def vertex_outcome_table(model, i, j, A):
    """Cumulative outgoing table for small incoming boxes (weights over D <= A)."""
    key = (i, j, A)
    tab = model._vertex_tables.get(key)
    if tab is None:
        tt, ss = model.spin_params(i, j)
        zero = tuple(0 for _ in A)
        weights = {D: w for (_, D), w in qhahn_outgoing(A, zero, model.q, tt, ss).items() if w > 0}
        cum = np.cumsum(list(weights.values()))
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValueError("vertex weights do not normalize (parameter violation)")
        tab = (list(weights), cum / cum[-1])
        model._vertex_tables[key] = tab
    return tab


def sample_vertex(A, B, i, j, model, rng):
    """One stochastic vertex update: returns (C, D) with C = A + B - D."""
    A = tuple(A)
    B = tuple(B)
    if sum(A) == 0:
        return B, tuple(0 for _ in A)
    box = 1
    for a in A:
        box *= a + 1
    if box <= _BOX_CAP:
        outcomes, cum = vertex_outcome_table(model, i, j, A)
        D = outcomes[int(np.searchsorted(cum, rng.random(), side="right"))]
    else:
        tt, ss = model.spin_params(i, j)
        row = _sample_vertices(np.array([A]), rng.random((1, len(A))), float(tt), float(ss),
                               _QTables(float(model.q), sum(A)))[0]
        D = tuple(int(d) for d in row)
    return comp_add(comp_sub(A, D), B), D


@dataclass
class PathConfiguration:
    """Edge compositions: A[(i, j)] vertical (i,j)->(i,j+1); B[(i, j)] horizontal."""

    n: int
    size: int
    A: dict
    B: dict

    def check_conservation(self):
        for i in range(1, self.size + 1):
            for j in range(1, self.size + 1):
                inflow = comp_add(self.A[(i, j - 1)], self.B[(i - 1, j)])
                outflow = comp_add(self.A[(i, j)], self.B[(i, j)])
                if inflow != outflow:
                    raise AssertionError(f"conservation violated at vertex {(i, j)}")
        return True


def sample_grid(model, rng):
    """Sample a full configuration: boundary first, then vertices in lex order."""
    N, n = model.size, model.n_colors
    b = sample_boundary(model, rng)
    A = {}
    B = {}
    zero = tuple(0 for _ in range(n))
    for j in range(1, N + 1):
        comp = list(zero)
        comp[model.row_color(j) - 1] = int(b[j - 1])
        B[(0, j)] = tuple(comp)
    for i in range(1, N + 1):
        A[(i, 0)] = zero
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            C, D = sample_vertex(A[(i, j - 1)], B[(i - 1, j)], i, j, model, rng)
            A[(i, j)] = C
            B[(i, j)] = D
    return PathConfiguration(n=n, size=N, A=A, B=B)


def height_field(cfg, c):
    """h_{>=c} on all facets; H[ix, iy] is the value at (ix + 1/2, iy + 1/2)."""
    N = cfg.size
    # an edge carries sum(edge[c - 1:]) paths of color >= c
    H = [[0]]
    for iy in range(1, N + 1):
        H[0].append(H[0][-1] + sum(cfg.B[(0, iy)][c - 1 :]))
    for ix in range(1, N + 1):
        H.append([h - sum(cfg.A[(ix, iy)][c - 1 :]) for iy, h in enumerate(H[-1])])
    return np.array(H, dtype=np.int64)


def qmoment_statistic(model, cfg, req):
    """prod_a q^{h_{>= c_{tau^{-1}(a)}}(x_a, y_a)} for one configuration."""
    fields = {c: height_field(cfg, c) for c in set(req.colors)}
    val = model.q ** 0  # a Fraction q keeps the product exact
    for c, ix, iy in req.facets:
        val *= model.q ** int(fields[c][ix, iy])
    return val


# ---------------------------------------------------------------------------
# Replica-batched sampling.


class _QTables:
    """q^k and log (q; q)_k for k = 0..top, shared by the vertex steps of one chunk."""

    def __init__(self, q, top):
        self.log_q = math.log(q)
        self.qpow = q ** np.arange(top + 1)
        self.lf = self.log_poch(q, top)

    def log_poch(self, x, m):
        """log (x; q)_k for k = 0..m."""
        out = np.zeros(m + 1)
        np.cumsum(np.log1p(-x * self.qpow[:m]), out=out[1:])
        return out


def _inverse_cdf(w, u, top):
    """Per row: the first index whose cumulative weight exceeds u times the row total."""
    cum = np.cumsum(w, axis=1)
    return np.minimum((cum <= u[:, None] * cum[:, -1:]).sum(axis=1), top)


def _sample_vertices(A, u, tt, ss, tab):
    """Outgoing D for every row of A (R, n) at one vertex, from uniforms u (R, n).

    u[:, 0] draws |D| = d from the one-color marginal
    P(d) = r^d (r;q)_{m-d} (tt;q)_d / (ss;q)_m [m, d]_q with m = |A|, r = ss/tt;
    u[:, c] splits it over colors c = 1..n-1 in order, color c taking k paths
    with weight [A_c, k]_q [rest, d-k]_q q^{k (rest - d + k)} where rest counts
    the colors after c (q-Vandermonde, normalized by [A_c + rest, d]_q).  Both
    laws are evaluated in log space over a padded grid of 1-D gathered tables.
    """
    m = A.sum(axis=1)
    top = int(m.max())
    D = np.zeros_like(A)
    if top == 0:
        return D
    lf = tab.lf
    ks = np.arange(top + 1)
    r = ss / tt
    head = ks * math.log(r) + tab.log_poch(tt, top) - lf[: top + 1]  # d-only factors
    tail = tab.log_poch(r, top) - lf[: top + 1]  # (m - d)-only factors
    span = m[:, None] - ks
    inside = span >= 0
    logp = head + tail[np.where(inside, span, 0)] + (lf[m] - tab.log_poch(ss, top)[m])[:, None]
    d = _inverse_cdf(np.where(inside, np.exp(logp), 0.0), u[:, 0], m)
    rest = m
    for c in range(A.shape[1] - 1):
        a_c = A[:, c]
        total = rest
        rest = total - a_c
        lo = np.maximum(d - rest, 0)
        hi = np.minimum(a_c, d)
        width = int((hi - lo).max()) + 1
        if width == 1:
            D[:, c] = lo
        else:
            k = lo[:, None] + np.arange(width)
            ok = k <= hi[:, None]
            k = np.minimum(k, hi[:, None])
            gap = (rest - d)[:, None] + k
            logg = k * gap * tab.log_q - lf[k] - lf[a_c[:, None] - k] - lf[d[:, None] - k] - lf[gap]
            logg += (lf[a_c] + lf[rest] + lf[d] + lf[total - d] - lf[total])[:, None]
            D[:, c] = lo + _inverse_cdf(np.where(ok, np.exp(logg), 0.0), u[:, c + 1], hi - lo)
        d = d - D[:, c]
    D[:, -1] = d
    return D


@dataclass
class GridBatch:
    """Edge compositions of R configurations, replica axis first.

    A[r, i, j] is the vertical edge (i, j)->(i, j+1) and B[r, i, j] the
    horizontal edge (i, j)->(i+1, j) of replica r, the arrays of
    PathConfiguration.A/B[(i, j)]; slots outside the grid hold zeros.
    """

    A: np.ndarray  # (R, N+1, N+1, n)
    B: np.ndarray

    def heights(self):
        """H[r, c-1, ix, iy] = h_{>=c}(ix + 1/2, iy + 1/2) of replica r, as in height_field."""

        def at_least(X):  # paths of color >= c on each edge
            return np.cumsum(X[..., ::-1], axis=-1)[..., ::-1]

        left = np.cumsum(at_least(self.B[:, 0]), axis=1)
        H = left[:, None] - np.cumsum(at_least(self.A), axis=1)
        return np.moveaxis(H, -1, 1)


def _sample_chunk(model, u, b):
    """Run the vertex updates in lex order over the replicas of one chunk."""
    N, n = model.size, model.n_colors
    A = np.zeros((len(u), N + 1, N + 1, n), dtype=np.int64)
    B = np.zeros_like(A)
    for j in range(1, N + 1):
        B[:, 0, j, model.row_color(j) - 1] = b[:, j - 1]
    tab = _QTables(float(model.q), int(b.sum(axis=1).max()))
    col = N
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            a_in = A[:, i, j - 1]
            if a_in.any():
                tt, ss = model.spin_params(i, j)
                B[:, i, j] = _sample_vertices(a_in, u[:, col : col + n], float(tt), float(ss), tab)
            A[:, i, j] = a_in - B[:, i, j] + B[:, i - 1, j]
            col += n
    return GridBatch(A, B)


def _grid_chunks(model, replicas, rng):
    """Yield GridBatch chunks of `replicas` configurations in replica order.

    Each replica takes one row of N + N*N*n uniforms, drawn replica-major in
    chunks sized by _CHUNK_CELLS; since rows are drawn in order, neither the
    total nor the chunking changes any replica's configuration.
    """
    N, n = model.size, model.n_colors
    width = N + N * N * n
    rows_per_draw = max(1, _CHUNK_CELLS // (width + 2 * (N + 1) ** 2 * n))
    done = 0
    while done < replicas:
        u = rng.random((min(replicas - done, rows_per_draw), width))
        b = np.stack([np.searchsorted(_boundary_table(model, j)[1], u[:, j - 1], side="right")
                      for j in range(1, N + 1)], axis=1)
        step = max(1, _CHUNK_CELLS // (int(b.sum(axis=1).max()) + 1))
        for s in range(0, len(u), step):
            yield _sample_chunk(model, u[s : s + step], b[s : s + step])
        done += len(u)


def sample_grids(model, replicas, rng):
    """Sample `replicas` configurations with the batched sampler, as one GridBatch."""
    N, n = model.size, model.n_colors
    chunks = list(_grid_chunks(model, replicas, rng))
    empty = [np.zeros((0, N + 1, N + 1, n), dtype=np.int64)]
    return GridBatch(np.concatenate([c.A for c in chunks] or empty), np.concatenate([c.B for c in chunks] or empty))


def qmoment_factors(model, batch, req):
    """Batched q-moment statistic: column a-1 is q^{h_{>= c_a}(x_tau(a), y_tau(a))}.

    The row product is qmoment_statistic of each replica (indexed by a = tau(b)
    there); the columns are the per-a marginals of verify_shift_invariance.
    """
    H = batch.heights()
    facets = req.facets
    cols = []
    for a in range(1, req.k + 1):
        c, ix, iy = facets[req.tau(a) - 1]  # c = c_a
        cols.append(H[:, c - 1, ix, iy])
    return float(model.q) ** np.stack(cols, axis=1)


class Welford:
    """Streaming mean/variance with an associative merge."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x):
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)

    def add_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return self
        other = Welford()
        other.n = xs.size
        other.mean = float(xs.mean())
        other.m2 = float(((xs - other.mean) ** 2).sum())
        return self.merge(other)

    def merge(self, other):
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return self
        n = self.n + other.n
        d = other.mean - self.mean
        self.mean += d * other.n / n
        self.m2 += other.m2 + d * d * self.n * other.n / n
        self.n = n
        return self

    @property
    def variance(self):
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stderr(self):
        return math.sqrt(self.variance / self.n) if self.n > 1 else 0.0


def estimate_qmoment(model, req, samples, rng):
    """Monte Carlo estimate (mean, stderr) of the joint q-moment observable (batched sampler)."""
    req.validate_against(model)
    acc = Welford()
    for batch in _grid_chunks(model, samples, rng):
        acc.add_many(qmoment_factors(model, batch, req).prod(axis=1))
    return acc.mean, acc.stderr


# ---------------------------------------------------------------------------
# Exact enumeration (frontier-state transfer matrix) and the closed-form base case.


def base_case_product(model, req):
    """Closed product for requests with all x_a = 1/2 (exact for Fraction q)."""
    ell = dict(zip(req.colors, req.cutoffs(model)))  # l_c = I_{[1, c - 1]}
    q = model.q
    val = 1.0 if not isinstance(q, Fraction) else Fraction(1)
    for j in range(1, model.size + 1):
        r_j = sum(1 for c, _, iy in req.facets if ell[c] < j <= iy)
        val *= q_pochhammer(model.kappa_of(j) / model.mu_of(0), q, r_j)
        val /= q_pochhammer(model.lam_of(j) / model.mu_of(0), q, r_j)
    return val


def _truncated_boundary(model, j, b_cap, tol):
    """Row j's weights w_0..w_cap and the geometric bound on the weight beyond the cap.

    Without b_cap the cap doubles from 4 until the tail is geometric and below tol / (2N) of
    the kept weight.
    """
    q = model.q
    one = q**0
    x, ratios = _boundary_ratios(model, j)
    w = [one]
    cap = 4 if b_cap is None else b_cap
    while True:
        for ratio in islice(ratios, cap + 1 - len(w)):
            w.append(w[-1] * ratio)
        rho = x / (one - q ** (cap + 1))
        if rho < 1:
            tail = w[-1] * rho / (one - rho)
            if b_cap is not None or tail / float(sum(w)) < tol / (2 * model.size):
                return w, tail
        elif b_cap is not None:
            raise ValueError("boundary tail not geometric at this cap; raise b_cap")
        cap *= 2
        if cap > 4096:
            raise ValueError("boundary truncation cap exceeded")


def enumerate_exact(model, req, b_cap=None, tol=1e-10, leaf_guard=10_000_000):
    """Exact expectation of the q-moment restricted to b_j <= b_cap, plus a tail bound.

    All arithmetic follows the scalar type of the model parameters: Fraction
    parameters give an exact rational conditional expectation.

    The statistic is a product of per-edge factors: by height_field, boundary
    edge b_j contributes q^{s_j b_j} and vertical edge A(i, j) contributes
    q^{-e_ij . A(i, j)}, with s_j and e_ij counting the facets a whose height
    reads that edge.  So the expectation is a transfer-matrix sum over frontier
    states, in the samplers' vertex order: within column i, the D outputs
    kept so far, the current vertical edge and the inputs still to be read.
    Each state carries (weight, weight * statistic), equal states merge, and
    the result is their ratio.  Only the staircase of vertices (i, j) with
    i <= x_a - 1/2 and j <= y_a - 1/2 for some a can reach the statistic; the
    others are skipped, since their outcome weights sum to 1, and b_j enters
    at vertex (1, j).  Outputs that leave the staircase are dropped.  A
    vertical output that is only scored splits its factor into q^{-e.B} and
    q^{-e.C}, so the sums over B and over the outcomes factor, and a vertex
    with both outputs dropped contracts to g(A) = sum of weight * q^{-e.C}.
    ``leaf_guard`` bounds the number of transitions.
    """
    req.validate_against(model)
    N, n = model.size, model.n_colors
    q = model.q
    one = q**0
    zero = (0,) * n

    facets = req.facets  # facet a reads color >= c at (ix, iy)

    def height(i):  # rows 1..height(i) of column i lie in the staircase
        return max((iy for _, ix, iy in facets if ix >= i), default=0)

    def exponents(i, j):  # e_ij by color
        return tuple(sum(1 for c, ix, iy in facets if i <= ix and iy == j and col >= c) for col in range(1, n + 1))

    def exponent(e, E):  # e . E for an exponent vector and an edge composition
        return sum(map(mul, e, E))

    tables = {}
    merged = {}

    def outgoing(i, j, A):
        key = (i, j, A)
        if key not in tables:
            tt, ss = model.spin_params(i, j)
            tables[key] = list(qhahn_outgoing(A, zero, q, tt, ss).items())
        return tables[key]

    def read_once(i, j, A, e, keep_D):
        """Outcomes when A(i, j) is scored and dropped: kept D (None if dropped) -> (weight, weight q^{-e.C})."""
        key = (i, j, A)
        if key not in merged:
            out = {}
            for (C, D), wt in outgoing(i, j, A):
                D = D if keep_D else None
                ow, ov = out.get(D, (0, 0))
                out[D] = (ow + wt, ov + wt * q ** (-exponent(e, C)))
            merged[key] = list(out.items())
        return merged[key]

    W = V = one  # weight and weight * statistic of the rows read only through b_j
    inputs = {}  # rows j <= height(1): (B, w_b, w_b q^{s_j b}) for b_j = b <= cap
    tail_total = 0.0
    for j in range(1, N + 1):
        w, tail = _truncated_boundary(model, j, b_cap, tol)
        tail_total += float(tail) / float(sum(w))
        s_j = sum(1 for c, _, iy in facets if j <= iy and model.row_color(j) >= c)
        col = model.row_color(j) - 1
        law = [(zero[:col] + (b,) + zero[col + 1 :], wb, wb * q ** (s_j * b)) for b, wb in enumerate(w)]
        if j <= height(1):
            inputs[j] = law
        elif s_j:
            W *= sum(w)
            V *= sum(fv for _, _, fv in law)

    steps = 0
    states = {(): (one, one)}  # D outputs the next column reads -> (weight, weight * statistic)
    for i in range(1, max(ix for _, ix, _ in facets) + 1):
        rows, rows_next = height(i), height(i + 1)
        front = {((), zero, ins): wv for ins, wv in states.items()}  # (outputs kept, A, inputs left)
        for j in range(1, rows + 1):
            e = exponents(i, j)
            keep_D, keep_A = j <= rows_next, j < rows
            nxt = {}
            for (outs, A, ins), (w, v) in front.items():
                laws, rest = (inputs[j], ins) if i == 1 else (((ins[0], one, one),), ins[1:])
                table = outgoing(i, j, A) if keep_A else read_once(i, j, A, e, keep_D)
                steps += len(laws) * len(table) if keep_A else len(laws) + len(table)
                if steps > leaf_guard:
                    raise ValueError("enumeration guard exceeded; shrink the grid or b_cap")
                if keep_A:
                    for B, fw, fv in laws:
                        wb, vb = w * fw, v * fv
                        for (C, D), wt in table:
                            A_out = comp_add(C, B)
                            key = (outs + (D,) if keep_D else outs, A_out, rest)
                            old = nxt.get(key, (0, 0))
                            nxt[key] = (old[0] + wb * wt, old[1] + vb * wt * q ** (-exponent(e, A_out)))
                else:  # A_out = C + B is read once, so the sums over B and over C factor
                    w *= sum(fw for _, fw, _ in laws)
                    v *= sum(fv * q ** (-exponent(e, B)) for B, _, fv in laws)
                    for D, (gw, gv) in table:
                        key = (outs + (D,) if keep_D else outs, zero, rest)
                        old = nxt.get(key, (0, 0))
                        nxt[key] = (old[0] + w * gw, old[1] + v * gv)
            front = nxt
        states = {outs: wv for (outs, _, _), wv in front.items()}
    w, v = states[()]
    return (V * v) / (W * w), 2.0 * tail_total


# ---------------------------------------------------------------------------
# Shift invariance.


@dataclass
class ShiftReport:
    hypotheses_ok: bool
    detail: str
    joint: tuple  # ((mean, se) model A, (mean, se) model B)
    joint_zscore: float
    marginals: list  # per a: ((mean, se), (mean, se), z)
    integral_a: complex
    integral_b: complex

    @property
    def integral_diff(self):
        return abs(self.integral_a - self.integral_b)


def _signature_classes(intervals, universe):
    classes = {}
    for idx in universe:
        sig = frozenset(a for a, (lo, hi) in enumerate(intervals) if lo <= idx <= hi)
        classes.setdefault(sig, []).append(idx)
    return classes


def _class_check(intervals_a, params_a, intervals_b, params_b, universe_a, universe_b):
    ca = _signature_classes(intervals_a, universe_a)
    cb = _signature_classes(intervals_b, universe_b)
    if set(ca) != set(cb):
        return False, "interval signature classes differ"
    for sig in ca:
        va = sorted(params_a[i] for i in ca[sig])
        vb = sorted(params_b[i] for i in cb[sig])
        if len(va) != len(vb) or any(abs(x - y) > 1e-12 for x, y in zip(va, vb)):
            return False, f"parameter multiset mismatch on class {sorted(sig)}"
    return True, "ok"


def validate_shift_hypotheses(model_a, req_a, model_b, req_b):
    """Check the interval-bijection hypotheses for a pair of (model, request)."""
    for model, req in ((model_a, req_a), (model_b, req_b)):
        if any(c != 1 for c in model.colors):
            return False, "left boundary must carry distinct colors (I = (1,...,1))"
        req.validate_against(model)
        for a in range(1, req.k + 1):
            c, ix, iy = req.facets[req.tau(a) - 1]  # c = c_a
            if iy - ix < c:
                return False, f"hypothesis y_tau(a) - x_tau(a) >= c_a fails at a={a}"
    if req_a.k != req_b.k:
        return False, "request sizes differ"
    N = model_a.size
    if model_b.size != N:
        return False, "grid sizes differ"

    def intervals(model, req):
        rows, cols, diags = [], [], []
        for a in range(1, req.k + 1):
            c, ix, iy = req.facets[req.tau(a) - 1]  # c = c_a
            rows.append((c, iy))
            cols.append((0, ix))
            diags.append((c, iy - ix))
        return rows, cols, diags

    ra, ca_, da = intervals(model_a, req_a)
    rb, cb_, db = intervals(model_b, req_b)
    checks = [
        _class_check(ra, {j: model_a.kappa_of(j) for j in range(1, N + 1)}, rb,
                     {j: model_b.kappa_of(j) for j in range(1, N + 1)},
                     range(1, N + 1), range(1, N + 1)),
        _class_check(ca_, {i: model_a.mu_of(i) for i in range(0, N + 1)}, cb_,
                     {i: model_b.mu_of(i) for i in range(0, N + 1)},
                     range(0, N + 1), range(0, N + 1)),
        _class_check(da, {d: model_a.lam_of(d) for d in range(1, N + 1)}, db,
                     {d: model_b.lam_of(d) for d in range(1, N + 1)},
                     range(1, N + 1), range(1, N + 1)),
    ]
    for ok, msg in checks:
        if not ok:
            return False, msg
    return True, "ok"


def verify_shift_invariance(model_a, req_a, model_b, req_b, samples, rng, nodes=64):
    """Empirical joint q-moments plus the two contour-integral values."""
    ok, msg = validate_shift_hypotheses(model_a, req_a, model_b, req_b)
    if not ok:
        raise ValueError(f"shift-invariance hypotheses fail: {msg}")

    sides = []
    for model, req in ((model_a, req_a), (model_b, req_b)):
        joint = Welford()
        margins = [Welford() for _ in range(req.k)]
        for batch in _grid_chunks(model, samples, rng):
            vals = qmoment_factors(model, batch, req)
            joint.add_many(vals.prod(axis=1))
            for acc, col in zip(margins, vals.T):
                acc.add_many(col)
        sides.append((joint, margins))
    (ja, margins_a), (jb, margins_b) = sides
    ma, sa, mb, sb = ja.mean, ja.stderr, jb.mean, jb.stderr
    z_joint = abs(ma - mb) / math.hypot(sa, sb) if (sa or sb) else 0.0
    marginals = []
    for wa, wb in zip(margins_a, margins_b):
        z = abs(wa.mean - wb.mean) / math.hypot(wa.stderr, wb.stderr) if (wa.stderr or wb.stderr) else 0.0
        marginals.append(((wa.mean, wa.stderr), (wb.mean, wb.stderr), z))

    from .moments import qmoment_integral

    def integral(model, req):  # cached per model, keyed by request and nodes
        key = (req.x2, req.y2, req.colors, req.tau.values, nodes)
        if key not in model._integrals:
            model._integrals[key] = qmoment_integral(model, req, nodes=nodes)
        return model._integrals[key]

    ia = integral(model_a, req_a)
    ib = integral(model_b, req_b)

    return ShiftReport(
        hypotheses_ok=True,
        detail=msg,
        joint=((ma, sa), (mb, sb)),
        joint_zscore=z_joint,
        marginals=marginals,
        integral_a=ia,
        integral_b=ib,
    )
