"""The stochastic q-Hahn grid model with parameters on columns, rows, and diagonals.

An N x N grid of vertices samples colored paths sequentially: boundary
multiplicities enter on the left edge row by row, then every vertex converts
its incoming pair (A, B) into an outgoing pair (C, D) with the q-Hahn weights
evaluated at (tt, ss) = (lam_{j-i}/kappa_j, lam_{j-i}/mu_i).  Colored height
functions count paths of color >= c below a facet, normalized to vanish at
(1/2, 1/2).

One sampler runs these updates, in lockstep over R replicas, one integer array
of shape (R, n) per edge: b_j by inverse CDF on the boundary tables, |D| by
inverse CDF from the one-color q-Hahn marginal and its split over colors by
the q-Vandermonde conditionals, both in log space over a padded
(R, max |A| + 1) grid, and the height fields as cumulative sums.
``sample_grids`` and the CLI run the full N x N grid.  The q-moment paths,
``estimate_qmoment`` and ``verify_shift_invariance``, run only the cone of
vertices (i, j) with i <= I and j <= J, (I, J) the largest (ix, iy) over the
request's facets: vertex (i, j) reads only (i - 1, j) and (i, j - 1), so no
other vertex moves those heights.  The uniforms are drawn replica-major, one
row of N + N*N*n per replica (N boundary draws, then n per vertex in
lexicographic order) whatever the cone, and each vertex reads its own slots,
so a replica's edges and q-moment factors depend only on the generator state
and its index, not on R, the cone or the chunking.  ``sample_grid`` is the
one-replica view: replica 0 of ``sample_grids(model, 1, rng)`` as a
``PathConfiguration``, on which ``height_field`` and ``qmoment_statistic``
recompute the batched heights and q-moment factors edge by edge.  The vertex
law is checked against the exact q-Hahn outgoing law ``weights.qhahn_outgoing``
and the whole-grid q-moments against ``enumerate_exact``, which reads the same
law and builds one weight table per vertex (i, j) for each call.  The boundary
tables and ``enumerate_exact`` both take the boundary weights from the one
truncation ``_truncated_boundary``.

``enumerate_exact`` is the exact oracle.  By conservation, a facet's height
counts the paths on the horizontal outputs of its own column (the boundary
edges for x = 1/2), so the q-moment statistic is a product of one nonnegative
power of q per horizontal edge, and the expectation with capped boundary draws
is a transfer-matrix sum over frontier states, in the sampler's vertex order,
restricted to the vertices that can reach the requested facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from operator import mul

import numpy as np

from .qtools import ConvergenceError, comp_add, comp_interval, q_pochhammer
from .weights import _qhahn_outgoing, _QHahnTable

__all__ = [
    "QHahnModel",
    "HeightRequest",
    "PathConfiguration",
    "GridBatch",
    "sample_grids",
    "sample_grid",
    "height_field",
    "qmoment_statistic",
    "qmoment_factors",
    "estimate_qmoment",
    "enumerate_exact",
    "base_case_product",
    "verify_shift_invariance",
]

# Element budget of one batched chunk: caps R_chunk * (max |A| + 1) and the
# per-replica uniforms and edges, so that peak memory stays flat for large boxes.
_CHUNK_CELLS = 1 << 17
# Boundary-law truncation (``_truncated_boundary``): the sampler keeps rows until the
# tail is below _SAMPLER_TOL of the kept weight, with caps up to _SAMPLER_CAP;
# enumerate_exact stops at _EXACT_CAP, so heavy tails fail fast there.
_SAMPLER_TOL = 1e-14
_SAMPLER_CAP = 200_000
_EXACT_CAP = 4096


@dataclass
class QHahnModel:
    """Grid parameters; mu has N+1 entries (column 0 drives the boundary law)."""

    q: float
    mu: tuple
    kappa: tuple
    lam: tuple
    colors: tuple  # boundary composition I with |I| = N

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

        x2 = tuple(2 * float(x) for x in xs)
        y2 = tuple(2 * float(y) for y in ys)
        if not all(v.is_integer() for v in x2 + y2):  # validate_shape checks that each is odd
            raise ValueError("coordinates must be positive half-integers")
        colors = tuple(int(c) for c in colors)
        if tau is None:
            tau = Permutation.identity(len(x2))
        req = cls(tuple(map(int, x2)), tuple(map(int, y2)), colors, tau)
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
# Boundary law.


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


def _boundary_table(model, j):
    """Row j's boundary probabilities and their CDF, from the one truncation ``_truncated_boundary``."""
    if j not in model._boundary_tables:
        w, _ = _truncated_boundary(model, j, _SAMPLER_TOL, _SAMPLER_CAP)
        arr = np.array(w, dtype=float)
        if (arr < 0).any():
            raise ValueError("boundary distribution has negative weights (parameter violation)")
        cum = np.cumsum(arr)
        model._boundary_tables[j] = (arr / cum[-1], cum / cum[-1])
    return model._boundary_tables[j]


# ---------------------------------------------------------------------------
# One configuration and its height functions.


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
    PathConfiguration.A/B[(i, j)]; slots outside the grid hold zeros.  A
    batch of the cone (I, J) holds the slots i <= I, j <= J.
    """

    A: np.ndarray  # (R, I+1, J+1, n); (R, N+1, N+1, n) from sample_grids
    B: np.ndarray

    def heights(self):
        """H[r, c-1, ix, iy] = h_{>=c}(ix + 1/2, iy + 1/2) of replica r, as in height_field."""

        def at_least(X):  # paths of color >= c on each edge
            return np.cumsum(X[..., ::-1], axis=-1)[..., ::-1]

        left = np.cumsum(at_least(self.B[:, 0]), axis=1)
        H = left[:, None] - np.cumsum(at_least(self.A), axis=1)
        return np.moveaxis(H, -1, 1)

    def configuration(self, r):
        """Replica r of a full-grid batch as a PathConfiguration."""
        N, n = self.A.shape[1] - 1, self.A.shape[-1]
        A, B = self.A[r].tolist(), self.B[r].tolist()
        return PathConfiguration(n=n, size=N,
                                 A={(i, j): tuple(A[i][j]) for i in range(1, N + 1) for j in range(N + 1)},
                                 B={(i, j): tuple(B[i][j]) for i in range(N + 1) for j in range(1, N + 1)})


def _sample_chunk(model, u, b, cone):
    """Run the vertex updates of the cone (I, J) in lex order over the replicas of one chunk.

    Vertex (i, j) reads only (i - 1, j) and (i, j - 1), so the vertices with
    i <= I and j <= J give the edges of the full grid there, and the heights of
    the facets (ix + 1/2, iy + 1/2) with ix <= I and iy <= J.  Vertex (i, j)
    reads its n uniforms at its full-grid offset N + ((i - 1) N + j - 1) n of
    the replica's row, and b holds the boundary draws of rows 1..J.
    """
    N, n = model.size, model.n_colors
    I, J = cone
    A = np.zeros((len(u), I + 1, J + 1, n), dtype=np.int64)
    B = np.zeros_like(A)
    for j in range(1, J + 1):
        B[:, 0, j, model.row_color(j) - 1] = b[:, j - 1]
    tab = _QTables(float(model.q), int(b.sum(axis=1).max()))
    for i in range(1, I + 1):
        for j in range(1, J + 1):
            a_in = A[:, i, j - 1]
            if a_in.any():
                tt, ss = model.spin_params(i, j)
                col = N + ((i - 1) * N + j - 1) * n
                B[:, i, j] = _sample_vertices(a_in, u[:, col : col + n], float(tt), float(ss), tab)
            A[:, i, j] = a_in - B[:, i, j] + B[:, i - 1, j]
    return GridBatch(A, B)


def _grid_chunks(model, replicas, rng, cone):
    """Yield GridBatch chunks of `replicas` configurations of the cone (I, J), in replica order.

    Each replica takes one row of N + N*N*n uniforms (N boundary draws, then n
    per vertex in lex order), drawn replica-major in chunks sized by
    _CHUNK_CELLS, whatever the cone.  Since rows are drawn in order and every
    vertex reads its own slots, neither the total, the chunking nor the cone
    changes any replica's edges.
    """
    N, n = model.size, model.n_colors
    I, J = cone
    width = N + N * N * n
    rows_per_draw = max(1, _CHUNK_CELLS // (width + 2 * (I + 1) * (J + 1) * n))
    done = 0
    while done < replicas:
        u = rng.random((min(replicas - done, rows_per_draw), width))
        b = np.zeros((len(u), J), dtype=np.int64)
        for j in range(1, J + 1):
            b[:, j - 1] = np.searchsorted(_boundary_table(model, j)[1], u[:, j - 1], side="right")
        step = max(1, _CHUNK_CELLS // (int(b.sum(axis=1).max()) + 1))
        for s in range(0, len(u), step):
            yield _sample_chunk(model, u[s : s + step], b[s : s + step], cone)
        done += len(u)


def sample_grids(model, replicas, rng):
    """Sample `replicas` configurations of the full grid with the batched sampler, as one GridBatch."""
    N, n = model.size, model.n_colors
    chunks = list(_grid_chunks(model, replicas, rng, (N, N)))
    empty = [np.zeros((0, N + 1, N + 1, n), dtype=np.int64)]
    return GridBatch(np.concatenate([c.A for c in chunks] or empty), np.concatenate([c.B for c in chunks] or empty))


def sample_grid(model, rng):
    """One configuration: replica 0 of ``sample_grids(model, 1, rng)``, as a PathConfiguration."""
    return sample_grids(model, 1, rng).configuration(0)


def qmoment_factors(model, batch, req):
    """Batched q-moment statistic: column a-1 is q^{h_{>= c_a}(x_tau(a), y_tau(a))}.

    The row product is qmoment_statistic of each replica (indexed by a = tau(b)
    there); the columns are the per-a marginals of verify_shift_invariance.
    Each factor is read from one table of q^h, h = 0..max height: numpy
    takes another path for the power of a one-element 2-D array, which can
    differ in the last bit (q = 0.1, h = 2), so a lookup keeps every value
    independent of how the replicas are chunked.
    """
    H = batch.heights()
    facets = req.facets
    cols = []
    for a in range(1, req.k + 1):
        c, ix, iy = facets[req.tau(a) - 1]  # c = c_a
        cols.append(H[:, c - 1, ix, iy])
    heights = np.stack(cols, axis=1)
    return (float(model.q) ** np.arange(int(heights.max(initial=0)) + 1))[heights]


def estimate_qmoment(model, req, samples, rng):
    """Monte Carlo estimate (mean, stderr) of the joint q-moment observable (batched sampler)."""
    req.validate_against(model)
    return _mean_stderr(_qmoment_rows(model, req, samples, rng).prod(axis=1))


def _qmoment_rows(model, req, samples, rng):
    """``qmoment_factors`` of ``samples`` replicas, one row each, sampling only the cone the facets read."""
    facets = req.facets
    cone = (max(ix for _, ix, _ in facets), max(iy for _, _, iy in facets))
    rows = [qmoment_factors(model, batch, req) for batch in _grid_chunks(model, samples, rng, cone)]
    return np.concatenate(rows) if rows else np.empty((0, req.k))


def _mean_stderr(xs):
    """Sample mean and standard error of ``xs`` (0.0 with fewer than two values)."""
    if xs.size < 2:
        return float(xs.mean()) if xs.size else 0.0, 0.0
    return float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(xs.size))


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


def _truncated_boundary(model, j, tol, ceiling, b_cap=None):
    """Row j's weights w_0..w_cap and the geometric bound on the weight beyond the cap.

    Without b_cap the cap doubles from 4 until the tail is geometric and below tol of the
    kept weight; when the next cap would pass ``ceiling``, ConvergenceError names the last
    cap tried.
    """
    q = model.q
    one = q**0
    x, ratios = _boundary_ratios(model, j)
    w = [one]
    cap = 4 if b_cap is None else b_cap
    rel = math.inf
    while True:
        for ratio in islice(ratios, cap + 1 - len(w)):
            w.append(w[-1] * ratio)
        rho = x / (one - q ** (cap + 1))
        if rho < 1:
            tail = w[-1] * rho / (one - rho)
            rel = tail / float(sum(w))
            if b_cap is not None or rel < tol:
                return w, tail
        elif b_cap is not None:
            raise ValueError("boundary tail not geometric at this cap; raise b_cap")
        if 2 * cap > ceiling:
            raise ConvergenceError(f"boundary truncation for row j={j} reached cap={cap} (the next doubling passes "
                                   f"max_cap={ceiling}) with tail bound {rel:.3g} of the kept weight, "
                                   f"not below tol={tol:g}")
        cap *= 2


def enumerate_exact(model, req, b_cap=None, tol=1e-10, leaf_guard=10_000_000):
    """Exact expectation of the q-moment restricted to b_j <= b_cap, plus a tail bound.

    All arithmetic follows the scalar type of the model parameters: Fraction
    parameters give an exact rational conditional expectation.

    Conservation in columns 1..ix gives h_{>=c}(ix + 1/2, iy + 1/2) =
    sum_{j <= iy} |D(ix, j)|_{>=c}, with D(i, j) the horizontal output of
    vertex (i, j) and D(0, j) the boundary edge b_j.  So the statistic is a
    product of one factor q^{e_ij . D(i, j)} per horizontal edge, where e_ij
    counts by color the facets a with x_a - 1/2 = i and y_a - 1/2 >= j, and no
    power of q is negative.  The expectation is a transfer-matrix sum over
    frontier states, in the sampler's vertex order: within column i, the D
    outputs kept so far, the current vertical edge and the inputs still to be
    read.  Each state carries (weight, weight * statistic), equal states
    merge, and the result is their ratio.  Only the staircase of vertices
    (i, j) with i <= x_a - 1/2 and j <= y_a - 1/2 for some a can reach the
    statistic; the others are skipped, since their outcome weights sum to 1,
    and b_j enters at vertex (1, j).  Each vertex scores its outcomes once per
    incoming A, keyed on the outputs that stay in the staircase: C below the
    column's top row, D where the next column reads it.  At the top row the
    sums over B and over the outcomes factor, so the inputs' law is summed
    first.  ``leaf_guard`` bounds the number of transitions.
    """
    req.validate_against(model)
    N, n = model.size, model.n_colors
    q = model.q
    one = q**0
    zero = (0,) * n

    facets = req.facets  # facet a reads color >= c at (ix, iy)

    def height(i):  # rows 1..height(i) of column i lie in the staircase
        return max((iy for _, ix, iy in facets if ix >= i), default=0)

    def exponents(i, j):  # e_ij by color: the facets of column i that read D(i, j)
        return tuple(sum(1 for c, ix, iy in facets if ix == i and j <= iy and col >= c) for col in range(1, n + 1))

    weight_tables = {}  # (i, j) -> the vertex's q-Hahn factors, for this call only
    tables = {}  # (i, j, A) -> outcomes(i, j, A)

    def outcomes(i, j, A):
        """(C, (D,)) -> (weight, weight q^{e.D}), summed over what is dropped: C reads zero, D reads ()."""
        key = (i, j, A)
        if key not in tables:
            table = weight_tables.get((i, j))
            if table is None:
                table = weight_tables[(i, j)] = _QHahnTable(q, *model.spin_params(i, j))
            e, keep_C, keep_D = exponents(i, j), j < height(i), j <= height(i + 1)
            out = {}
            for (C, D), wt in _qhahn_outgoing(A, zero, table).items():
                kept = (C if keep_C else zero, (D,) if keep_D else ())
                ow, ov = out.get(kept, (0, 0))
                out[kept] = (ow + wt, ov + wt * q ** sum(map(mul, e, D)))
            tables[key] = list(out.items())
        return tables[key]

    W = V = one  # weight and weight * statistic of the rows read only through b_j
    inputs = {}  # rows j <= height(1): (B, w_b, w_b q^{s_j b}) for b_j = b <= cap
    tail_total = 0.0
    for j in range(1, N + 1):
        w, tail = _truncated_boundary(model, j, tol / (2 * N), _EXACT_CAP, b_cap)
        tail_total += float(tail) / float(sum(w))
        col = model.row_color(j) - 1
        s_j = exponents(0, j)[col]
        law = [(zero[:col] + (b,) + zero[col + 1 :], wb, wb * q ** (s_j * b)) for b, wb in enumerate(w)]
        if j <= height(1):
            inputs[j] = law
        elif s_j:
            W *= sum(w)
            V *= sum(fv for _, _, fv in law)

    steps = 0
    states = {(): (one, one)}  # D outputs the next column reads -> (weight, weight * statistic)
    for i in range(1, max(ix for _, ix, _ in facets) + 1):
        rows = height(i)
        front = {((), zero, ins): wv for ins, wv in states.items()}  # (outputs kept, A, inputs left)
        for j in range(1, rows + 1):
            nxt = {}
            for (outs, A, ins), (w, v) in front.items():
                laws, rest = (inputs[j], ins) if i == 1 else (((ins[0], one, one),), ins[1:])
                table = outcomes(i, j, A)
                if j < rows:
                    steps += len(laws) * len(table)
                else:  # A_out = C + B leaves the staircase: the sums over B and over the outcomes factor
                    steps += len(laws) + len(table)
                    laws = ((zero, sum(fw for _, fw, _ in laws), sum(fv for _, _, fv in laws)),)
                if steps > leaf_guard:
                    raise ValueError("enumeration guard exceeded; shrink the grid or b_cap")
                for B, fw, fv in laws:
                    wb, vb = w * fw, v * fv
                    for (C, kept_D), (gw, gv) in table:
                        key = (outs + kept_D, comp_add(C, B), rest)
                        old = nxt.get(key, (0, 0))
                        nxt[key] = (old[0] + wb * gw, old[1] + vb * gv)
            front = nxt
        states = {outs: wv for (outs, _, _), wv in front.items()}
    w, v = states[()]
    return (V * v) / (W * w), 2.0 * tail_total


# ---------------------------------------------------------------------------
# Shift invariance.


@dataclass
class ShiftReport:
    joint: tuple  # ((mean, se) model A, (mean, se) model B)
    joint_zscore: float
    marginals: list  # per a: ((mean, se), (mean, se), z)
    integral_a: complex
    integral_b: complex

    @property
    def integral_diff(self):
        return abs(self.integral_a - self.integral_b)


def validate_shift_hypotheses(model_a, req_a, model_b, req_b):
    """Check the interval-bijection hypotheses for a pair of (model, request); raise ValueError at the first failure.

    Facet a = tau(b) covers the rows [c_a, y_a], the columns [0, x_a] and the
    diagonals [c_a, y_a - x_a].  In each family the indices covered by the same
    set of facets form a class, and the two sides need the same classes with the
    same multisets of kappa (rows), mu (columns) and lam (diagonals).
    """
    for model, req in ((model_a, req_a), (model_b, req_b)):
        if any(c != 1 for c in model.colors):
            raise ValueError("left boundary must carry distinct colors (I = (1,...,1))")
        req.validate_against(model)
        for a in range(1, req.k + 1):
            c, ix, iy = req.facets[req.tau(a) - 1]  # c = c_a
            if iy - ix < c:
                raise ValueError(f"hypothesis y_tau(a) - x_tau(a) >= c_a fails at a={a}")
    if req_a.k != req_b.k:
        raise ValueError("request sizes differ")
    N = model_a.size
    if model_b.size != N:
        raise ValueError("grid sizes differ")

    families = ((QHahnModel.kappa_of, range(1, N + 1), lambda c, ix, iy: (c, iy)),
                (QHahnModel.mu_of, range(0, N + 1), lambda c, ix, iy: (0, ix)),
                (QHahnModel.lam_of, range(1, N + 1), lambda c, ix, iy: (c, iy - ix)))
    for param, universe, interval in families:
        ca, cb = {}, {}
        for classes, model, req in ((ca, model_a, req_a), (cb, model_b, req_b)):
            spans = [interval(*req.facets[req.tau(a) - 1]) for a in range(1, req.k + 1)]
            for idx in universe:
                sig = frozenset(a for a, (lo, hi) in enumerate(spans) if lo <= idx <= hi)
                classes.setdefault(sig, []).append(param(model, idx))
        if set(ca) != set(cb):
            raise ValueError("interval signature classes differ")
        for sig in ca:
            va, vb = sorted(ca[sig]), sorted(cb[sig])
            if len(va) != len(vb) or any(abs(x - y) > 1e-12 for x, y in zip(va, vb)):
                raise ValueError(f"parameter multiset mismatch on class {sorted(sig)}")


def verify_shift_invariance(model_a, req_a, model_b, req_b, samples, rng):
    """Empirical joint q-moments plus the two contour-integral values."""
    try:
        validate_shift_hypotheses(model_a, req_a, model_b, req_b)
    except ValueError as exc:
        raise ValueError(f"shift-invariance hypotheses fail: {exc}") from exc

    sides = []
    for model, req in ((model_a, req_a), (model_b, req_b)):
        vals = _qmoment_rows(model, req, samples, rng)
        sides.append((_mean_stderr(vals.prod(axis=1)), [_mean_stderr(col) for col in vals.T]))
    ((ma, sa), margins_a), ((mb, sb), margins_b) = sides
    z_joint = abs(ma - mb) / math.hypot(sa, sb) if (sa or sb) else 0.0
    marginals = []
    for (m1, s1), (m2, s2) in zip(margins_a, margins_b):
        z = abs(m1 - m2) / math.hypot(s1, s2) if (s1 or s2) else 0.0
        marginals.append(((m1, s1), (m2, s2), z))

    from .moments import qmoment_integral

    def integral(model, req):  # cached per model, keyed by the request
        key = (req.x2, req.y2, req.colors, req.tau.values)
        if key not in model._integrals:
            model._integrals[key] = qmoment_integral(model, req)
        return model._integrals[key]

    return ShiftReport(
        joint=((ma, sa), (mb, sb)),
        joint_zscore=z_joint,
        marginals=marginals,
        integral_a=integral(model_a, req_a),
        integral_b=integral(model_b, req_b),
    )
