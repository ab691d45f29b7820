"""Laplace-transform determinants for the polymer and the Tracy-Widom GUE law.

Two independent routes compute E[exp(u Z)]:

* ``laplace_series_det`` collapses the discrete shift sum into a kernel on a
  small circle around the sigma cluster and takes a Nystrom determinant;
* ``mb_determinant`` replaces the shift sum by a vertical-line integral
  against pi/sin (Mellin-Barnes form) before discretizing.

Both rest on the gamma-product function g with g(z)/g(z+n) telescoping the
one-step ratio f(z) ... f(z+n-1); ``GFunction`` lives in :mod:`.moments`
(where the moment quadratures share its f) and is re-exported here.  The
shift-sum kernel builds its columns by that telescoping, so it evaluates no
gamma function; its terms reach about e^{|u|} and cancel, which limits the
series route to moderate |u| (at u = -30 on a small model it no longer
stabilizes by 1024 nodes).  The Mellin-Barnes kernel is factored through
sin pi(z - v) = sin(pi z) (cos(pi v) - cot(pi z) sin(pi v)) into a line factor,
scaled by its largest exponent and computed once per ``MBKernel``, and a
circle factor computed per Nystrom level, so no entry evaluates a complex sin
or exp.  For real u both routes count a value outside the range of
E[exp(uZ)], 0 < Z <= 1, as not converged.  The
Tracy-Widom GUE distribution is the Airy-kernel determinant on (r, infinity),
evaluated with Gauss-Legendre quadrature on a truncated interval.  Both
determinants double their node count with ``moments._refine`` up to
``_NODE_CAP``, on contours that each route builds itself.
F2 is evaluated for a chunk of r at a time (one r for ``tracy_widom_F2``, 32
for the table): one ``_airy`` call covers the nodes of both start levels of
every r in the chunk, and only a level past those calls ``_airy`` again.
The Gauss-Legendre rules (the F2 nodes and the Mellin-Barnes line panels) come
from one cached ``_gauss_legendre(m)``, so a rule is built once per process;
its arrays are read-only because every caller shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .moments import ContourError, ConvergenceError, GFunction, _refine, small_sigma_circle
from .specfun import _airy

__all__ = [
    "GFunction",
    "MBKernel",
    "laplace_series_det",
    "mb_determinant",
    "mb_kernel_matrix",
    "fredholm_det",
    "tracy_widom_F2",
    "tracy_widom_cdf_table",
    "ks_distance_to_F2",
]


def _circle(contour):
    if contour.k != 1:
        raise ValueError("expected a single contour")
    return contour.center, contour.radii[0]


# the shift sum's term cap; its terms behave like u^n / n!, so it needs about e |u| of them
_SHIFT_TERMS = 2000
# node doubling of the circle determinant: first level and stabilization threshold
_NYSTROM_START = 64
_NYSTROM_RTOL = 1e-10
# stabilization threshold of F2, and the node cap of both determinants
_F2_RTOL = 1e-9
_NODE_CAP = 1024


def _series_kernel_matrix(gf, u, v, tol=1e-16, n_cap=_SHIFT_TERMS):
    """K(v_a, v_b) = sum_n g(v_a)/g(v_a + n) u^n / (v_a + n - v_b).

    The column g(v)/g(v + n) u^n is telescoped as col_{n-1} u f(v + n - 1), so
    no gamma function is evaluated; each term is divided in one reused buffer.
    """
    K = np.zeros((v.size, v.size), dtype=complex)
    if u == 0:
        return K, 0
    diff = v[:, None] - v[None, :]
    term = np.empty_like(K)
    col = np.ones(v.size, dtype=complex)
    quiet = 0
    n = 0
    while n < n_cap:
        n += 1
        col *= u * gf.f(v + (n - 1))
        np.add(diff, n, out=term)
        np.divide(col[:, None], term, out=term)
        K += term
        mx = np.abs(term).max()
        quiet = quiet + 1 if mx < tol else 0
        if quiet >= 3:
            return K, n
    raise ConvergenceError(f"shift sum did not converge within {n_cap} terms", None)


def fredholm_det(kernel, contour, strict=True, with_info=False):
    """det(I + K) over a closed contour with the dz/(2*pi*i) measure.

    ``kernel`` maps (v_row, v_col) node arrays to the kernel matrix.  The nodes
    double from ``_NYSTROM_START`` up to ``_NODE_CAP`` until stable to ``_NYSTROM_RTOL``.
    """
    _circle(contour)

    def eval_at(m):
        (v,), (w,) = contour.nodes(m), contour.weights(m)
        K = np.asarray(kernel(v, v), dtype=complex)
        A = np.eye(m, dtype=complex) + K * w[None, :]
        return complex(np.linalg.det(A))

    return _refine(eval_at, _NYSTROM_START, _NYSTROM_RTOL, _NODE_CAP, strict, with_info,
                   what="Nystrom determinant")


def laplace_series_det(pmodel, x, y, u, strict=True, with_info=False):
    """E[exp(u Z_{x,y})] via the shift-sum kernel determinant on the small circle.

    ``with_info`` adds {"nodes", "converged", "terms"}, ``terms`` being the
    most shift-sum terms that any kernel evaluation used.  A u with
    e |u| > 2000 is rejected up front: its shift sum cannot converge within the
    term cap, and ``mb_determinant`` (the Mellin-Barnes route) serves it.
    """
    if math.e * abs(u) > _SHIFT_TERMS:
        raise ValueError(f"|u| = {abs(u):.4g} needs about e|u| = {math.e * abs(u):.4g} shift-sum terms, more "
                         f"than the {_SHIFT_TERMS}-term cap; use mb_determinant (the Mellin-Barnes route)")
    gf = GFunction(pmodel, x, y)
    contour = small_sigma_circle(pmodel, x, y)
    terms = 0

    def kernel(v_row, v_col):
        nonlocal terms
        K, n = _series_kernel_matrix(gf, u, v_row)
        terms = max(terms, n)
        return K

    val, info = fredholm_det(kernel, contour, strict=strict, with_info=True)
    return _laplace_checked(u, val, dict(info, terms=terms), strict, with_info)


# slack of the range test on a converged Laplace transform
_RANGE_SLACK = 1e-8


def _laplace_checked(u, val, info, strict, with_info):
    """Demote a converged value that no Laplace transform of 0 < Z <= 1 can take.

    For real u, E[exp(u Z)] is real and lies between e^u and 1.  A value outside
    that interval or with an imaginary part, beyond ``_RANGE_SLACK``, counts as
    not converged: ``ConvergenceError`` when ``strict``, else ``converged`` False.
    """
    u = complex(u)
    if info["converged"] and u.imag == 0:
        edge = math.exp(u.real) if u.real < 700.0 else math.inf
        lo, hi = min(1.0, edge) - _RANGE_SLACK, max(1.0, edge) + _RANGE_SLACK
        if not (lo <= val.real <= hi and abs(val.imag) <= _RANGE_SLACK):
            if strict:
                raise ConvergenceError(f"determinant {val} is not a Laplace transform of 0 < Z <= 1 at "
                                       f"u = {u.real:.6g}: it must be real and lie between e^u and 1", val)
            info = dict(info, converged=False)
    return (val, info) if with_info else val


@dataclass
class MBKernel:
    """Mellin-Barnes kernel data: circle nodes and a truncated vertical line.

    The line integrand -pi/sin(pi(z - v)) exp((z - v) log(-u)) g(v)/g(z) splits
    into a line factor a_z, a circle factor b_v and a denominator, using
    sin pi(z - v) = sin(pi z) (cos(pi v) - cot(pi z) sin(pi v)).  The line side
    is the same at every Nystrom level, so it is computed once per instance.
    """

    gf: GFunction
    u: complex
    h: float
    T: float
    z_nodes: np.ndarray
    z_weights: np.ndarray
    tail_estimate: float

    @cached_property
    def _line_side(self):
        """(a_z, cot(pi z), c): a_z = w_z (-pi) exp(z log(-u) - log g(z) - log sin(pi z) - c),
        c being the largest real part of that exponent, so max |a_z| = pi max w_z."""
        z = self.z_nodes
        # exp(2 pi i s z) with s = sign(Im z) has modulus <= 1, so log sin(pi z) and
        # cot(pi z) stay finite however far the line reaches
        s = np.where(z.imag >= 0, 1.0, -1.0)
        e = np.exp(2j * np.pi * s * z)
        log_sin = -1j * np.pi * s * z + np.log((e - 1.0) / (2j * s))
        cot = 1j * s * (1.0 + e) / (e - 1.0)
        expo = z * np.log(-self.u) - self.gf.log_g(z) - log_sin
        c = float(expo.real.max())
        return -np.pi * self.z_weights * np.exp(expo - c), cot, c

    def matrix(self, v_row, v_col):
        a, cot, c = self._line_side
        b = np.exp(self.gf.log_g(v_row) - v_row * np.log(-self.u) + c)
        # row v, line node z: b_v a_z / (cos(pi v) - cot(pi z) sin(pi v))
        den = np.multiply.outer(np.sin(np.pi * v_row), -cot)
        den += np.cos(np.pi * v_row)[:, None]
        weighted = np.multiply.outer(b, a)
        weighted /= den
        # integrate over z against 1/(z - v'): result (row v, col v')
        return weighted @ (1.0 / (self.z_nodes[:, None] - v_col[None, :]))


@lru_cache(maxsize=16)
def _gauss_legendre(m):
    """The m-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    xg, wg = np.polynomial.legendre.leggauss(m)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


# Gauss-Legendre nodes per panel of the Mellin-Barnes line, and the panel length
_LINE_ORDER = 16
_LINE_PANEL = 0.5
# the line grows until the integrand envelope at its ends is below this
_MB_TAIL_TOL = 1e-12


def _gl_line_nodes(h, T):
    """Gauss-Legendre panels along the vertical segment [h - iT, h + iT]."""
    xg, wg = _gauss_legendre(_LINE_ORDER)
    ts = []
    ws = []
    t0 = -T
    while t0 < T - 1e-12:
        t1 = min(t0 + _LINE_PANEL, T)
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts.append(mid + half * xg)
        ws.append(half * wg)
        t0 = t1
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    # dz = i dt and the measure is dz/(2*pi*i) -> dt/(2*pi)
    return h + 1j * t, w / (2.0 * math.pi)


def mb_kernel_matrix(pmodel, x, y, u, T=None):
    """The Mellin-Barnes kernel on ``small_sigma_circle`` and the line Re z = max sigma + 1/2."""
    u = complex(u)
    if not (u.real < 0 and abs(np.angle(-u)) < math.pi / 2 - 1e-12):
        raise ValueError("need arg(-u) strictly inside (-pi/2, pi/2)")
    gf = GFunction(pmodel, x, y)
    contour = small_sigma_circle(pmodel, x, y)
    center, radius = _circle(contour)
    h = max(pmodel.corner_slots(x, y)[0]) + 0.5
    if not (center + radius < h < center + 1.0 - radius):
        raise ContourError("vertical line does not separate the circle from its +1 shift")

    T_cur = 8.0 if T is None else T
    # integrand envelope at the truncation endpoints, maximized over the circle
    v_probe = center + radius * np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    lgv = gf.log_g(v_probe)
    lu = np.log(-u)
    while True:
        z, w = _gl_line_nodes(h, T_cur)
        ends = np.array([h + 1j * T_cur, h - 1j * T_cur])
        lgz = gf.log_g(ends)
        mags = []
        for e, lge in zip(ends, lgz):
            val = np.abs(-np.pi / np.sin(np.pi * (e - v_probe))) * np.abs(
                np.exp((e - v_probe) * lu + lgv - lge)
            )
            mags.append(val.max() / max(T_cur - abs(np.imag(v_probe)).max(), 1.0))
        tail = float(max(mags)) * 2.0 / math.pi
        if T is not None or tail < _MB_TAIL_TOL or T_cur >= 64.0:
            break
        T_cur *= 1.6
    kern = MBKernel(gf=gf, u=u, h=h, T=T_cur, z_nodes=z, z_weights=w, tail_estimate=tail)
    return kern, contour


def mb_determinant(pmodel, x, y, u, T=None, strict=True, with_info=False):
    """E[exp(u Z_{x,y})] via the Mellin-Barnes kernel determinant.

    The contours are those of ``mb_kernel_matrix``, the circle refined as in
    ``fredholm_det``.  ``with_info`` adds {"nodes", "converged", "nodes_L", "T",
    "panels", "tail"}: the circle nodes, the line nodes, the line's half-length, its
    Gauss-Legendre panels and ``MBKernel.tail_estimate`` at the truncation.
    Only the circle nodes are refined, so a caller-fixed ``T`` whose ``tail``
    is large gives a converged but truncated value.
    """
    kern, contour = mb_kernel_matrix(pmodel, x, y, u, T=T)
    val, info = fredholm_det(kern.matrix, contour, strict=strict, with_info=True)
    info = dict(info, nodes_L=int(kern.z_nodes.size), T=kern.T, panels=int(kern.z_nodes.size) // _LINE_ORDER,
                tail=kern.tail_estimate)
    return _laplace_checked(kern.u, val, info, strict, with_info)


# ---------------------------------------------------------------------------
# Tracy-Widom GUE.


def _airy_kernel_matrix(xs, ai, aip):
    """K_Airy on the nodes xs, from their values Ai(xs) and Ai'(xs)."""
    diff = xs[:, None] - xs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (ai[:, None] * aip[None, :] - ai[None, :] * aip[:, None]) / diff
    d = aip**2 - xs * ai**2
    np.fill_diagonal(K, d)
    return K


def _airy_nodes(r, upper, m):
    return 0.5 * (r + upper) + 0.5 * (upper - r) * _gauss_legendre(m)[0]


def _airy_det(r, upper, m, airy=None):
    """det(I - K_Airy) on (r, upper) with the m-point rule; ``airy`` is (xs, Ai, Ai') if precomputed."""
    if airy is None:
        xs = _airy_nodes(r, upper, m)
        airy = (xs, *_airy(xs))
    K = _airy_kernel_matrix(*airy)
    sw = np.sqrt(0.5 * (upper - r) * _gauss_legendre(m)[1])
    A = np.eye(m) - K * (sw[:, None] * sw[None, :])
    sign, logdet = np.linalg.slogdet(A)
    return float(sign * np.exp(logdet))


def _tracy_widom_chunk(rs, nodes=96, upper=None, with_info=False):
    """``tracy_widom_F2`` at every r of ``rs``, with one ``_airy`` call for the chunk.

    ``_refine`` always evaluates the levels ``nodes`` and ``2 * nodes`` (only
    ``nodes`` when ``2 * nodes`` passes ``_NODE_CAP``), so the Airy values at those
    nodes for every r come from one array call; a finer level calls ``_airy`` on
    its own nodes.  ``_airy`` stops each element on its own term test, so every
    value equals the one-point evaluation.
    """
    bounds = []
    for r in rs:
        r = float(r)
        if math.isnan(r) or r < -9.0:
            raise ValueError(f"tracy_widom_F2 needs r >= -9 (the Airy evaluation range), got r = {r}")
        bounds.append((r, max(r + 4.0, 10.0) if upper is None else upper))
    levels = [nodes] if 2 * nodes > _NODE_CAP else [nodes, 2 * nodes]
    xs = [_airy_nodes(r, up, m) for r, up in bounds if up > r for m in levels]
    if xs:
        ai, aip = _airy(np.concatenate(xs))
        cuts = np.cumsum([x.size for x in xs])[:-1]
        airy = iter(zip(xs, np.split(ai, cuts), np.split(aip, cuts)))
    out = []
    for r, up in bounds:
        if up <= r:
            out.append((1.0, {"nodes": 0, "converged": True}) if with_info else 1.0)
            continue
        pre = {m: next(airy) for m in levels}
        out.append(_refine(lambda m: _airy_det(r, up, m, pre.get(m)), nodes, _F2_RTOL, _NODE_CAP,
                           with_info=with_info, what="Airy-kernel determinant"))
    return out


def tracy_widom_F2(r, nodes=96, upper=None, with_info=False):
    """F_2(r) = det(I - K_Airy) on L^2(r, infinity), Gauss-Legendre Nystrom.

    ``r`` must be >= -9, where the Airy evaluation stops; r = +inf gives 1.  The nodes
    double up to ``_NODE_CAP`` until stable to ``_F2_RTOL``; ``with_info`` adds {"nodes", "converged"}.
    """
    return _tracy_widom_chunk([r], nodes, upper, with_info)[0]


# r values per ``_airy`` call in the table: 32 x (96 + 192) nodes keep the Airy
# temporaries under 1 MB
_TABLE_CHUNK = 32
# the table's grid (F_2(-8.5) ~ 1e-10 and 1 - F_2(6) ~ 4e-12: both tails are 0 or 1 at sampling resolutions)
_TABLE_LO, _TABLE_HI, _TABLE_STEP = -8.5, 6.0, 0.05


@lru_cache(maxsize=1)
def tracy_widom_cdf_table():
    """The table's grid and F_2 on it, clipped to [0, 1]; computed once per process."""
    grid = np.arange(_TABLE_LO, _TABLE_HI + _TABLE_STEP / 2, _TABLE_STEP)
    vals = np.array([v for k in range(0, grid.size, _TABLE_CHUNK)
                     for v in _tracy_widom_chunk(grid[k:k + _TABLE_CHUNK])])
    return grid, np.clip(vals, 0.0, 1.0)


def tw_cdf(x):
    grid, vals = tracy_widom_cdf_table()
    return np.interp(np.asarray(x, dtype=float), grid, vals, left=0.0, right=1.0)


def ks_distance_to_F2(samples):
    """Kolmogorov-Smirnov distance between an empirical sample and F_2."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if not np.isfinite(xs).all():
        raise ValueError("ks_distance_to_F2 needs finite samples")
    n = xs.size
    cdf = tw_cdf(xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
