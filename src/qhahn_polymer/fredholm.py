"""Laplace-transform determinants for the polymer and the Tracy-Widom GUE law.

Two independent routes compute E[exp(u Z)]:

* ``laplace_series_det`` collapses the discrete shift sum into a kernel on a
  small circle around the sigma cluster and takes a Nystrom determinant;
* ``mb_determinant`` replaces the shift sum by a vertical-line integral
  against pi/sin (Mellin-Barnes form) before discretizing.

Both rest on the gamma-product function g with g(z)/g(z+n) telescoping the
one-step ratio f(z) ... f(z+n-1); ``GFunction`` lives in :mod:`.moments`
(where the moment quadratures share its f) and is re-exported here.  The
Tracy-Widom GUE distribution is the Airy-kernel determinant on (r, infinity),
evaluated with Gauss-Legendre quadrature on a truncated interval.  Both
determinants double their node count with ``moments._refine`` up to 1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import ContourError, ConvergenceError, GFunction, _refine, small_sigma_circle
from .specfun import airy_ai, airy_ai_prime

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


def _series_kernel_matrix(gf, u, v, tol=1e-16, n_cap=2000):
    """K(v_a, v_b) = sum_n g(v_a)/g(v_a + n) u^n / (v_a + n - v_b)."""
    lg_v = gf.log_g(v)
    K = np.zeros((v.size, v.size), dtype=complex)
    quiet = 0
    lu = np.log(complex(u)) if u != 0 else None
    if u == 0:
        return K, 0
    n = 0
    while n < n_cap:
        n += 1
        col = np.exp(lg_v - gf.log_g(v + n) + n * lu)
        term = col[:, None] / (v[:, None] + n - v[None, :])
        K += term
        mx = np.abs(term).max()
        quiet = quiet + 1 if mx < tol else 0
        if quiet >= 3:
            return K, n
    raise ConvergenceError(f"shift sum did not converge within {n_cap} terms", None)


def fredholm_det(kernel, contour, nodes=64, rtol=1e-10, atol=1e-13, strict=True, with_info=False):
    """det(I + K) over a closed contour with the dz/(2*pi*i) measure.

    ``kernel`` maps (v_row, v_col) node arrays to the kernel matrix.
    """
    _circle(contour)

    def eval_at(m):
        (v,), (w,) = contour.nodes(m), contour.weights(m)
        K = np.asarray(kernel(v, v), dtype=complex)
        A = np.eye(m, dtype=complex) + K * w[None, :]
        return complex(np.linalg.det(A))

    return _refine(eval_at, nodes, rtol, atol, 1024, strict, with_info, what="Nystrom determinant")


def laplace_series_det(pmodel, x, y, u, contour=None, nodes=64, rtol=1e-10, strict=True):
    """E[exp(u Z_{x,y})] via the shift-sum kernel determinant on the small circle."""
    gf = GFunction(pmodel, x, y)
    if contour is None:
        contour = small_sigma_circle(pmodel, x, y)

    def kernel(v_row, v_col):
        K, _ = _series_kernel_matrix(gf, u, v_row)
        return K

    return fredholm_det(kernel, contour, nodes=nodes, rtol=rtol, strict=strict)


@dataclass
class MBKernel:
    """Mellin-Barnes kernel data: circle nodes and a truncated vertical line."""

    gf: GFunction
    u: complex
    h: float
    T: float
    z_nodes: np.ndarray
    z_weights: np.ndarray
    tail_estimate: float

    def matrix(self, v_row, v_col):
        lu = np.log(-complex(self.u))
        lg_v = self.gf.log_g(v_row)
        lg_z = self.gf.log_g(self.z_nodes)
        zz = self.z_nodes[None, :]
        vv = v_row[:, None]
        core = (-np.pi / np.sin(np.pi * (zz - vv))) * np.exp((zz - vv) * lu + lg_v[:, None] - lg_z[None, :])
        # integrate over z against 1/(z - v'): result (row v, col v')
        weighted = core * self.z_weights[None, :]
        return weighted @ (1.0 / (self.z_nodes[:, None] - v_col[None, :]))


def _gl_line_nodes(h, T, panel=0.5, order=16):
    """Gauss-Legendre panels along the vertical segment [h - iT, h + iT]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    ts = []
    ws = []
    t0 = -T
    while t0 < T - 1e-12:
        t1 = min(t0 + panel, T)
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts.append(mid + half * xg)
        ws.append(half * wg)
        t0 = t1
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    # dz = i dt and the measure is dz/(2*pi*i) -> dt/(2*pi)
    return h + 1j * t, w / (2.0 * math.pi)


def mb_kernel_matrix(pmodel, x, y, u, contour=None, T=None, h=None, tail_tol=1e-12):
    """Build the Mellin-Barnes kernel with a validated line truncation."""
    u = complex(u)
    if not (u.real < 0 and abs(np.angle(-u)) < math.pi / 2 - 1e-12):
        raise ValueError("need arg(-u) strictly inside (-pi/2, pi/2)")
    gf = GFunction(pmodel, x, y)
    if contour is None:
        contour = small_sigma_circle(pmodel, x, y)
    center, radius = _circle(contour)
    sig = gf.sigma_values()
    if h is None:
        h = max(sig) + 0.5
    if not (center + radius < h < center + 1.0 - radius):
        raise ContourError("vertical line does not separate the circle from its +1 shift")

    T_cur = 8.0 if T is None else T
    while True:
        z, w = _gl_line_nodes(h, T_cur)
        # integrand envelope at the truncation endpoints, maximized over the circle
        v_probe = center + radius * np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
        ends = np.array([h + 1j * T_cur, h - 1j * T_cur])
        lgv = gf.log_g(v_probe)
        lgz = gf.log_g(ends)
        lu = np.log(-u)
        mags = []
        for e, lge in zip(ends, lgz):
            val = np.abs(-np.pi / np.sin(np.pi * (e - v_probe))) * np.abs(
                np.exp((e - v_probe) * lu + lgv - lge)
            )
            mags.append(val.max() / max(T_cur - abs(np.imag(v_probe)).max(), 1.0))
        tail = float(max(mags)) * 2.0 / math.pi
        if T is not None or tail < tail_tol or T_cur >= 64.0:
            break
        T_cur *= 1.6
    kern = MBKernel(gf=gf, u=u, h=h, T=T_cur, z_nodes=z, z_weights=w, tail_estimate=tail)
    return kern, contour


def mb_determinant(pmodel, x, y, u, contour=None, nodes=64, rtol=1e-10, T=None, strict=True,
                   with_info=False):
    """E[exp(u Z_{x,y})] via the Mellin-Barnes kernel determinant."""
    kern, contour = mb_kernel_matrix(pmodel, x, y, u, contour=contour, T=T)
    out = fredholm_det(kern.matrix, contour, nodes=nodes, rtol=rtol, strict=strict,
                       with_info=with_info)
    if with_info:
        val, info = out
        info = dict(info, nodes_L=int(kern.z_nodes.size), T=kern.T)
        return val, info
    return out


# ---------------------------------------------------------------------------
# Tracy-Widom GUE.


def _airy_kernel_matrix(xs):
    ai = np.array([airy_ai(x) for x in xs])
    aip = np.array([airy_ai_prime(x) for x in xs])
    diff = xs[:, None] - xs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (ai[:, None] * aip[None, :] - ai[None, :] * aip[:, None]) / diff
    d = aip**2 - xs * ai**2
    np.fill_diagonal(K, d)
    return K


def tracy_widom_F2(r, nodes=96, rtol=1e-9, upper=None):
    """F_2(r) = det(I - K_Airy) on L^2(r, infinity), Gauss-Legendre Nystrom."""
    r = float(r)
    if upper is None:
        upper = max(r + 4.0, 10.0)
    if upper <= r:
        return 1.0

    def eval_at(m):
        xg, wg = np.polynomial.legendre.leggauss(m)
        xs = 0.5 * (r + upper) + 0.5 * (upper - r) * xg
        ws = 0.5 * (upper - r) * wg
        K = _airy_kernel_matrix(xs)
        sw = np.sqrt(ws)
        A = np.eye(m) - K * (sw[:, None] * sw[None, :])
        sign, logdet = np.linalg.slogdet(A)
        return float(sign * np.exp(logdet))

    return _refine(eval_at, nodes, rtol, 1e-13, 1024, what="Airy-kernel determinant")


@lru_cache(maxsize=8)
def tracy_widom_cdf_table(lo=-8.5, hi=6.0, step=0.05):
    """Cached grid of F_2 for interpolation (F_2(-8.5) ~ 1e-10, so the left
    tail is indistinguishable from zero at sampling resolutions)."""
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([tracy_widom_F2(float(rr)) for rr in grid])
    return grid, np.clip(vals, 0.0, 1.0)


def tw_cdf(x):
    grid, vals = tracy_widom_cdf_table()
    return np.interp(np.asarray(x, dtype=float), grid, vals, left=0.0, right=1.0)


def ks_distance_to_F2(samples):
    """Kolmogorov-Smirnov distance between an empirical sample and F_2."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    cdf = tw_cdf(xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
