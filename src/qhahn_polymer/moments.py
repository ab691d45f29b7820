"""Nested-contour quadrature for the q-moment and polymer moment formulas.

Contours are concentric circles around the pole cluster.  Trapezoid rule on a
circle is spectrally accurate for analytic integrands, so node counts double
from a small start until the value stabilizes.  The operator factor is applied
on the tensor grid by tracking the family of axis-to-circle assignments that
argument swaps generate.  Arrays stay on the physical grid (axis b holds the
nodes of circle b), so a swap of arguments is a swap of assignments read at the
same grid index.  The k-fold sum runs over slabs of the first axis in buffers
allocated once per call: memory is O(k! slab), not O(k! m^k).

This module is the numerical core shared with :mod:`.fredholm`: the circle
rule (``NestedContours.nodes``/``weights``), the node-doubling routine
``_refine`` (also behind the Nystrom and Airy-kernel determinants) and the
polymer ratio and gamma product ``GFunction`` (re-exported by ``fredholm``).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qtools import Permutation
from .specfun import log_gamma

__all__ = [
    "ContourError",
    "ConvergenceError",
    "GFunction",
    "NestedContours",
    "build_contours",
    "build_shifted_contours",
    "qmoment_integral",
    "beta_moment_integral",
    "single_contour_moment",
    "tensor_quadrature",
]

_NODE_CAPS = {1: 4096, 2: 2048, 3: 192, 4: 32}
_NODE_STARTS = {1: 64, 2: 64, 3: 48, 4: 16}
# relative node-doubling stabilization thresholds; looser where the node cap binds
_REFINE_RTOL = {1: 1e-10, 2: 1e-10, 3: 3e-9, 4: 1e-7}


class ContourError(ValueError):
    """Requested contour family cannot be realized; message names the constraint."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, value):
        super().__init__(message)
        self.value = value


@dataclass(frozen=True)
class NestedContours:
    """Concentric positively oriented circles; radii ascending (index 1 innermost)."""

    center: float
    radii: tuple
    margin: float = 0.0

    @property
    def k(self):
        return len(self.radii)

    def nodes(self, m):
        theta = 2.0 * np.pi * np.arange(m) / m
        ring = np.exp(1j * theta)
        return [self.center + r * ring for r in self.radii]

    def weights(self, m):
        """Quadrature weights absorbing dw/(2*pi*i) per circle."""
        theta = 2.0 * np.pi * np.arange(m) / m
        ring = np.exp(1j * theta)
        return [r * ring / m for r in self.radii]


@dataclass
class GFunction:
    """Gamma-product g for a polymer corner (x, y); evaluates log g stably.

    ``f`` is the one-step ratio prod_j (z - rho_j) / (prod_i (z - sigma_i)
    prod_d (z - omega_d)) with g(z)/g(z+n) = f(z) ... f(z+n-1).  Equal
    parameter values are grouped once per instance, so each distinct value
    costs one ``log_gamma`` times its count, or one logarithm times its count in
    ``f``; a value that occurs once keeps its direct factor.
    """

    pmodel: object
    x: int
    y: int

    @cached_property
    def _groups(self):
        """The sigma, rho and omega slots as (value, count) pairs, in first-seen order."""
        pm = self.pmodel
        return tuple(tuple(Counter(vals).items()) for vals in (
            [pm.sigma(i) for i in range(0, self.x + 1)],
            [pm.rho(j) for j in range(1, self.y + 1)],
            [pm.omega(d) for d in range(1, self.y - self.x + 1)]))

    def log_g(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        sigma, rho, omega = self._groups
        for v, c in sigma:
            out += _times(c, log_gamma(z - v))
        for v, c in rho:
            out -= _times(c, log_gamma(z - v))
        for v, c in omega:
            out += _times(c, log_gamma(z - v))
        return out

    def f(self, z):
        z = np.asarray(z, dtype=complex)
        val, log_rep = np.ones_like(z), None
        sigma, rho, omega = self._groups
        for groups, sign in ((rho, 1), (sigma, -1), (omega, -1)):
            for v, c in groups:
                if c > 1:
                    # repeated values enter as c log(z - v), summed before one exp: a
                    # power such as (z - v)^700 overflows where the ratio is finite
                    term = sign * c * np.log(z - v)
                    log_rep = term if log_rep is None else log_rep + term
                elif sign > 0:
                    val = val * (z - v)
                else:
                    val = val / (z - v)
        return val if log_rep is None else val * np.exp(log_rep)

    def sigma_values(self):
        return [self.pmodel.sigma(i) for i in range(0, self.x + 1)]


def _times(c, a):
    # a count of 1 takes no multiply, so all-distinct schedules keep the ungrouped arithmetic
    return a if c == 1 else c * a


def build_contours(model, k, pad=0.3):
    """Circle family for the lattice q-moment integrals.

    All 1/mu_i and 1/kappa_j lie inside every circle; 0 and the 1/lam_d stay
    outside; each circle together with its q-scaled copy fits strictly inside
    the next one.
    """
    inside = [1.0 / m for m in model.mu] + [1.0 / kk for kk in model.kappa]
    outside_right = min(1.0 / ll for ll in model.lam)
    lo, hi = min(inside), max(inside)
    center = 0.5 * (lo + hi)
    r_cluster = 0.5 * (hi - lo)
    clearance = min(center - 0.0, outside_right - center)
    if clearance <= r_cluster:
        which = "0" if center <= outside_right - center else "1/lam"
        raise ContourError(
            f"pole cluster radius {r_cluster:.4g} reaches the excluded point {which} "
            f"(clearance {clearance:.4g})"
        )
    q = model.q
    radii = []
    r = r_cluster + pad * (clearance - r_cluster)
    radii.append(r)
    for _ in range(k - 1):
        lower = max(r, center * (1.0 - q) + q * r)
        if lower >= clearance:
            raise ContourError(
                "q-scaled containment pushes the outer radius onto the excluded set "
                f"(needed > {lower:.4g}, clearance {clearance:.4g}); the binding "
                "constraint is " + ("'0 outside'" if center <= outside_right - center else "'1/lam outside'")
            )
        r = lower + pad * (clearance - lower)
        radii.append(r)
    cont = NestedContours(center=center, radii=tuple(radii), margin=clearance - radii[-1])
    _validate_lattice_contours(cont, model, k)
    return cont


def _validate_lattice_contours(cont, model, k):
    c = cont.center
    eps = 1e-6
    for p in [1.0 / m for m in model.mu] + [1.0 / kk for kk in model.kappa]:
        if abs(p - c) >= cont.radii[0] * (1 - eps):
            raise ContourError(f"pole {p:.4g} not strictly inside the innermost circle")
    for p in [0.0] + [1.0 / ll for ll in model.lam]:
        if abs(p - c) <= cont.radii[-1] * (1 + eps):
            raise ContourError(f"excluded point {p:.4g} not strictly outside the outer circle")
    q = model.q
    for a in range(k - 1):
        if cont.radii[a] >= cont.radii[a + 1] * (1 - eps):
            raise ContourError("circles are not strictly nested")
        if c * (1 - q) + q * cont.radii[a] >= cont.radii[a + 1] * (1 - eps):
            raise ContourError("q-scaled circle not strictly inside the next circle")


def build_shifted_contours(pmodel, k, x, y, pad_cap=0.35):
    """Circle family for the polymer moment integrals (unit-shift containment)."""
    inside = [pmodel.sigma(i) for i in range(0, x + 1)] + [pmodel.rho(j) for j in range(1, y + 1)]
    omegas = [pmodel.omega(d) for d in range(1, y - x + 1)] if y > x else []
    lo, hi = min(inside), max(inside)
    center = 0.5 * (lo + hi)
    r_cluster = 0.5 * (hi - lo)
    out_max = max(omegas) if omegas else -math.inf
    clearance = center - out_max
    slack = clearance - r_cluster - (k - 1)
    if slack <= 1e-9:
        raise ContourError(
            f"omega cluster too close: need clearance > cluster + {k - 1} for {k} "
            f"unit-shifted circles, have {clearance:.4g} vs {r_cluster:.4g} + {k - 1}"
        )
    delta = min(slack / (k + 1), pad_cap)
    radii = [r_cluster + delta]
    for _ in range(k - 1):
        radii.append(radii[-1] + 1.0 + delta)
    if omegas and center - radii[-1] <= out_max + 1e-9:
        raise ContourError("outer circle reaches an omega point")
    return NestedContours(center=center, radii=tuple(radii), margin=delta)


# ---------------------------------------------------------------------------
# Hecke application on tensor grids.
#
# Every array lives on the physical grid: axis b holds the nodes of circle b.
# For an axis-to-circle assignment ``asg``, F_asg holds F at the point whose
# argument a is taken from circle asg[a], so F(s_i w) is F_{swap(asg, i)} at
# the same grid index.  The k-fold sum runs over slabs of axis 0, and every
# slab array is written into buffers allocated once per call.

# grid points per slab (at least one row of axis 0): 512 KB per complex buffer
# keeps a level's working set near the cache; 2^17 ran about 40% slower at k = 3
_SLAB_CELLS = 1 << 15


def _swap_assign(asg, i):
    lst = list(asg)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def _axis_view(arr1d, axis, k):
    shape = [1] * k
    shape[axis] = arr1d.size
    return arr1d.reshape(shape)


def _slab(arr, rows):
    """The rows of axis 0 of a physical-layout array; a broadcast axis 0 is kept whole."""
    return arr if arr.shape[0] == 1 else arr[rows]


def _pair_tables(fn, keys, views, shared=None):
    """{(b1, b2): fn(views[b1], views[b2])} over ``keys``, reusing the tables in ``shared``."""
    shared = shared or {}
    return {key: shared[key] if key in shared else fn(views[key[0]], views[key[1]]) for key in keys}


def _product_into(out, factors):
    """out = factors[0] * factors[1] * ..., left to right, broadcast to out's shape."""
    if len(factors) == 1:
        np.copyto(out, factors[0])
    else:
        np.multiply(factors[0], factors[1], out=out)
    for f in factors[2:]:
        np.multiply(out, f, out=out)
    return out


class _HeckeSlabs:
    """T_word G for G(w) = prod_a g_a(w_a), one slab at a time in reused buffers.

    ``gviews[a][b]`` is g_{a+1} on the nodes of circle b+1, placed on axis b;
    ``coeffs[(b1, b2)]`` is coeff(w_i, w_{i+1}) with w_i on circle b1 and
    w_{i+1} on circle b2, both placed on their own axes.
    """

    def __init__(self, word, k, const, shape):
        self.word, self.const = word, const
        # needed[d]: the assignments that levels d.. of the word reach from the identity
        self.needed = [{tuple(range(k))}]
        for i in word:
            self.needed.append(self.needed[-1] | {_swap_assign(a, i) for a in self.needed[-1]})
        self.coeff_keys = {(a[i - 1], a[i]) for d, i in enumerate(word) for a in self.needed[d]}
        # levels alternate between two pools: the last level's sets in one, the one before in the other
        pools = [self.needed[-1], self.needed[-2] if word else ()]
        self.pools = [{asg: np.empty(shape, dtype=complex) for asg in keys} for keys in pools]
        self.tmp = np.empty(shape, dtype=complex)

    def apply(self, n, gviews, coeffs):
        """The (n, ...) slab of T_word G; a view of a buffer that the next call overwrites."""
        k = len(gviews)
        cur, nxt = ({asg: buf[:n] for asg, buf in pool.items()} for pool in self.pools)
        tmp = self.tmp[:n]
        for asg in self.needed[-1]:
            _product_into(cur[asg], [gviews[a][asg[a]] for a in range(k)])
        for d in range(len(self.word) - 1, -1, -1):
            i = self.word[d]
            for asg in self.needed[d]:
                base = cur[asg]
                np.subtract(cur[_swap_assign(asg, i)], base, out=tmp)
                np.multiply(coeffs[(asg[i - 1], asg[i])], tmp, out=tmp)
                np.multiply(self.const, base, out=nxt[asg])
                np.add(nxt[asg], tmp, out=nxt[asg])
            cur, nxt = nxt, cur
        return cur[tuple(range(k))]


def hecke_tensor(word, gvals, nodes, const, coeff):
    """Apply the operator word to G(w) = prod_a g_a(w_a) on the tensor grid.

    gvals[a][b] holds g_{a+1} evaluated on the nodes of circle b+1; nodes is
    the list of per-circle node arrays (equal length).  Returns the array of
    (T_word G) on the physical grid (axis a <-> circle a).
    """
    k = len(nodes)
    views = [_axis_view(np.asarray(nodes[b]), b, k) for b in range(k)]
    gviews = [[_axis_view(np.asarray(g[b], dtype=complex), b, k) for b in range(k)] for g in gvals]
    hecke = _HeckeSlabs(tuple(word), k, const, (views[0].size,) * k)
    return hecke.apply(views[0].size, gviews, _pair_tables(coeff, hecke.coeff_keys, views))


def tensor_quadrature(contours, m, axis_fns, pair_fn, op_factor=None):
    """Evaluate the k-fold circle quadrature.

    axis_fns[a](w) is the per-variable factor (measure weights are added here);
    pair_fn(wa, wb) multiplies over ordered pairs a < b; op_factor is
    (word, g_fns, const, coeff) for the operator factor.  The sum runs over
    slabs of about ``_SLAB_CELLS`` grid points, so memory is O(k! slab) and
    not O(k! m^k).
    """
    k = contours.k
    nodes = contours.nodes(m)
    weights = contours.weights(m)
    views = [_axis_view(nodes[b], b, k) for b in range(k)]
    factors = [_axis_view(np.asarray(axis_fns[a](nodes[a]), dtype=complex) * weights[a], a, k)
               for a in range(k)]
    pair_keys = [(a, b) for a in range(k) for b in range(a + 1, k)]
    g_factors, hecke, coeff, coeff_keys = [], None, None, ()
    rows = min(m, max(1, _SLAB_CELLS // m ** (k - 1)))
    shape = (rows,) + (m,) * (k - 1)
    if op_factor is not None:
        word, g_fns, const, coeff = op_factor
        if word:
            gviews = [[_axis_view(np.asarray(g(nodes[b]), dtype=complex), b, k) for b in range(k)]
                      for g in g_fns]
            hecke = _HeckeSlabs(tuple(word), k, const, shape)
            coeff_keys = hecke.coeff_keys
        else:
            g_factors = [_axis_view(np.asarray(g_fns[a](nodes[a]), dtype=complex), a, k) for a in range(k)]
    # slabs cut axis 0 only, so the tables off axis 0 serve every slab
    pairs = _pair_tables(pair_fn, [key for key in pair_keys if 0 not in key], views)
    coeffs = _pair_tables(coeff, [key for key in coeff_keys if 0 not in key], views)
    block = np.empty(shape, dtype=complex)
    total = 0j
    for r0 in range(0, m, rows):
        sl = slice(r0, min(r0 + rows, m))
        vs = [views[0][sl]] + views[1:]
        slab_pairs = _pair_tables(pair_fn, pair_keys, vs, pairs)
        out = _product_into(block[:sl.stop - r0], [_slab(f, sl) for f in factors]
                            + [slab_pairs[key] for key in pair_keys] + [_slab(f, sl) for f in g_factors])
        if hecke is not None:
            gs = [[_slab(v, sl) for v in row] for row in gviews]
            np.multiply(out, hecke.apply(sl.stop - r0, gs, _pair_tables(coeff, coeff_keys, vs, coeffs)), out=out)
        total += complex(out.sum())
    return total


def _refine(eval_at, start_nodes, rtol, atol, cap, strict=True, with_info=False, what="quadrature"):
    """Double nodes from ``start_nodes`` up to ``cap`` until the change stabilizes.

    Trapezoid error on circles decays geometrically, so the change per
    doubling tracks the error of the coarser level; when successive changes
    shrink fast, the finer value's error is estimated by one more decay factor
    and accepted if it meets the tolerance.  A non-finite value is never
    accepted and stops the doubling, since more nodes do not repair an
    overflow.  Without convergence the last value is returned, or carried by
    ``ConvergenceError`` when ``strict``; ``with_info`` adds {"nodes", "converged"}.
    """
    m, val = start_nodes, eval_at(start_nodes)
    prev_delta = None
    ok = False
    while not ok and 2 * m <= cap:
        m *= 2
        cur = eval_at(m)
        if not cmath.isfinite(cur):
            val = cur
            break
        delta = abs(cur - val)
        tol = max(rtol * abs(cur), atol)
        ok = delta <= tol or (
            prev_delta is not None and delta < 0.2 * prev_delta and delta * (delta / prev_delta) <= tol
        )
        val, prev_delta = cur, delta
    if not ok and strict:
        state = "did not stabilize" if cmath.isfinite(val) else f"is not finite ({val})"
        raise ConvergenceError(f"{what} {state} at {m} nodes", val)
    return (val, {"nodes": m, "converged": ok}) if with_info else val


def _nested_quadrature(contours, axis_fns, pair_fn, op_factor, pref, nodes, rtol, atol, strict,
                       with_info):
    """``pref`` times the k-fold circle quadrature, refined with the per-k node tables.

    The tables are read at call time.
    """
    k = contours.k

    def eval_at(m):
        return pref * tensor_quadrature(contours, m, axis_fns, pair_fn, op_factor)

    cap = _NODE_CAPS.get(k, 32)
    start = _NODE_STARTS.get(k, 16) if nodes is None else min(nodes, cap)
    if rtol is None:
        rtol = _REFINE_RTOL.get(k, 1e-7)
    return _refine(eval_at, start, rtol, atol, cap, strict, with_info)


def qmoment_integral(model, req, contours=None, nodes=None, rtol=None, atol=1e-13, strict=True, with_info=False):
    """Contour-integral value of the joint q-moment observable.

    Returns a complex number; its imaginary part is a quadrature sanity
    residual for this real observable.
    """
    req.validate_against(model)
    k = req.k
    if k > 4:
        raise ValueError("tensor quadrature limited to k <= 4")
    if contours is None:
        contours = build_contours(model, k)
    if contours.k != k:
        raise ValueError("contour count must match the request size")
    q = model.q
    ell = req.cutoffs(model)
    tau = req.tau

    def axis_fn(a):
        ix = (req.x2[a] - 1) // 2
        iy = (req.y2[a] - 1) // 2
        nd = (req.y2[a] - req.x2[a]) // 2

        def f(w):
            val = np.ones_like(w)
            for i in range(0, ix + 1):
                val = val / (1.0 - model.mu_of(i) * w)
            for j in range(1, iy + 1):
                val = val * (1.0 - model.kappa_of(j) * w)
            for d in range(1, nd + 1):
                val = val / (1.0 - model.lam_of(d) * w)
            return val / w

        return f

    def g_fn(a):
        def g(w):
            val = np.ones_like(w)
            for i in range(1, ell[a] + 1):
                val = val * (1.0 - model.lam_of(i) * w) / (1.0 - model.kappa_of(i) * w)
            return val

        return g

    word = tau.reduced_word()
    op_factor = (word, [g_fn(a) for a in range(k)], q, lambda wi, wj: (wj - q * wi) / (wj - wi))
    pair_fn = lambda wa, wb: (wb - wa) / (wb - q * wa)
    pref = (-1) ** k * q ** (k * (k - 1) // 2 - tau.length)

    return _nested_quadrature(contours, [axis_fn(a) for a in range(k)], pair_fn, op_factor, pref,
                              nodes, rtol, atol, strict, with_info)


def beta_moment_integral(pmodel, xs, ys, rs, tau=None, contours=None, nodes=None,
                         rtol=None, atol=1e-13, strict=True, with_info=False):
    """Joint moment E[prod_a Z^{(r_{tau^{-1}(a)})}_{x_a, y_a}] by nested quadrature."""
    xs, ys, rs = tuple(xs), tuple(ys), tuple(rs)
    k = len(xs)
    if k > 4:
        raise ValueError("tensor quadrature limited to k <= 4")
    if tau is None:
        tau = Permutation.identity(k)
    if list(xs) != sorted(xs) or list(ys) != sorted(ys, reverse=True):
        raise ValueError("need x ascending and y descending")
    if list(rs) != sorted(rs):
        raise ValueError("need r ascending")
    if any(x > y - r for x, y, r in zip(xs, ys, rs)):
        raise ValueError("need x_a <= y_a - r_a")
    if contours is None:
        contours = build_shifted_contours(pmodel, k, max(xs), max(ys))

    def g_fn(a):
        def g(v):
            val = np.ones_like(v)
            for j in range(1, rs[a] + 1):
                val = val * (v - pmodel.omega(j)) / (v - pmodel.rho(j))
            return val

        return g

    word = tau.reduced_word()
    op_factor = (word, [g_fn(a) for a in range(k)], 1.0, lambda vi, vj: (vj - vi - 1.0) / (vj - vi))
    pair_fn = lambda va, vb: (vb - va) / (vb - va - 1.0)

    axis_fns = [GFunction(pmodel, xs[a], ys[a]).f for a in range(k)]
    return _nested_quadrature(contours, axis_fns, pair_fn, op_factor, 1,
                              nodes, rtol, atol, strict, with_info)


# ---------------------------------------------------------------------------
# Single-contour (partition-sum) form of the polymer moments.


def _partitions(n):
    if n == 0:
        yield ()
        return
    def rec(rest, max_part):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, max_part), 0, -1):
            for tail in rec(rest - p, p):
                yield (p,) + tail
    yield from rec(n, n)


def small_sigma_circle(pmodel, x, y, radius_cap=0.25):
    """Small circle around the sigma cluster with the +1 shift strictly outside."""
    sig = [pmodel.sigma(i) for i in range(0, x + 1)]
    spread = max(sig) - min(sig)
    if spread >= 1.0:
        raise ContourError("sigma spread >= 1: no circle separates the cluster from its +1 shift")
    center = 0.5 * (max(sig) + min(sig))
    others = [pmodel.rho(j) for j in range(1, y + 1)]
    if y > x:
        others += [pmodel.omega(d) for d in range(1, y - x + 1)]
    gap = min(abs(p - center) for p in others) if others else math.inf
    radius = min(radius_cap, 0.5 * (1.0 - spread / 2.0), 0.5 * gap)
    if radius <= spread / 2.0:
        raise ContourError("sigma cluster does not fit: nearest rho/omega too close")
    radius = max(radius, 0.6 * radius + 0.4 * (spread / 2.0))
    return NestedContours(center=center, radii=(radius,), margin=radius - spread / 2.0)


def single_contour_moment(pmodel, x, y, k, contour=None, nodes=48, rtol=1e-9, atol=1e-13, strict=True,
                          with_info=False):
    """E[Z_{x,y}^k] as the partition sum over a single small contour.

    ``with_info`` adds the node-doubling record {"nodes", "converged"}; k = 0
    needs no quadrature and reports 0 nodes.
    """
    if k == 0:
        return (1.0 + 0.0j, {"nodes": 0, "converged": True}) if with_info else 1.0 + 0.0j
    if k > 4:
        raise ValueError("partition-sum quadrature limited to k <= 4 (parts of 1^k)")
    if contour is None:
        contour = small_sigma_circle(pmodel, x, y)
    f = GFunction(pmodel, x, y).f

    def h(z, parts):
        val = np.ones_like(z)
        for shift in range(parts):
            val = val * f(z + shift)
        return val

    import itertools

    def eval_at(m):
        (v,), (wts,) = contour.nodes(m), contour.weights(m)
        total = 0.0 + 0.0j
        for lam in _partitions(k):
            ell = len(lam)
            mult = math.factorial(k)
            for part in set(lam):
                mult //= math.factorial(lam.count(part))
            axis_vals = [h(v, lam[a]) * wts for a in range(ell)]
            det_sum = np.zeros((m,) * ell, dtype=complex)
            for perm in itertools.permutations(range(ell)):
                sgn = Permutation(tuple(p + 1 for p in perm)).length
                term = np.ones((1,) * ell, dtype=complex)
                for i_row, j_col in enumerate(perm):
                    denom = _axis_view(v + lam[i_row], i_row, ell) - _axis_view(v, j_col, ell)
                    term = term / denom if i_row == j_col else term * (1.0 / denom)
                det_sum = det_sum + (-1.0) ** sgn * term
            block = det_sum
            for a in range(ell):
                block = block * _axis_view(axis_vals[a], a, ell)
            total += mult * complex(block.sum())
        return total

    cap = {1: 4096, 2: 512, 3: 96, 4: 32}[min(k, 4)]
    return _refine(eval_at, min(nodes, cap), rtol, atol, cap, strict, with_info, "partition-sum quadrature")
