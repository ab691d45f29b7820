"""Nested-contour quadrature for the q-moment and polymer moment formulas.

Contours are nested circles centred on the real axis, each with its own centre.
One rule (``_nested_circles``) builds them for both families: each circle holds
the pole cluster and keeps the excluded points outside, and circle a + 1 holds
circle a and its image (w -> q w on the lattice, v -> v + 1 for the polymer).
Trapezoid rule on a circle is spectrally accurate for analytic integrands, so
node counts double until the value stabilizes, from the bottom of the cap's
halving ladder (the lowest of cap, cap/2, cap/4, ... that is at least 16, one
rule for every route).  The operator factor T_word expands into at most 2^L
terms (L the word length), each a product of factors on one variable or on one
pair of variables, so every term of the k-fold sum contracts pairwise: at k = 3
one m x m matrix product per term, O(2^L m^3) BLAS work and O(m^2) memory, and
the k-dimensional grid is never formed.  The single-contour partition sum
contracts the same way: by Cauchy's product formula each partition's
determinant is a product of one-variable and pair factors, one ``_contract``
per partition, on the nested routes' node caps and tolerances.

This module is the numerical core shared with :mod:`.fredholm`: the circle
rule (``NestedContours.nodes``/``weights``), the node-doubling routine
``_refine`` (also behind the Nystrom and Airy-kernel determinants) and the
polymer ratio and gamma product ``GFunction`` (re-exported by ``fredholm``).
Every capped loop fails one way: a cap reached short of the tolerance raises
``ConvergenceError`` (defined in :mod:`.qtools`, re-exported here).
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qtools import ConvergenceError, Permutation
from .specfun import log_gamma_shifts, polygamma

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

_NODE_CAPS = {1: 4096, 2: 2048, 3: 768, 4: 32}
# lowest default first level of every node-doubling loop (see ``_refine``)
_START_FLOOR = 16
# relative node-doubling stabilization thresholds; looser at k = 3 and 4, where
# a level costs O(m^3) and O(m^4) work and the nodes cannot double as often
_REFINE_RTOL = {1: 1e-10, 2: 1e-10, 3: 3e-9, 4: 1e-7}
# absolute stabilization threshold of every node-doubling loop
_REFINE_ATOL = 1e-13
# nested circles: each diameter widens on both sides by this fraction of its smaller gap to the
# excluded points, and by at most _PAD_CAP
_PAD = 0.3
_PAD_CAP = 0.35
# largest radius of the small circle around the sigma cluster
_SIGMA_RADIUS_CAP = 0.25


class ContourError(ValueError):
    """Requested contour family cannot be realized; message names the constraint."""


@dataclass(frozen=True)
class NestedContours:
    """Positively oriented circles, one centre and radius each; circle 0 innermost, each inside the next."""

    centers: tuple
    radii: tuple

    @property
    def k(self):
        return len(self.radii)

    def nodes(self, m):
        theta = 2.0 * np.pi * np.arange(m) / m
        ring = np.exp(1j * theta)
        return [c + r * ring for c, r in zip(self.centers, self.radii)]

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
    parameter values are grouped once per instance.  ``log_g`` makes one
    ``log_gamma`` call over every distinct value, stacked on a leading axis,
    and adds each value's log-gamma times its count in group order; ``f`` costs
    one logarithm times its count per repeated value, and a value that occurs
    once keeps its direct factor.
    """

    pmodel: object
    x: int
    y: int

    @cached_property
    def _groups(self):
        """The sigma, rho and omega slots as (value, count) pairs, in first-seen order."""
        return tuple(tuple(Counter(vals).items()) for vals in self.pmodel.corner_slots(self.x, self.y))

    @cached_property
    def _terms(self):
        """(values, signed counts) of log g = sum count * log Gamma(z - value), in group order."""
        terms = [(v, sign * c) for groups, sign in zip(self._groups, (1, -1, 1)) for v, c in groups]
        return [v for v, _ in terms], [c for _, c in terms]

    def log_g(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        values, counts = self._terms
        for c, lg in zip(counts, log_gamma_shifts(z, values)):
            out += c * lg
        return out

    def dlog_g(self, theta):
        """(log g)'(theta) at real theta: one digamma per distinct value, times its count."""
        return sum(c * polygamma(0, theta - v) for v, c in zip(*self._terms))

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


def _nested_circles(inside, left, right, image, k):
    """k nested circles centred on the real axis, each with its own centre.

    A disc centred on the real axis lies inside another exactly when its real
    diameter does, and ``image`` (increasing on the real axis) sends such a
    circle to the circle on the image of its diameter.  So the family is a
    sequence of nested diameters: the first is the span of ``inside``; each
    later one is the union of the previous diameter and its image.  Each is
    then widened on both sides by one pad, ``_PAD`` of the smaller gap to
    ``left`` and ``right``, at most ``_PAD_CAP``.  Every inside point lies
    strictly inside circle 0, ``left`` and ``right`` strictly outside the last
    circle, and circle a with its image strictly inside circle a + 1.
    """
    lo, hi = min(inside), max(inside)
    if not (left < lo and hi < right):
        raise ContourError(f"pole cluster [{lo:.4g}, {hi:.4g}] is not strictly between "
                           f"the excluded points {left:.4g} and {right:.4g}")
    centers, radii = [], []
    for a in range(k):
        if a:
            lo, hi = min(lo, image(lo)), max(hi, image(hi))
        pad = min(_PAD * (lo - left), _PAD * (right - hi), _PAD_CAP)
        lo, hi = lo - pad, hi + pad
        centers.append(0.5 * (lo + hi))
        radii.append(0.5 * (hi - lo))
    return NestedContours(centers=tuple(centers), radii=tuple(radii))


def build_contours(model, k):
    """Circle family for the lattice q-moment integrals.

    All 1/mu_i and 1/kappa_j lie inside every circle; 0 and the 1/lam_d stay
    outside; each circle together with its q-scaled copy fits strictly inside
    the next one.
    """
    inside = [1.0 / m for m in model.mu] + [1.0 / kk for kk in model.kappa]
    return _nested_circles(inside, 0.0, min(1.0 / ll for ll in model.lam), lambda w: model.q * w, k)


def build_shifted_contours(pmodel, xs, ys):
    """Circle family for the polymer moment integrals at the corners (xs[a], ys[a]).

    The sigma and rho slots of every corner lie inside every circle, the omega
    slots of every corner stay outside, and each circle together with its +1
    shift fits strictly inside the next one.
    """
    slots = [pmodel.corner_slots(x, y) for x, y in zip(xs, ys)]
    inside = [v for sigmas, rhos, _ in slots for v in sigmas + rhos]
    left = max((v for *_, omegas in slots for v in omegas), default=-math.inf)
    return _nested_circles(inside, left, math.inf, lambda v: v + 1.0, len(slots))


# ---------------------------------------------------------------------------
# The operator factor as a sum of products.
#
# A letter i of the word acts as T_i F = (const - C) F + C F(s_i w) with
# C = coeff(w_i, w_{i+1}), so a reduced word of length L expands T_word G into
# at most 2^L terms.  A term is a product of letter factors, each on one pair of
# circles, and of g_a read on circle asg[a], where asg is the axis-to-circle
# assignment that the term's swaps reach (arrays stay on the physical grid: axis
# b holds the nodes of circle b).  Every factor of the integrand then depends on
# one variable or on one pair of them, so the k-fold sum of a term contracts
# pairwise and the k-dimensional grid is never formed.

# entries per slab array.  A slab holds rows of axis 0; its arrays are rows x m
# (the pairs with axis 0) and rows x m^(k-2) (the left factor of a contraction).
# The pairs without axis 0 keep m x m matrices, so at k = 3 a level costs
# O(2^L m^3) BLAS work and O(m^2) memory whatever the slab size.  2^15 entries
# (512 KB per array) ran 14-34% faster than 2^13 or 2^19 at 192 and 768 nodes,
# and within 13% of 2^17
_SLAB_CELLS = 1 << 15


def _swap_assign(asg, i):
    lst = list(asg)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def _hecke_terms(word, k):
    """The terms of T_word G for G(w) = prod_a g_a(w_a), as (letters, asg) pairs.

    ``letters`` holds one (b1, b2, swap) per letter: C = coeff(w_i, w_{i+1}) if
    the term swaps there, else const - C, with w_i on circle b1 and w_{i+1} on
    circle b2.  The term's g_a is read on circle asg[a].
    """
    terms = [((), tuple(range(k)))]
    for i in word:
        nxt = []
        for letters, asg in terms:
            b1, b2 = asg[i - 1], asg[i]
            nxt.append((letters + ((b1, b2, False),), asg))
            nxt.append((letters + ((b1, b2, True),), _swap_assign(asg, i)))
        terms = nxt
    return terms


def _letter(coeff, const, swap, wi, wj):
    c = coeff(wi, wj)
    return c if swap else const - c


def _pair_views(b1, b2, cols):
    """Nodes of circles b1 and b2, shaped so that a function of them is a matrix [i_lo, i_hi]."""
    lo, hi = sorted((b1, b2))
    views = {lo: cols[lo][:, None], hi: cols[hi][None, :]}
    return views[b1], views[b2]


def _times(base, mats, out):
    """base * mats[0] * mats[1] * ..., broadcast and written into out; base itself if ``mats`` is empty.

    ``mats`` may be a generator, so each matrix can be made just before it is used.
    """
    result = base
    for mat in mats:
        result = np.multiply(result, mat, out=out)
    return result


def _place(arr, on, axes):
    """``arr``, whose dimensions belong to the axes ``on``, shaped to broadcast over ``axes``."""
    shape = [1] * len(axes)
    for a, n in zip(on, arr.shape):
        shape[axes.index(a)] = n
    return arr.reshape(shape)


def _contract(vecs, mats, lbuf, wbuf):
    """sum over i_0..i_{k-1} of prod_b vecs[b][i_b] prod_{a<b} mats[a, b][i_a, i_b].

    The factors off the last axis multiply into one array over axes 0..k-2; one
    matrix product with mats[k-2, k-1] sums out axis k-2, and the factors on the
    last axis multiply the result.  ``lbuf`` and ``wbuf`` are flat buffers that
    hold the two intermediate arrays.
    """
    k = len(vecs)
    if k == 1:
        return complex(vecs[0].sum())
    head, tail = tuple(range(k - 1)), tuple(range(k - 2)) + (k - 1,)
    shape = tuple(v.size for v in vecs[:-1])
    factors = [_place(vecs[b], (b,), head) for b in head] + [_place(mat, p, head) for p, mat in mats.items()
                                                             if p[1] < k - 1]
    left = _times(factors[0], factors[1:], lbuf[:math.prod(shape)].reshape(shape))
    lead = left.reshape(-1, shape[-1])
    right = mats[(k - 2, k - 1)]
    w = np.matmul(lead, right, out=wbuf[:lead.shape[0] * right.shape[1]].reshape(lead.shape[0], -1))
    w = w.reshape(shape[:-1] + right.shape[1:])
    for c in range(k - 2):
        np.multiply(w, _place(mats[(c, k - 1)], (c, k - 1), tail), out=w)
    np.multiply(w, vecs[-1], out=w)
    return complex(w.sum())


def tensor_quadrature(contours, m, axis_fns, pair_fn, op_factor):
    """Evaluate the k-fold circle quadrature as a Python complex.

    axis_fns[a](w) is the per-variable factor (measure weights are added here);
    pair_fn(wa, wb) multiplies over ordered pairs a < b; op_factor is
    (word, g_fns, const, coeff) for the operator factor.  Each of the at most
    2^L terms of the word (L its length) is summed by ``_contract``: per-axis
    factors fold into the pair matrices, and at k = 3 a term costs one m x m
    matrix product, so a level is O(2^L m^3) BLAS work instead of O(k! m^k)
    element-wise work.  Terms are grouped by their factors off axis 0, which fix
    the m x m matrices of the pairs without axis 0; axis 0 is cut into slabs of
    about ``_SLAB_CELLS`` entries, so memory is O(m^2) at k <= 3 and
    O(m^2 + _SLAB_CELLS) at k = 4.  Matrix products are summed by BLAS, so the
    value can move at the rounding level with the BLAS library and thread count.
    """
    k = contours.k
    nodes = contours.nodes(m)
    weights = contours.weights(m)
    word, g_fns, const, coeff = op_factor
    axis = [np.asarray(axis_fns[b](nodes[b]), dtype=complex) * weights[b] for b in range(k)]
    gvals = [[np.asarray(g(nodes[b]), dtype=complex) for b in range(k)] for g in g_fns]
    groups = {}
    for letters, asg in _hecke_terms(tuple(word), k):
        vecs = [None] * k
        for a, b in enumerate(asg):
            vecs[b] = axis[b] * gvals[a][b]
        off = tuple(sorted(lt for lt in letters if 0 not in lt[:2]))
        groups.setdefault(off, []).append((vecs, [lt for lt in letters if 0 in lt[:2]]))

    def letter(lt, cols):
        b1, b2, swap = lt
        return _letter(coeff, const, swap, *_pair_views(b1, b2, cols))

    off_pairs = [(a, b) for a in range(1, k) for b in range(a + 1, k)]
    pairs = {p: pair_fn(*_pair_views(*p, nodes)) for p in off_pairs}
    full_bufs = {p: np.empty((m, m), dtype=complex) for p in off_pairs}
    rows = min(m, max(1, _SLAB_CELLS // (m ** max(k - 2, 1) if k > 1 else 1)))
    slab_bufs = [np.empty((rows, m), dtype=complex) for _ in range(k - 1)]
    lbuf = np.empty(rows * m ** max(k - 2, 0), dtype=complex)
    wbuf = np.empty(max(lbuf.size, m), dtype=complex)
    total = 0j
    for off, terms in groups.items():
        # a letter matrix of size m x m lives only until it is multiplied in
        full = {p: _times(pairs[p], (letter(lt, nodes) for lt in off if tuple(sorted(lt[:2])) == p), full_bufs[p])
                for p in off_pairs}
        on_axis0 = {lt for _, letters in terms for lt in letters}
        for r0 in range(0, m, rows):
            n = min(rows, m - r0)
            cols = [nodes[0][r0:r0 + n]] + nodes[1:]
            slab_pairs = [pair_fn(*_pair_views(0, b, cols)) for b in range(1, k)]
            slab_letters = {lt: letter(lt, cols) for lt in on_axis0}
            for vecs, letters in terms:
                mats = dict(full)
                for b in range(1, k):
                    mats[(0, b)] = _times(slab_pairs[b - 1], [slab_letters[lt] for lt in letters if b in lt[:2]],
                                          slab_bufs[b - 1][:n])
                total += _contract([vecs[0][r0:r0 + n]] + vecs[1:], mats, lbuf, wbuf)
    return total


def _refine(eval_at, nodes, rtol, cap, with_info=False, what="quadrature"):
    """Double nodes up to ``cap`` until the change stabilizes.

    The first level is ``nodes``, a positive int at most cap/2; ``None`` takes
    the bottom of the cap's halving ladder cap, cap/2, cap/4, ...: the lowest
    level of it that is at least ``_START_FLOOR``, and never above cap/2, so
    every route compares at least two levels and can reach its cap.  Trapezoid
    and Gauss rules converge geometrically on analytic integrands, so the cheap
    low levels decide most requests.  The change per doubling tracks the error
    of the coarser level; when successive changes shrink fast, the finer
    value's error is estimated by one more decay factor and accepted if it
    meets the tolerance max(rtol |value|, ``_REFINE_ATOL``).  A non-finite
    value is never accepted and stops the doubling, since more nodes do not
    repair an overflow.  Without convergence ``ConvergenceError`` is raised,
    carrying the last value; ``with_info`` adds {"nodes", "converged"}, and a
    returned record always has ``converged`` True.
    """
    if nodes is None:
        m = cap // 2
        while m % 2 == 0 and m // 2 >= _START_FLOOR:
            m //= 2
    else:
        m = int(nodes) if isinstance(nodes, numbers.Integral) and not isinstance(nodes, bool) else 0
    if not 0 < 2 * m <= cap:
        raise ValueError(f"{what}: nodes must be a positive integer at most {cap // 2}, half the node cap "
                         f"{cap}, so that it can double; got {nodes!r}")
    val = eval_at(m)
    prev_delta = None
    ok = False
    while not ok and 2 * m <= cap:
        m *= 2
        cur = eval_at(m)
        if not cmath.isfinite(cur):
            val = cur
            break
        delta = abs(cur - val)
        tol = max(rtol * abs(cur), _REFINE_ATOL)
        ok = delta <= tol or (
            prev_delta is not None and delta < 0.2 * prev_delta and delta * (delta / prev_delta) <= tol
        )
        val, prev_delta = cur, delta
    if not ok:
        state = "did not stabilize" if cmath.isfinite(val) else f"is not finite ({val})"
        raise ConvergenceError(f"{what} {state} at {m} nodes", val)
    return (val, {"nodes": m, "converged": True}) if with_info else val


def _nested_quadrature(contours, axis_fns, pair_fn, op_factor, pref, nodes, rtol, with_info):
    """``pref`` times the k-fold circle quadrature, refined with the per-k node cap and tolerance.

    The tables are read at call time.
    """
    k = contours.k

    def eval_at(m):
        return pref * tensor_quadrature(contours, m, axis_fns, pair_fn, op_factor)

    if rtol is None:
        rtol = _REFINE_RTOL.get(k, 1e-7)
    return _refine(eval_at, nodes, rtol, _NODE_CAPS.get(k, 32), with_info)


def qmoment_integral(model, req, nodes=None, rtol=None, with_info=False):
    """Contour-integral value of the joint q-moment observable.

    Returns a complex number; its imaginary part is a quadrature sanity
    residual for this real observable.
    """
    req.validate_against(model)
    k = req.k
    if k > 4:
        raise ValueError("tensor quadrature limited to k <= 4")
    contours = build_contours(model, k)
    q = model.q
    ell = req.cutoffs(model)
    tau = req.tau

    def axis_fn(a):
        _, ix, iy = req.facets[a]
        nd = iy - ix

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
                              nodes, rtol, with_info)


def beta_moment_integral(pmodel, xs, ys, rs, tau=None, nodes=None, with_info=False):
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
    contours = build_shifted_contours(pmodel, xs, ys)

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
                              nodes, None, with_info)


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


def small_sigma_circle(pmodel, x, y):
    """Small circle around the sigma cluster with the +1 shift strictly outside."""
    sig, rhos, omegas = pmodel.corner_slots(x, y)
    spread = max(sig) - min(sig)
    if spread >= 1.0:
        raise ContourError("sigma spread >= 1: no circle separates the cluster from its +1 shift")
    center = 0.5 * (max(sig) + min(sig))
    others = rhos + omegas
    gap = min(abs(p - center) for p in others) if others else math.inf
    radius = min(_SIGMA_RADIUS_CAP, 0.5 * (1.0 - spread / 2.0), 0.5 * gap)
    if radius <= spread / 2.0:
        raise ContourError("sigma cluster does not fit: nearest rho/omega too close")
    radius = max(radius, 0.6 * radius + 0.4 * (spread / 2.0))
    return NestedContours(centers=(center,), radii=(radius,))


def _cauchy_sum(v, axis_vals, lam):
    """sum over i_1..i_l of prod_a axis_vals[a][i_a] det[1/(v[i_a] + lam_a - v[i_b])]_{a,b}.

    Cauchy's product formula with x_a = v_a + lam_a gives the determinant as
    prod_a 1/lam_a times, per pair a < b, (x_b - x_a)(v_a - v_b) / ((x_a - v_b)
    (x_b - v_a)), so the sum is one ``_contract`` of one-variable factors and
    m x m pair matrices.
    """
    ell = len(lam)
    va, vb = v[:, None], v[None, :]
    mats = {(a, b): (vb + lam[b] - va - lam[a]) * (va - vb) / ((va + lam[a] - vb) * (vb + lam[b] - va))
            for a in range(ell) for b in range(a + 1, ell)}
    buf = np.empty(v.size ** (ell - 1), dtype=complex)
    return _contract([vals / p for vals, p in zip(axis_vals, lam)], mats, buf, np.empty_like(buf))


def single_contour_moment(pmodel, x, y, k, with_info=False):
    """E[Z_{x,y}^k] as the partition sum over the small circle around the sigma cluster.

    Each partition's Cauchy determinant contracts pairwise like the nested
    route's terms (``_cauchy_sum``), and nodes double from the default start of
    ``_refine`` with the nested route's ``_NODE_CAPS[k]`` and
    ``_REFINE_RTOL[k]``, else ``ConvergenceError``.  k must be an int with
    0 <= k <= 4.  ``with_info`` adds {"nodes", "converged"}; k = 0 needs no
    quadrature and reports 0 nodes.
    """
    if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k <= 4):
        raise ValueError(f"partition-sum quadrature needs an integer k with 0 <= k <= 4; got {k!r}")
    if k == 0:
        return (1.0 + 0.0j, {"nodes": 0, "converged": True}) if with_info else 1.0 + 0.0j
    contour = small_sigma_circle(pmodel, x, y)
    f = GFunction(pmodel, x, y).f

    def h(z, parts):
        val = np.ones_like(z)
        for shift in range(parts):
            val = val * f(z + shift)
        return val

    def eval_at(m):
        (v,), (wts,) = contour.nodes(m), contour.weights(m)
        total = 0.0 + 0.0j
        for lam in _partitions(k):
            mult = math.factorial(k)
            for part in set(lam):
                mult //= math.factorial(lam.count(part))
            total += mult * _cauchy_sum(v, [h(v, p) * wts for p in lam], lam)
        return total

    return _refine(eval_at, None, _REFINE_RTOL[k], _NODE_CAPS[k], with_info=with_info,
                   what="partition-sum quadrature")
