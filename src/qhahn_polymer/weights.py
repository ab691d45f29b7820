"""Stochastic vertex weights and exact verifiers for their algebraic identities.

Three weight families live here:

* ``qhahn_weight``  -- the q-Hahn family W parametrized by squared spin
  parameters (tt, ss) = (t^2, s^2); only the squares ever enter the formula,
  which keeps the sampling path free of square roots.
* ``sixv_weight``   -- colored higher-spin six-vertex weights w_{z;s}.
* ``fused_weight``  -- the general two-index family specializing to both.

All functions use generic scalar arithmetic, so ``fractions.Fraction``
parameters give exact values and the Yang-Baxter / local-relation residuals
below are computed with no rounding at all.  The q-Hahn weights and the
local-relation sums skip the factors that are exactly one (see
``_QHahnTable``); x * 1 is x exactly for a Fraction and for a float, so the
values and their types are those of the full products.

The five Yang-Baxter equations checked here (plain and eta-deformed q-Hahn
and six-vertex, and the master equation of the fused family) share one
three-vertex sum, ``_ybe_sides``; each residual only builds its six vertex
weights.  The left side sums over line 1's internal label K1, the right side
over line 2's K2, each over the labels its first vertex can emit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import sub

from .qtools import (
    _one_like,
    comp_add,
    comp_interval,
    comp_leq,
    comp_sub,
    iter_box,
    q_binomial,
    shuffles,
    unit_comp,
)

__all__ = [
    "qhahn_weight",
    "sixv_weight",
    "fused_weight",
    "qhahn_outgoing",
    "sixv_outgoing",
    "fused_outgoing",
    "ybe_residual",
    "master_ybe_residual",
    "YBE_KINDS",
    "random_ybe_instance",
    "local_relation_residual",
    "local_relation_shuffle_rhs",
    "local_qmoment",
]


class _QHahnTable:
    """The factors of the q-Hahn weights at one (q, tt, ss), built on demand for one call.

    Holds the prefix products (x; q)_m for x in (ss/tt, tt, ss), extended in the
    multiplication order of ``q_pochhammer``, and memoised q-binomials, q-powers
    and one-colour coefficients, so every value equals the direct formula's
    bit for bit (``==`` for Fractions).  Callers build one per spin pair and
    keep it for one call.

    Products leave out their exact ones: q^0, the q-binomials (a choose 0)
    and (a choose a), each ``Fraction(1)`` for a Fraction q and ``1.0`` for a
    float q, and the factor (ss/tt)^0 (tt; q)_0 of ``coefficient(0, r)``.
    Multiplying by one changes no Fraction and no float, so with parameters
    that are all Fractions or all floats the results are the full products',
    value and type.
    """

    __slots__ = ("q", "_x", "_one", "_qp", "_poch", "_binom", "_pow", "_coef")

    def __init__(self, q, tt, ss):
        self.q = q
        self._x = (ss / tt, tt, ss)
        self._one = tuple(_one_like(x, q) for x in self._x)
        self._qp = list(self._one)  # q^m, the power in the next factor of each prefix
        self._poch = [[one] for one in self._one]  # (x; q)_0, (x; q)_1, ...
        self._binom = {}
        self._pow = {}
        self._coef = {}

    def _pochhammer(self, which, m):
        """(x; q)_m for x = (ss/tt, tt, ss)[which] and m >= 0."""
        x, prefix = self._x[which], self._poch[which]
        one = self._one[which]
        while len(prefix) <= m:
            prefix.append(prefix[-1] * (one - x * self._qp[which]))
            self._qp[which] *= self.q
        return prefix[m]

    def binomial(self, n, m):
        val = self._binom.get((n, m))
        if val is None:
            val = self._binom[(n, m)] = q_binomial(n, m, self.q)
        return val

    def power(self, e):
        val = self._pow.get(e)
        if val is None:
            val = self._pow[e] = self.q**e
        return val

    def coefficient(self, p, r):
        """(ss/tt)^p (ss/tt; q)_{r-p} (tt; q)_p / (ss; q)_r."""
        key = (p, r)
        val = self._coef.get(key)
        if val is None:
            if p:
                val = self._x[0] ** p
                val *= self._pochhammer(0, r - p) * self._pochhammer(1, p)
            else:
                val = self._pochhammer(0, r)
            val /= self._pochhammer(2, r)
            self._coef[key] = val
        return val

    def outcome(self, A, D):
        """W(A, B; A + B - D, D) for 0 <= D <= A, which does not depend on B."""
        val = self.coefficient(sum(D), sum(A))
        twist = rest = 0  # sum over i < j of D_i (A_j - D_j)
        for a, d in zip(A[::-1], D[::-1]):
            twist += d * rest
            rest += a - d
        if twist:
            val *= self.power(twist)
        for a, d in zip(A, D):
            if 0 < d < a:
                val *= self.binomial(a, d)
        return val

    def weight(self, A, B, C, D):
        """W(A, B; C, D): zero unless A + B = C + D, D <= A and no entry is negative."""
        if comp_add(A, B) != comp_add(C, D) or not comp_leq(D, A):
            return 0
        if any(x < 0 for x in A + B + C + D):
            return 0
        return self.outcome(A, D)


def qhahn_weight(A, B, C, D, q, tt, ss):
    """Weight W(A, B; C, D) with tt = t^2, ss = s^2.

    Vanishes unless A + B = C + D and D <= A componentwise; the value does not
    depend on B, C beyond the conservation law.
    """
    return _QHahnTable(q, tt, ss).weight(A, B, C, D)


def sixv_weight(I, j, K, l, q, z, s):
    """Higher-spin six-vertex weight w_{z;s}(I, j; K, l); j, l are colors in 0..n."""
    n = len(I)
    if not (0 <= j <= n and 0 <= l <= n):
        raise ValueError("edge colors must lie in 0..n")
    if comp_add(I, unit_comp(n, j)) != comp_add(K, unit_comp(n, l)):
        return 0
    if any(x < 0 for x in K):
        return 0
    sz = s * z
    den = 1 - sz
    if den == 0:
        raise ZeroDivisionError("pole at s*z = 1")
    if j == 0 and l == 0:
        return (1 - sz * q ** comp_interval(I, 1, n)) / den
    if j == l:
        return (s * s * q ** I[j - 1] - sz) * q ** comp_interval(I, j + 1, n) / den
    if j == 0:
        return sz * (q ** I[l - 1] - 1) * q ** comp_interval(I, l + 1, n) / den
    if l == 0:
        return (1 - s * s * q ** comp_interval(I, 1, n)) / den
    if j < l:
        return sz * (q ** I[l - 1] - 1) * q ** comp_interval(I, l + 1, n) / den
    return s * s * (q ** I[l - 1] - 1) * q ** comp_interval(I, l + 1, n) / den


def _phi(A, B, x, y, q):
    """Helper product Phi(A, B; x, y); zero unless A <= B componentwise.

    Vanishing linear factors shared by the numerator and denominator (they are
    identical factors of the form 1 - z q^e whenever they vanish at the same
    point, q being fixed) are cancelled exactly, so removable singularities of
    the analytic continuation evaluate correctly; a genuine pole raises.
    """
    if not comp_leq(A, B) or any(v < 0 for v in A):
        return 0
    n = len(A)
    a, b = sum(A), sum(B)
    num_factors = [1 - x * q**i for i in range(a)]
    num_factors += [1 - (y / x) * q**i for i in range(b - a)]
    den_factors = [1 - y * q**i for i in range(b)]
    num_zeros = sum(1 for f in num_factors if f == 0)
    den_zeros = sum(1 for f in den_factors if f == 0)
    if num_zeros < den_zeros:
        raise ZeroDivisionError("vanishing Pochhammer denominator in fused weight")
    if num_zeros > den_zeros:
        return 0
    val = (y / x) ** a
    for f in num_factors:
        if f != 0:
            val *= f
    for f in den_factors:
        if f != 0:
            val /= f
    twist = sum((B[i] - A[i]) * A[j] for i in range(n) for j in range(i + 1, n))
    val *= q**twist
    for Bi, Ai in zip(B, A):
        val *= q_binomial(Bi, Ai, q)
    return val


def fused_weight(A, B, C, D, q, z, big_n, big_m):
    """General weight with vertical capacity big_m and horizontal capacity big_n.

    Specializations: z = 1 with q^{-N} = t^2, q^{-M} = s^2 recovers
    ``qhahn_weight``; (N, spectral z/s, q^{-M} = s^2) with single-path
    horizontal edges recovers ``sixv_weight``.
    """
    if sum(A) > big_m or sum(C) > big_m or sum(B) > big_n or sum(D) > big_n:
        raise ValueError("composition sizes exceed the (N, M) capacity bounds")
    if comp_add(A, B) != comp_add(C, D):
        return 0
    total = 0
    for P in iter_box(tuple(min(b, c) for b, c in zip(B, C))):
        t1 = _phi(comp_sub(C, P), comp_sub(comp_add(C, D), P), q ** (big_n - big_m) * z, q ** (-big_m) * z, q)
        if t1 == 0:
            continue
        t2 = _phi(P, B, q ** (-big_n) / z, q ** (-big_n), q)
        total += t1 * t2
    return total * z ** (sum(D) - sum(B)) * q ** (sum(A) * big_n - sum(D) * big_m)


# ---------------------------------------------------------------------------
# Stochasticity: outgoing distributions with the incoming configuration fixed.


def qhahn_outgoing(A, B, q, tt, ss):
    """Map (C, D) -> weight over all conserving outgoing pairs."""
    return _qhahn_outgoing(A, B, _QHahnTable(q, tt, ss))


def _qhahn_outgoing(A, B, table):
    """``qhahn_outgoing`` on a caller's table; C = A + B - D with 0 <= D <= A conserves by construction."""
    AB = comp_add(A, B)
    if any(x < 0 for x in A + B):
        return {}
    out = {}
    for D in iter_box(A):
        w = table.outcome(A, D)
        if w != 0:
            out[(tuple(map(sub, AB, D)), D)] = w
    return out


def sixv_outgoing(I, j, q, z, s):
    n = len(I)
    out = {}
    total = comp_add(I, unit_comp(n, j))
    for l in range(n + 1):
        K = comp_sub(total, unit_comp(n, l))
        if any(x < 0 for x in K):
            continue
        w = sixv_weight(I, j, K, l, q, z, s)
        if w != 0:
            out[(K, l)] = w
    return out


def fused_outgoing(A, B, q, z, big_n, big_m):
    out = {}
    AB = comp_add(A, B)
    for D in iter_box(AB):
        if sum(D) > big_n or sum(AB) - sum(D) > big_m:
            continue
        C = comp_sub(AB, D)
        w = fused_weight(A, B, C, D, q, z, big_n, big_m)
        if w != 0:
            out[(C, D)] = w
    return out


# ---------------------------------------------------------------------------
# Yang-Baxter residuals.  All five equations have one shape.  Lines 1, 2, 3
# enter with labels (A1, A2, A3), leave with (B1, B2, B3) and carry the
# internal label K_i between their two crossings.  A vertex weight
# R(A, B; C, D) takes the incoming labels A, B to the outgoing C, D, and
#
#   LHS = sum R12(A2, A1; K2, K1) R13(A3, K1; K3, B1) R23(K3, K2; B3, B2),
#   RHS = sum S23(A3, A2; K3, K2) S13(K3, A1; B3, K1) S12(K2, K1; B2, B1).
#
# The left side sums over the label K1 that its first vertex emits, the right
# side over K2; conservation at the vertices fixes the other two.  Line 1 is
# the one whose crossing with the vertical line carries the deformed (or
# lower) vertex on the left-hand side.  For the six-vertex kinds line 1 is
# thin: A1 and B1 are single colors in 0..n, summed as unit compositions.

YBE_KINDS = ("qhahn", "sixvertex", "qhahn-deformed", "sixvertex-deformed")

_KIND_ALIASES = {
    "WYB": "qhahn",
    "hsYB": "sixvertex",
    "defWYB": "qhahn-deformed",
    "defhsYB": "sixvertex-deformed",
}


def canonical_ybe_kind(kind):
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in YBE_KINDS:
        raise ValueError(f"unknown Yang-Baxter kind: {kind!r}")
    return kind


def ybe_residual(kind, boundary, params):
    """LHS - RHS of the requested Yang-Baxter equation; exactly zero when valid.

    ``boundary`` is (A1, A2, A3, B1, B2, B3); ``params`` is a dict with q and,
    per kind, t1/t2/t3 (+ eta) or x/s/t (+ eta).  The plain kinds are the
    deformed equations at eta = 1 (any eta in ``params`` is ignored there).
    """
    kind = canonical_ybe_kind(kind)
    params = dict(params)
    if kind.endswith("-deformed"):
        if params.get("eta") is None:
            raise ValueError("deformed equation requires eta")
    else:
        params["eta"] = 1
    residual = _ybe_residual_fat if kind.startswith("qhahn") else _ybe_residual_thin
    return residual(boundary, **params)


def _fits(K, cap):
    """K is a label that a line of capacity ``cap`` can carry."""
    return min(K, default=0) >= 0 and sum(K) <= cap


def _ybe_sides(boundary, caps, lhs, rhs, q):
    """(LHS, RHS) of the Yang-Baxter equation in the shape above.

    ``lhs`` is (R12, R13, R23, K1s) and ``rhs`` is (S23, S13, S12, K2s): the
    weights, called as R(A, B, C, D) and multiplied in this order, and the
    labels that the side's first vertex can emit.  The two derived labels must
    be nonnegative with |K_i| <= caps[i - 1] before any weight is evaluated,
    and a zero weight ends its product.  Both sums start at Fraction(0) for a
    Fraction q, else at 0.
    """
    A1, A2, A3, B1, B2, B3 = boundary
    cap1, cap2, cap3 = caps
    R12, R13, R23, K1s = lhs
    left = right = Fraction(0) if isinstance(q, Fraction) else 0
    A12, A23 = comp_add(A2, A1), comp_add(A3, A2)
    for K1 in K1s:
        K2 = comp_sub(A12, K1)
        K3 = comp_sub(comp_add(A3, K1), B1)
        if _fits(K2, cap2) and _fits(K3, cap3) and (w1 := R12(A2, A1, K2, K1)) != 0:
            if (w2 := R13(A3, K1, K3, B1)) != 0:
                left += w1 * w2 * R23(K3, K2, B3, B2)
    S23, S13, S12, K2s = rhs
    for K2 in K2s:
        K3 = comp_sub(A23, K2)
        K1 = comp_sub(comp_add(K3, A1), B3)
        if _fits(K3, cap3) and _fits(K1, cap1) and (w1 := S23(A3, A2, K3, K2)) != 0:
            if (w2 := S13(K3, A1, B3, K1)) != 0:
                right += w1 * w2 * S12(K2, K1, B2, B1)
    return left, right


def _ybe_residual_fat(boundary, q, t1, t2, t3, eta):
    tt1, tt2, tt3 = t1 * t1, t2 * t2, t3 * t3
    e2 = eta * eta
    ett1, ett2, ett3 = e2 * tt1, e2 * tt2, e2 * tt3
    W12, W13, W23, eW12, eW13, eW23 = (_QHahnTable(q, ta, tb).weight for ta, tb in (
        (tt1, tt2), (tt1, tt3), (tt2, tt3), (ett1, ett2), (ett1, ett3), (ett2, ett3)))
    # each first vertex is a q-Hahn weight, whose outgoing D ranges over the box of its A
    lhs, rhs = _ybe_sides(boundary, (math.inf,) * 3, (W12, eW13, W23, iter_box(boundary[1])),
                          (eW23, W13, eW12, iter_box(boundary[2])), q)
    return lhs - rhs


def _color(J):
    """The color 0..n of a thin line's unit composition."""
    return J.index(1) + 1 if 1 in J else 0


def _ybe_residual_thin(boundary, q, x, s, t, eta):
    a1, A2, A3, b1, B2, B3 = boundary
    n = len(A2)
    if not (0 <= a1 <= n and 0 <= b1 <= n):
        raise ValueError("edge colors must lie in 0..n")
    units = [unit_comp(n, c) for c in range(n + 1)]

    def thin(z, spin):
        return lambda I, J, K, L: sixv_weight(I, _color(J), K, _color(L), q, z, spin)

    table = _QHahnTable(q, t * t, s * s)
    lhs, rhs = _ybe_sides((units[a1], A2, A3, units[b1], B2, B3), (1, math.inf, math.inf),
                          (thin(x * t / eta, t * eta), thin(x * s, s), table.weight, units),
                          (table.weight, thin(x * s / eta, s * eta), thin(x * t, t), iter_box(A3)), q)
    return lhs - rhs


def _capped_box(bounds, cap):
    """The compositions D <= bounds with |D| <= cap, in ``iter_box`` order."""
    return (D for D in iter_box(tuple(min(v, cap) for v in bounds)) if sum(D) <= cap)


def master_ybe_residual(boundary, q, x, y, z, caps):
    """LHS - RHS of the general Yang-Baxter equation for the two-index family.

    ``caps`` is (N, M, L): line 1 carries capacity N, line 2 capacity M, the
    vertical line capacity L; spectral arguments are the ratios of x, y, z.
    Exactly zero for any capacity-respecting boundary.
    """
    A1, A2, A3 = boundary[:3]
    big_n, big_m, big_l = caps
    W12, W13, W23 = (partial(fused_weight, q=q, z=ratio, big_n=horizontal, big_m=vertical)
                     for ratio, horizontal, vertical in ((x / y, big_n, big_m), (x / z, big_n, big_l),
                                                         (y / z, big_m, big_l)))
    lhs, rhs = _ybe_sides(boundary, caps, (W12, W13, W23, _capped_box(comp_add(A2, A1), big_n)),
                          (W23, W13, W12, _capped_box(comp_add(A3, A2), big_m)), q)
    return lhs - rhs


def _rand_frac(rng, lo_num=1, hi_num=9, lo_den=10, hi_den=23):
    return Fraction(int(rng.integers(lo_num, hi_num + 1)), int(rng.integers(lo_den, hi_den + 1)))


def _qhahn_pole(params, max_total=16):
    """True when a spin (eta t_2)^2 or (eta t_3)^2 is q^{-m}, m <= max_total: a pole of (s^2; q)_{m+1}.

    Every drawn q, t_i, x, s and t is num/den with num <= 9 < 10 <= den, so
    t_i^2 q^m, s^2 q^m, t^2 q^m, x t^2 and x s^2 stay below 1; only eta > 1
    can put a spin on a pole.  A plain kind has eta = 1.
    """
    q, eta = params["q"], params.get("eta", 1)
    return any((eta * params[t]) ** 2 * q**m == 1 for t in ("t2", "t3") for m in range(max_total + 1))


def random_ybe_instance(kind, rng, colors=2, max_entry=2):
    """Random rational parameters plus a conservation-consistent boundary.

    q-Hahn draws are rejected while a spin sits on a pole of a constituent
    weight (see ``_qhahn_pole``); after 100 such draws ``ValueError`` is
    raised.  The six-vertex kinds cannot hit a pole and draw once.
    """
    kind = canonical_ybe_kind(kind)
    n = colors
    q = _rand_frac(rng)
    if kind.startswith("qhahn"):
        for _ in range(100):
            params = {"q": q, "t1": _rand_frac(rng), "t2": _rand_frac(rng), "t3": _rand_frac(rng)}
            if kind == "qhahn-deformed":
                params["eta"] = _rand_frac(rng, 1, 9, 2, 9)
            if not _qhahn_pole(params):
                break
        else:
            raise ValueError(f"{kind} parameters sat on a pole in all 100 draws")
        A1 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        A2 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        A3 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        total = comp_add(comp_add(A1, A2), A3)
        B1 = tuple(int(rng.integers(0, tc + 1)) for tc in total)
        rest = comp_sub(total, B1)
        B2 = tuple(int(rng.integers(0, rc + 1)) for rc in rest)
        B3 = comp_sub(rest, B2)
        return (A1, A2, A3, B1, B2, B3), params
    params = {"q": q, "x": _rand_frac(rng), "s": _rand_frac(rng), "t": _rand_frac(rng)}
    if kind == "sixvertex-deformed":
        params["eta"] = _rand_frac(rng, 1, 9, 2, 9)
    a1 = int(rng.integers(0, n + 1))
    A2 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
    A3 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
    total = comp_add(comp_add(A2, A3), unit_comp(n, a1))
    candidates = [0] + [c for c in range(1, n + 1) if total[c - 1] >= 1]
    b1 = int(candidates[rng.integers(0, len(candidates))])
    rest = comp_sub(total, unit_comp(n, b1))
    B2 = tuple(int(rng.integers(0, rc + 1)) for rc in rest)
    B3 = comp_sub(rest, B2)
    return (a1, A2, A3, b1, B2, B3), params


# ---------------------------------------------------------------------------
# Local relations.


def local_qmoment(c, A, q):
    """q^{A_{[c_1,n]} + ... + A_{[c_r,n]}} for a color sequence c."""
    n = len(A)
    e = sum(comp_interval(A, ci, n) for ci in c)
    return q**e


def local_relation_residual(A, B, R, q, tt, ss):
    """Composition-form local relation residual (exactly zero when valid).

    LHS averages q^{sum_{i<=j} R_i D_j} over the outgoing sampling rule at a
    single vertex; RHS is the closed sum over subcompositions P <= R.
    """
    n = len(A)
    table = _QHahnTable(q, tt, ss)
    lhs = 0 * (q * 0 + 1)
    for (_, D), w in _qhahn_outgoing(A, B, table).items():
        e = sum(R[i] * D[j] for i in range(n) for j in range(i, n))
        lhs += table.power(e) * w if e else w

    r = sum(R)
    rhs = 0 * (q * 0 + 1)
    for P in iter_box(R):
        term = table.coefficient(sum(P), r)
        e1 = sum((R[i] - P[i]) * P[j] for i in range(n) for j in range(i + 1, n))
        e2 = sum(P[i] * A[j] for i in range(n) for j in range(i, n))
        if e1 + e2:
            term *= table.power(e1 + e2)
        for Ri, Pi in zip(R, P):
            if 0 < Pi < Ri:
                term *= table.binomial(Ri, Pi)
        rhs += term
    return lhs - rhs


def local_relation_shuffle_rhs(c, A, q, tt, ss):
    """Sequence-form right-hand side: sum over ordered-subsequence permutations."""
    r = len(c)
    table = _QHahnTable(q, tt, ss)
    rhs = 0 * (q * 0 + 1)
    for p in range(r + 1):
        coeff = table.coefficient(p, r)
        for tau in shuffles(p, r):
            sub = tuple(c[tau.inv(a) - 1] for a in range(1, p + 1))
            rhs += coeff * table.power(tau.length) * local_qmoment(sub, A, q)
    return rhs
