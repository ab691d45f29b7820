"""Stochastic vertex weights and exact verifiers for their algebraic identities.

Three weight families live here:

* ``qhahn_weight``  -- the q-Hahn family W parametrized by squared spin
  parameters (tt, ss) = (t^2, s^2); only the squares ever enter the formula,
  which keeps the sampling path free of square roots.
* ``sixv_weight``   -- colored higher-spin six-vertex weights w_{z;s}.
* ``fused_weight``  -- the general two-index family specializing to both.

All functions use generic scalar arithmetic, so ``fractions.Fraction``
parameters give exact values and the Yang-Baxter / local-relation residuals
below are computed with no rounding at all.
"""

from __future__ import annotations

from fractions import Fraction

from .qtools import (
    comp_add,
    comp_interval,
    comp_leq,
    comp_sub,
    iter_box,
    q_binomial,
    q_pochhammer,
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


def _qhahn_coefficient(p, r, q, tt, ss):
    """One-colour q-Hahn weight (ss/tt)^p (ss/tt; q)_{r-p} (tt; q)_p / (ss; q)_r."""
    val = (ss / tt) ** p
    val *= q_pochhammer(ss / tt, q, r - p) * q_pochhammer(tt, q, p)
    val /= q_pochhammer(ss, q, r)
    return val


def qhahn_weight(A, B, C, D, q, tt, ss):
    """Weight W(A, B; C, D) with tt = t^2, ss = s^2.

    Vanishes unless A + B = C + D and D <= A componentwise; the value does not
    depend on B, C beyond the conservation law.
    """
    if comp_add(A, B) != comp_add(C, D) or not comp_leq(D, A):
        return 0
    if any(x < 0 for x in A + B + C + D):
        return 0
    n = len(A)
    val = _qhahn_coefficient(sum(D), sum(A), q, tt, ss)
    twist = sum(D[i] * (A[j] - D[j]) for i in range(n) for j in range(i + 1, n))
    val *= q**twist
    for Ai, Di in zip(A, D):
        val *= q_binomial(Ai, Di, q)
    return val


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
    out = {}
    AB = comp_add(A, B)
    for D in iter_box(A):
        C = comp_sub(AB, D)
        w = qhahn_weight(A, B, C, D, q, tt, ss)
        if w != 0:
            out[(C, D)] = w
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
# Yang-Baxter residuals.  Boundary convention for all four kinds:
# three incoming labels (A1, A2, A3) and three outgoing (B1, B2, B3), where
# line 1 is the one whose crossing with the vertical line carries the deformed
# (or lower) vertex on the left-hand side.  For the six-vertex kinds line 1 is
# thin: A1 and B1 are single colors in 0..n.

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


def _ybe_residual_fat(boundary, q, t1, t2, t3, eta):
    A1, A2, A3, B1, B2, B3 = boundary
    one = Fraction(1) if isinstance(q, Fraction) else 1

    def W(A, B, C, D, ta, tb):
        return qhahn_weight(A, B, C, D, q, ta, tb)

    tt1, tt2, tt3 = t1 * t1, t2 * t2, t3 * t3
    e2 = eta * eta
    ett1, ett2, ett3 = e2 * tt1, e2 * tt2, e2 * tt3
    lhs = 0 * one
    for K1 in iter_box(A2):
        K2 = comp_add(comp_sub(A2, K1), A1)
        K3 = comp_sub(comp_add(A3, K1), B1)
        if any(x < 0 for x in K2 + K3):
            continue
        w1 = W(A2, A1, K2, K1, tt1, tt2)
        if w1 == 0:
            continue
        w2 = W(A3, K1, K3, B1, ett1, ett3)
        if w2 == 0:
            continue
        lhs += w1 * w2 * W(K3, K2, B3, B2, tt2, tt3)

    rhs = 0 * one
    for K2 in iter_box(A3):
        K3 = comp_add(comp_sub(A3, K2), A2)
        K1 = comp_sub(comp_add(K3, A1), B3)
        if any(x < 0 for x in K3 + K1):
            continue
        w1 = W(A3, A2, K3, K2, ett2, ett3)
        if w1 == 0:
            continue
        w2 = W(K3, A1, B3, K1, tt1, tt3)
        if w2 == 0:
            continue
        rhs += w1 * w2 * W(K2, K1, B2, B1, ett1, ett2)
    return lhs - rhs


def _ybe_residual_thin(boundary, q, x, s, t, eta):
    a1, A2, A3, b1, B2, B3 = boundary
    n = len(A2)
    one = Fraction(1) if isinstance(q, Fraction) else 1
    tt, ss = t * t, s * s
    xt_eta, t_eta = x * t / eta, t * eta
    xs_eta, s_eta = x * s / eta, s * eta

    lhs = 0 * one
    for k1 in range(n + 1):
        K2 = comp_sub(comp_add(A2, unit_comp(n, a1)), unit_comp(n, k1))
        K3 = comp_sub(comp_add(A3, unit_comp(n, k1)), unit_comp(n, b1))
        if any(v < 0 for v in K2 + K3):
            continue
        w_cross = sixv_weight(A2, a1, K2, k1, q, xt_eta, t_eta)
        if w_cross == 0:
            continue
        w_vert = sixv_weight(A3, k1, K3, b1, q, x * s, s)
        if w_vert == 0:
            continue
        lhs += w_cross * w_vert * qhahn_weight(K3, K2, B3, B2, q, tt, ss)

    rhs = 0 * one
    for k1 in range(n + 1):
        K3 = comp_sub(comp_add(B3, unit_comp(n, k1)), unit_comp(n, a1))
        K2 = comp_sub(comp_add(A3, A2), K3)
        if any(v < 0 for v in K3 + K2):
            continue
        w_bot = qhahn_weight(A3, A2, K3, K2, q, tt, ss)
        if w_bot == 0:
            continue
        w_vert = sixv_weight(K3, a1, B3, k1, q, xs_eta, s_eta)
        if w_vert == 0:
            continue
        rhs += w_bot * w_vert * sixv_weight(K2, k1, B2, b1, q, x * t, t)
    return lhs - rhs


def master_ybe_residual(boundary, q, x, y, z, caps):
    """LHS - RHS of the general Yang-Baxter equation for the two-index family.

    ``caps`` is (N, M, L): line 1 carries capacity N, line 2 capacity M, the
    vertical line capacity L; spectral arguments are the ratios of x, y, z.
    Exactly zero for any capacity-respecting boundary.
    """
    A1, A2, A3, B1, B2, B3 = boundary
    big_n, big_m, big_l = caps
    n = len(A1)

    def terms(side):
        total = 0
        k1_bound = comp_add(A2, A1) if side == "lhs" else comp_add(B2, B1)
        for K1 in iter_box(tuple(min(v, big_n) for v in k1_bound)):
            if sum(K1) > big_n:
                continue
            if side == "lhs":
                K2 = comp_sub(comp_add(A2, A1), K1)
                K3 = comp_sub(comp_add(A3, K1), B1)
                if any(v < 0 for v in K2 + K3) or sum(K2) > big_m or sum(K3) > big_l:
                    continue
                w = fused_weight(A2, A1, K2, K1, q, x / y, big_n, big_m)
                if w == 0:
                    continue
                w = w * fused_weight(A3, K1, K3, B1, q, x / z, big_n, big_l)
                if w == 0:
                    continue
                w = w * fused_weight(K3, K2, B3, B2, q, y / z, big_m, big_l)
            else:
                K2 = comp_sub(comp_add(B2, B1), K1)
                K3 = comp_sub(comp_add(A3, A2), K2)
                if any(v < 0 for v in K2 + K3) or sum(K2) > big_m or sum(K3) > big_l:
                    continue
                w = fused_weight(A3, A2, K3, K2, q, y / z, big_m, big_l)
                if w == 0:
                    continue
                w = w * fused_weight(K3, A1, B3, K1, q, x / z, big_n, big_l)
                if w == 0:
                    continue
                w = w * fused_weight(K2, K1, B2, B1, q, x / y, big_n, big_m)
            total += w
        return total

    return terms("lhs") - terms("rhs")


def _rand_frac(rng, lo_num=1, hi_num=9, lo_den=10, hi_den=23):
    return Fraction(int(rng.integers(lo_num, hi_num + 1)), int(rng.integers(lo_den, hi_den + 1)))


def _params_degenerate(kind, params, max_total=16):
    """True when some constituent weight has a vanishing denominator.

    The q-Hahn denominators are (s^2; q)_{|A|}, singular when s^2 = q^{-m};
    the six-vertex ones are 1 - s z.  All products appearing in the three
    vertices of each equation are checked.
    """
    q = params["q"]
    if kind in ("qhahn", "qhahn-deformed"):
        eta = params.get("eta")
        spins = [params["t2"] ** 2, params["t3"] ** 2]
        if eta is not None:
            spins += [(eta * params["t2"]) ** 2, (eta * params["t3"]) ** 2]
        for v in spins:
            for m in range(0, max_total + 1):
                if v * q**m == 1:
                    return True
        return False
    x, s, t = params["x"], params["s"], params["t"]
    if x * t * t == 1 or x * s * s == 1:
        return True
    for v in (s * s, t * t):
        for m in range(0, max_total + 1):
            if v * q**m == 1:
                return True
    return False


def random_ybe_instance(kind, rng, colors=2, max_entry=2):
    """Random rational parameters plus a conservation-consistent boundary.

    Draws are rejected while they sit on a pole of a constituent weight
    (vanishing Pochhammer or six-vertex denominator).
    """
    kind = canonical_ybe_kind(kind)
    n = colors
    q = _rand_frac(rng)
    if kind in ("qhahn", "qhahn-deformed"):
        for _ in range(100):
            params = {"q": q, "t1": _rand_frac(rng), "t2": _rand_frac(rng), "t3": _rand_frac(rng)}
            if kind == "qhahn-deformed":
                params["eta"] = _rand_frac(rng, 1, 9, 2, 9)
            if not _params_degenerate(kind, params):
                break
        A1 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        A2 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        A3 = tuple(int(rng.integers(0, max_entry + 1)) for _ in range(n))
        total = comp_add(comp_add(A1, A2), A3)
        B1 = tuple(int(rng.integers(0, tc + 1)) for tc in total)
        rest = comp_sub(total, B1)
        B2 = tuple(int(rng.integers(0, rc + 1)) for rc in rest)
        B3 = comp_sub(rest, B2)
        return (A1, A2, A3, B1, B2, B3), params
    for _ in range(100):
        params = {"q": q, "x": _rand_frac(rng), "s": _rand_frac(rng), "t": _rand_frac(rng)}
        if kind == "sixvertex-deformed":
            params["eta"] = _rand_frac(rng, 1, 9, 2, 9)
        if not _params_degenerate(kind, params):
            break
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
    AB = comp_add(A, B)
    lhs = 0 * (q * 0 + 1)
    for D in iter_box(A):
        C = comp_sub(AB, D)
        w = qhahn_weight(A, B, C, D, q, tt, ss)
        if w == 0:
            continue
        e = sum(R[i] * D[j] for i in range(n) for j in range(i, n))
        lhs += q**e * w

    r = sum(R)
    rhs = 0 * (q * 0 + 1)
    for P in iter_box(R):
        term = _qhahn_coefficient(sum(P), r, q, tt, ss)
        e1 = sum((R[i] - P[i]) * P[j] for i in range(n) for j in range(i + 1, n))
        e2 = sum(P[i] * A[j] for i in range(n) for j in range(i, n))
        term *= q ** (e1 + e2)
        for Ri, Pi in zip(R, P):
            term *= q_binomial(Ri, Pi, q)
        rhs += term
    return lhs - rhs


def local_relation_shuffle_rhs(c, A, q, tt, ss):
    """Sequence-form right-hand side: sum over ordered-subsequence permutations."""
    r = len(c)
    rhs = 0 * (q * 0 + 1)
    for p in range(r + 1):
        coeff = _qhahn_coefficient(p, r, q, tt, ss)
        for tau in shuffles(p, r):
            sub = tuple(c[tau.inv(a) - 1] for a in range(1, p + 1))
            rhs += coeff * q**tau.length * local_qmoment(sub, A, q)
    return rhs
