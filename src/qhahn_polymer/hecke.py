"""Pointwise Demazure-Lusztig operators and their degenerate (additive) limit.

The polynomial representation acts on black-box functions of k complex
variables by

    T_i = q + (w_{i+1} - q w_i)/(w_{i+1} - w_i) (s_i - 1),
    t_i = 1 + (v_{i+1} - v_i - 1)/(v_{i+1} - v_i) (s_i - 1),

where s_i swaps the arguments i and i+1.  A word is applied left to right as
operator composition, so T applied along a reduced word of tau computes
T_tau f, consistent with T_pi T_tau = T_{pi tau} when lengths add.

Near-coincident arguments are handled by the analytic limit (the operators
are regular on the diagonal even though the formulas are 0/0 there).
"""

from __future__ import annotations

import numpy as np

from .qtools import Permutation, shuffles
from .weights import _qhahn_coefficient

__all__ = ["HeckeWord", "apply_T", "apply_t", "local_rational_residual", "hecke_suite"]

_COINCIDENCE_RTOL = 1e-9
_DIFF_STEP = 1e-6


class HeckeWord:
    """A permutation together with a validated reduced word for it."""

    __slots__ = ("perm", "word")

    def __init__(self, perm, word=None):
        if word is None:
            word = perm.reduced_word()
        word = tuple(int(i) for i in word)
        if len(word) != perm.length:
            raise ValueError("word is not reduced (length mismatch)")
        prod = Permutation.identity(perm.rank)
        for i in word:
            prod = prod * Permutation.transposition(i, perm.rank)
        if prod != perm:
            raise ValueError("word does not multiply to the target permutation")
        self.perm = perm
        self.word = word

    @classmethod
    def of(cls, perm_or_word, k=None):
        if isinstance(perm_or_word, HeckeWord):
            return perm_or_word
        if isinstance(perm_or_word, Permutation):
            return cls(perm_or_word)
        word = tuple(perm_or_word)
        if k is None:
            k = max(word, default=0) + 1
        prod = Permutation.identity(k)
        for i in word:
            prod = prod * Permutation.transposition(i, k)
        return cls(prod, word)

    def __repr__(self):
        return f"HeckeWord({self.perm.values}, word={self.word})"


def _apply_word(word, f, w, const, coeff, limit_coeff):
    memo = {}

    def ev(idx, pt):
        key = (idx, pt)
        if key in memo:
            return memo[key]
        if idx == len(word):
            val = f(pt)
        else:
            i = word[idx]
            a, b = pt[i - 1], pt[i]
            if abs(b - a) < _COINCIDENCE_RTOL * (1.0 + abs(a)):
                m = 0.5 * (a + b)
                d = _DIFF_STEP * (1.0 + abs(m))
                p_mid = pt[: i - 1] + (m, m) + pt[i + 1 :]
                p_plus = pt[: i - 1] + (m + d, m - d) + pt[i + 1 :]
                p_minus = pt[: i - 1] + (m - d, m + d) + pt[i + 1 :]
                diff = (ev(idx + 1, p_plus) - ev(idx + 1, p_minus)) / (2.0 * d)
                val = const * ev(idx + 1, p_mid) + limit_coeff(m) * diff
            else:
                swapped = pt[: i - 1] + (b, a) + pt[i + 1 :]
                base = ev(idx + 1, pt)
                val = const * base + coeff(a, b) * (ev(idx + 1, swapped) - base)
        memo[key] = val
        return val

    return ev(0, tuple(w))


def apply_T(word, f, w, q):
    """Evaluate (T_tau f)(w) for tau given by a HeckeWord/Permutation/word."""
    hw = HeckeWord.of(word, k=len(tuple(w)))
    return _apply_word(
        hw.word,
        f,
        w,
        const=q,
        coeff=lambda a, b: (b - q * a) / (b - a),
        limit_coeff=lambda m: (1.0 - q) * m,
    )


def apply_t(word, f, v):
    """Evaluate the degenerate representation (t_tau f)(v)."""
    hw = HeckeWord.of(word, k=len(tuple(v)))
    return _apply_word(
        hw.word,
        f,
        v,
        const=1.0,
        coeff=lambda a, b: (b - a - 1.0) / (b - a),
        limit_coeff=lambda m: -1.0,
    )


def local_rational_residual(r, t, s, lam, w, q):
    """Residual of the rational-function local relation at the point w.

    LHS is prod (1 - lam t^{-2} w_i)/(1 - lam w_i); RHS sums over ordered
    subsequence permutations tau the coefficient times T_{tau^{-1}} applied to
    the length-p analogue with s in place of t.
    """
    w = tuple(w)
    if len(w) != r:
        raise ValueError("point dimension must equal r")
    tt, ss = t * t, s * s
    lhs = 1
    for wi in w:
        lhs = lhs * (1 - lam / tt * wi) / (1 - lam * wi)

    rhs = 0
    for p in range(r + 1):
        coeff = _qhahn_coefficient(p, r, q, tt, ss)

        def f_p(pt, p=p):
            val = 1
            for i in range(p):
                val = val * (1 - lam / ss * pt[i]) / (1 - lam * pt[i])
            return val

        for tau in shuffles(p, r):
            rhs += coeff * apply_T(tau.inverse(), f_p, w, q)
    return lhs - rhs


def hecke_suite(k, q, rng, npoints=50):
    """Max errors of the defining relations, evaluated at random complex points.

    Checks the quadratic relation (T_i - q)(T_i + 1) = 0, the braid relation,
    reduced-word independence of T_tau over all of S_k, the composition law
    when lengths add, and the eigenvalue q on symmetric functions.
    """
    import itertools

    def rand_pt():
        return tuple(complex(x, y) for x, y in rng.normal(size=(k, 2)))

    def rand_f():
        c = rng.normal(size=(k, 2))
        coeffs = tuple(complex(x, y) for x, y in c)

        def f(pt):
            val = 1.0 + 0.0j
            for ci, wi in zip(coeffs, pt):
                val *= 1.0 + ci * wi + 0.2 * ci * wi * wi
            return val

        return f

    errs = {"quadratic": 0.0, "braid": 0.0, "word_independence": 0.0, "composition": 0.0, "symmetric_eigenvalue": 0.0}
    for _ in range(npoints):
        f = rand_f()
        w = rand_pt()
        i = int(rng.integers(1, k))
        Ti = lambda g, i=i: (lambda pt: apply_T((i,), g, pt, q))
        lhs = apply_T((i,), Ti(f), w, q) - (q - 1.0) * apply_T((i,), f, w, q) - q * f(w)
        errs["quadratic"] = max(errs["quadratic"], abs(lhs))

        if k >= 3:
            j = int(rng.integers(1, k - 1))
            b1 = apply_T((j, j + 1, j), f, w, q)
            b2 = apply_T((j + 1, j, j + 1), f, w, q)
            errs["braid"] = max(errs["braid"], abs(b1 - b2))

        g_sym = lambda pt: sum(pt) + sum(u * u for u in pt)
        errs["symmetric_eigenvalue"] = max(
            errs["symmetric_eigenvalue"], abs(apply_T((i,), g_sym, w, q) - q * g_sym(w))
        )

    perms = [Permutation(v) for v in itertools.permutations(range(1, k + 1))]
    for tau in perms:
        f = rand_f()
        w = rand_pt()
        words = _all_reduced_words(tau)
        vals = [_apply_word(wd, f, w, q, lambda a, b: (b - q * a) / (b - a), lambda m: (1 - q) * m) for wd in words[:6]]
        for v in vals[1:]:
            errs["word_independence"] = max(errs["word_independence"], abs(v - vals[0]))
        for pi in perms:
            if pi.length + tau.length == (pi * tau).length:
                lhs = apply_T(pi, lambda pt: apply_T(tau, f, pt, q), w, q)
                rhs = apply_T(pi * tau, f, w, q)
                errs["composition"] = max(errs["composition"], abs(lhs - rhs))
    return errs


def _all_reduced_words(perm):
    """Enumerate reduced words of perm (all of them; fine for k <= 4)."""
    if perm.length == 0:
        return [()]
    out = []
    k = perm.rank
    for i in range(1, k):
        # right descent: perm(i) > perm(i+1) allows peeling sigma_i
        if perm(i) > perm(i + 1):
            shorter = perm * Permutation.transposition(i, k)
            for wd in _all_reduced_words(shorter):
                out.append(wd + (i,))
    return out
