"""q-series, permutation utilities, and exact rational arithmetic.

Everything here is written with generic scalar arithmetic: pass
``fractions.Fraction`` arguments to evaluate identities exactly, or
float/complex arguments for numerical work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

__all__ = [
    "ConvergenceError",
    "q_pochhammer",
    "q_pochhammer_inf",
    "q_binomial",
    "Permutation",
    "shuffles",
    "spawn_rng",
    "comp_add",
    "comp_sub",
    "comp_leq",
    "comp_interval",
    "unit_comp",
    "iter_box",
]


class ConvergenceError(RuntimeError):
    """A capped routine reached its cap short of its tolerance; ``value`` is its last value, or None."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


def q_pochhammer(x, q, n):
    """q-shifted factorial (x; q)_n for integer n (possibly negative) or infinity.

    For n >= 0 this is prod_{i=1}^{n} (1 - x q^{i-1}); for n <= 0 it is
    prod_{i=0}^{-n-1} (1 - x q^{-i-1})^{-1}.  ``n=math.inf`` delegates to
    :func:`q_pochhammer_inf`.
    """
    if n is math.inf or n == math.inf:
        return q_pochhammer_inf(x, q)
    if n != int(n):
        raise ValueError("n must be an integer or math.inf")
    n = int(n)
    one = _one_like(x, q)
    out = one
    if n >= 0:
        qp = one
        for _ in range(n):
            out = out * (one - x * qp)
            qp = qp * q
    else:
        qp = one / q
        for _ in range(-n):
            factor = one - x * qp
            if factor == 0:
                raise ZeroDivisionError("vanishing factor in (x;q)_n with n < 0")
            out = out / factor
            qp = qp / q
    return out


def q_pochhammer_inf(x, q, tol=1e-15, return_bound=False):
    """(x; q)_infinity for |q| < 1, truncated once the tail bound drops below tol.

    The remaining log-product after m factors is bounded in modulus by
    sum_{i>m} |x||q|^{i-1} / (1 - |x||q|^{i-1}), a geometric tail; truncation
    stops when that bound is below ``tol``.  A bound still at or above ``tol``
    after 100,000 factors raises ``ConvergenceError`` carrying the
    truncated product.  With ``return_bound`` the (value, bound) pair is returned.
    """
    xa, qa = complex(x), complex(q)
    if abs(qa) >= 1:
        raise ValueError("infinite q-Pochhammer needs |q| < 1")
    out = 1.0 + 0.0j
    qp = 1.0 + 0.0j
    bound = math.inf
    for _ in range(100000):
        out *= 1.0 - xa * qp
        qp *= qa
        t = abs(xa) * abs(qp)
        if t < 0.5:
            # |log(1-u)| <= 2|u| for |u| <= 1/2; geometric sum of the tail
            bound = 2.0 * t / (1.0 - abs(qa))
            if bound < tol:
                break
    value = out.real if (not isinstance(x, complex) and not isinstance(q, complex)) else out
    if bound >= tol:
        raise ConvergenceError(f"(x; q)_infinity: tail bound {bound:.3g} is not below tol={tol:g} after "
                               "100000 factors", value)
    if return_bound:
        return value, bound
    return value


def q_binomial(n, m, q):
    """Gaussian binomial coefficient; 0 outside 0 <= m <= n.

    The out-of-range convention matches the vanishing of vertex weights for
    impossible configurations.
    """
    if m < 0 or n < 0 or m > n:
        return 0 * _one_like(q, q)
    one = _one_like(q, q)
    m = min(m, n - m)
    num = one
    den = one
    for i in range(1, m + 1):
        num = num * (one - q ** (n - m + i))
        den = den * (one - q**i)
    return num / den


def _one_like(x, q):
    for v in (x, q):
        if isinstance(v, Fraction):
            return Fraction(1)
        if isinstance(v, complex):
            return 1.0 + 0.0j
        if isinstance(v, float):
            return 1.0
    return Fraction(1) if isinstance(x, int) and isinstance(q, int) else 1.0


class Permutation:
    """Permutation of {1..k} in one-line notation, with cached inverse and length."""

    __slots__ = ("values", "_inverse", "_length")

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        k = len(values)
        if sorted(values) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {values}")
        self.values = values
        inv = [0] * k
        for pos, v in enumerate(values, start=1):
            inv[v - 1] = pos
        self._inverse = tuple(inv)
        self._length = sum(
            1 for i in range(k) for j in range(i + 1, k) if values[i] > values[j]
        )

    @classmethod
    def identity(cls, k):
        return cls(range(1, k + 1))

    @classmethod
    def from_word(cls, word, k):
        """sigma_{i_1} ... sigma_{i_l} in S_k; right multiplication by sigma_i swaps entries i and i+1."""
        vals = list(range(1, k + 1))
        for i in word:
            if not 1 <= i < k:
                raise ValueError(f"letter {i} is not a simple transposition of S_{k}")
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        return cls(vals)

    @property
    def rank(self):
        return len(self.values)

    @property
    def length(self):
        return self._length

    def __call__(self, i):
        return self.values[i - 1]

    def inverse(self):
        return Permutation(self._inverse)

    def inv(self, i):
        return self._inverse[i - 1]

    def __mul__(self, other):
        """Composition (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.values[other.values[i - 1] - 1] for i in range(1, self.rank + 1)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Permutation{self.values}"

    def reduced_word(self):
        """A reduced word (i_1,...,i_l) with sigma_{i_1}...sigma_{i_l} = self."""
        vals = list(self.values)
        word = []
        while True:
            for i in range(len(vals) - 1):
                if vals[i] > vals[i + 1]:
                    vals[i], vals[i + 1] = vals[i + 1], vals[i]
                    word.append(i + 1)
                    break
            else:
                break
        word.reverse()
        return tuple(word)


def shuffles(p, r):
    """All [1,p] x [p+1,r]-ordered permutations of S_r (the (p, r-p) shuffles).

    Each corresponds to a p-subset {i_1 < ... < i_p} of {1..r} via
    pi^{-1}(a) = i_a for a <= p, and has length sum(i_a) - p(p+1)/2.
    """
    if not 0 <= p <= r:
        raise ValueError("need 0 <= p <= r")
    out = []
    universe = range(1, r + 1)
    for subset in combinations(universe, p):
        rest = [i for i in universe if i not in subset]
        inv = list(subset) + rest
        pi = Permutation(inv).inverse()
        out.append(pi)
    return out


def spawn_rng(seed, index=0):
    """Deterministic per-replica generator derived from (master seed, index)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Compositions: tuples of nonnegative ints counting colored paths on an edge.


def comp_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def comp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def comp_leq(a, b):
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def comp_interval(a, i, j):
    """A_{[i,j]} = A_i + ... + A_j for 1 <= i <= j, else 0 (1-indexed)."""
    if i > j:
        return 0
    i = max(i, 1)
    j = min(j, len(a))
    return sum(a[i - 1 : j])


def unit_comp(n, c):
    """Standard basis composition e^c in n colors; c = 0 gives the zero composition."""
    e = [0] * n
    if c:
        e[c - 1] = 1
    return tuple(e)


def iter_box(bounds):
    """All compositions D with 0 <= D_i <= bounds_i, in lexicographic order."""
    return product(*(range(b + 1) for b in bounds))
