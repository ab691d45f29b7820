import math
from fractions import Fraction

import pytest

from qhahn_polymer.qtools import (
    ConvergenceError,
    Permutation,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    shuffles,
)


def test_pochhammer_zero_terms():
    assert q_pochhammer(Fraction(3, 7), Fraction(1, 2), 0) == 1


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_pochhammer_at_zero_argument(n):
    assert q_pochhammer(Fraction(0), Fraction(2, 5), n) == 1


def test_pochhammer_negative_one():
    x, q = Fraction(1, 3), Fraction(1, 2)
    assert q_pochhammer(x, q, -1) == 1 / (1 - x / q)


def test_pochhammer_splitting_identity():
    # (x;q)_{n+m} = (x;q)_n (x q^n; q)_m over a grid including negatives
    x, q = Fraction(2, 7), Fraction(3, 5)
    for n in range(-3, 4):
        for m in range(-3, 4):
            lhs = q_pochhammer(x, q, n + m)
            rhs = q_pochhammer(x, q, n) * q_pochhammer(x * q**n, q, m)
            assert lhs == rhs


def test_pochhammer_infinite_vs_brute_force():
    val = q_pochhammer_inf(0.5, 0.5)
    brute = 1.0
    for i in range(200):
        brute *= 1.0 - 0.5 * 0.5**i
    assert abs(val - brute) < 1e-12


def test_pochhammer_infinite_reports_bound():
    val, bound = q_pochhammer_inf(0.3, 0.7, return_bound=True)
    assert bound < 1e-15
    assert abs(val - q_pochhammer_inf(0.3, 0.7, tol=1e-18)) < 1e-13


def test_pochhammer_infinite_raises_at_its_factor_cap():
    # |q| near 1: 100,000 factors leave the tail bound far above tol, so the product is not returned
    with pytest.raises(ConvergenceError, match="100000 factors") as err:
        q_pochhammer_inf(1e-6, 0.99999)
    assert abs(err.value.value - 0.9387441933) < 1e-9


def test_pochhammer_infinite_rejects_bad_q():
    with pytest.raises(ValueError):
        q_pochhammer_inf(0.5, 1.0)


def test_q_binomial_values():
    q = Fraction(2, 9)
    assert q_binomial(5, 0, q) == 1
    assert q_binomial(3, 1, q) == 1 + q + q**2
    assert q_binomial(2, 3, q) == 0
    assert q_binomial(4, -1, q) == 0


def test_q_binomial_pascal_recursion():
    q = Fraction(3, 11)
    for n in range(1, 7):
        for m in range(0, n + 1):
            assert q_binomial(n, m, q) == q_binomial(n - 1, m - 1, q) + q**m * q_binomial(n - 1, m, q)


def test_q_binomial_ratio_form():
    # equals (q;q)_n / ((q;q)_m (q;q)_{n-m})
    q = Fraction(1, 3)
    for n in range(6):
        for m in range(n + 1):
            direct = q_pochhammer(q, q, n) / (q_pochhammer(q, q, m) * q_pochhammer(q, q, n - m))
            assert q_binomial(n, m, q) == direct


def test_permutation_basic():
    pi = Permutation((2, 3, 1))
    assert pi.length == 2
    assert pi.inverse().values == (3, 1, 2)
    assert Permutation.from_word((1,), 3).values == (2, 1, 3)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_reduced_words():
    import itertools

    for k in range(1, 5):
        for vals in itertools.permutations(range(1, k + 1)):
            pi = Permutation(vals)
            word = pi.reduced_word()
            assert len(word) == pi.length
            prod = Permutation.identity(k)
            for i in word:
                prod = prod * Permutation.from_word((i,), k)
            assert prod == pi == Permutation.from_word(word, k)


def test_from_word_rejects_letters_outside_S_k():
    for word, k in [((0,), 2), ((3,), 3), ((1, 0), 3), ((1,), 1)]:
        with pytest.raises(ValueError, match="simple transposition"):
            Permutation.from_word(word, k)


def test_shuffles_trivial_and_counts():
    assert shuffles(0, 3) == [Permutation.identity(3)]
    for r in range(0, 6):
        for p in range(0, r + 1):
            assert len(shuffles(p, r)) == math.comb(r, p)


def test_shuffles_small_case_lengths():
    lens = sorted(pi.length for pi in shuffles(1, 2))
    assert lens == [0, 1]


def test_shuffles_length_formula_and_ordering():
    for r in range(0, 6):
        for p in range(0, r + 1):
            seen = set()
            for pi in shuffles(p, r):
                inv = [pi.inv(a) for a in range(1, r + 1)]
                assert inv[:p] == sorted(inv[:p])
                assert inv[p:] == sorted(inv[p:])
                subset = tuple(sorted(inv[:p]))
                assert subset not in seen
                seen.add(subset)
                assert pi.length == sum(inv[:p]) - p * (p + 1) // 2
