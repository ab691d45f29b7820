import itertools
from fractions import Fraction

import numpy as np
import pytest

from qhahn_polymer.hecke import apply_T, apply_t, hecke_suite, local_rational_residual
from qhahn_polymer.qtools import Permutation, spawn_rng

RNG = np.random.default_rng(42)
Q = 0.37


def rand_point(k, rng=RNG, scale=1.0):
    pts = rng.normal(size=(k, 2)) * scale
    return tuple(complex(x, y) for x, y in pts)


def rand_rational_function(k, rng=RNG):
    c = rng.normal(size=(k, 2))
    coeffs = tuple(complex(x, y) for x, y in c)

    def f(pt):
        num = 1.0 + 0.0j
        for ci, wi in zip(coeffs, pt):
            num *= 1.0 + ci * wi + 0.3 * ci * wi**2
        return num / (3.0 + sum(pt) ** 2 / (1.0 + abs(sum(pt)) ** 2))

    return f


def test_T_on_constant_is_q():
    one = lambda pt: 1.0
    for _ in range(10):
        w = rand_point(3)
        assert abs(apply_T((1,), one, w, Q) - Q) < 1e-14
        assert abs(apply_T((2,), one, w, Q) - Q) < 1e-14


def test_T_symmetric_eigenvalue():
    f = lambda pt: (pt[0] + pt[1]) ** 2 + pt[0] * pt[1]
    for _ in range(20):
        w = rand_point(2)
        assert abs(apply_T((1,), f, w, Q) - Q * f(w)) < 1e-12 * (1 + abs(f(w)))


def test_quadratic_relation():
    for _ in range(50):
        k = 3
        f = rand_rational_function(k)
        w = rand_point(k)
        i = int(RNG.integers(1, k))
        Tif = lambda pt: apply_T((i,), f, pt, Q)
        resid = apply_T((i,), Tif, w, Q) - (Q - 1) * apply_T((i,), f, w, Q) - Q * f(w)
        assert abs(resid) < 1e-10


def test_braid_relation():
    for _ in range(25):
        f = rand_rational_function(3)
        w = rand_point(3)
        b1 = apply_T((1, 2, 1), f, w, Q)
        b2 = apply_T((2, 1, 2), f, w, Q)
        assert abs(b1 - b2) < 1e-10 * (1 + abs(b1))


def test_reduced_word_independence_S4():
    from qhahn_polymer.hecke import _all_reduced_words

    for vals in itertools.permutations((1, 2, 3, 4)):
        tau = Permutation(vals)
        words = _all_reduced_words(tau)
        f = rand_rational_function(4)
        w = rand_point(4)
        ref = apply_T(words[0], f, w, Q)
        for wd in words[1:]:
            val = apply_T(wd, f, w, Q)
            assert abs(val - ref) < 1e-11 * (1 + abs(ref))


def test_composition_law():
    perms = [Permutation(v) for v in itertools.permutations((1, 2, 3))]
    f = rand_rational_function(3)
    for pi in perms:
        for tau in perms:
            if pi.length + tau.length != (pi * tau).length:
                continue
            w = rand_point(3)
            lhs = apply_T(pi, lambda pt: apply_T(tau, f, pt, Q), w, Q)
            rhs = apply_T(pi * tau, f, w, Q)
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def _apply_both(word, k):
    one = lambda pt: 1.0
    w = (0.3,) * k
    return [lambda: apply_T(word, one, w, Q), lambda: apply_t(word, one, w)]


def test_non_reduced_word_rejected():
    for call in _apply_both((1, 2, 2, 1, 1), 3):
        with pytest.raises(ValueError, match="not reduced"):
            call()
    for call in _apply_both((2,), 2):
        with pytest.raises(ValueError, match="simple transposition"):
            call()


def test_word_that_is_not_reduced_is_rejected_from_a_tuple():
    for word, k in [((1, 1), 2), ((1, 2, 1, 2), 3)]:
        for call in _apply_both(word, k):
            with pytest.raises(ValueError, match="not reduced"):
                call()
    for word, k in [((0,), 2), ((3,), 3), ((1, 0), 3)]:  # letters outside 1..k-1
        for call in _apply_both(word, k):
            with pytest.raises(ValueError, match="simple transposition"):
                call()


def test_permutation_of_another_rank_is_rejected():
    # the letter 3 of (1, 2, 4, 3) does not act on a point of dimension 2, and (2, 1) is not in S_3
    for perm, k in [(Permutation((1, 2, 4, 3)), 2), (Permutation((2, 1)), 3)]:
        for call in _apply_both(perm, k):
            with pytest.raises(ValueError, match=f"S_{perm.rank} does not act on a point of dimension {k}"):
                call()


def test_heckeword_of_every_permutation_in_S4():
    # a Permutation and its reduced word, passed as a tuple, name the same Hecke word
    f = rand_rational_function(4)
    w = rand_point(4)
    for values in itertools.permutations(range(1, 5)):
        perm = Permutation(values)
        word = perm.reduced_word()
        assert len(word) == perm.length
        assert Permutation.from_word(word, 4) == perm
        assert apply_T(word, f, w, Q) == apply_T(perm, f, w, Q)


def test_coincident_arguments_finite_and_consistent():
    f = rand_rational_function(2)
    base = (0.7 + 0.2j, 0.7 + 0.2j)
    limit_val = apply_T((1,), f, base, Q)
    assert np.isfinite(limit_val.real) and np.isfinite(limit_val.imag)
    # approaching along a sequence must agree
    seq = apply_T((1,), f, (0.7 + 0.2j, 0.7 + 0.2j + 1e-5), Q)
    assert abs(limit_val - seq) < 1e-4 * (1 + abs(limit_val))


def test_t_degenerate_basics():
    one = lambda pt: 1.0
    f_sym = lambda pt: pt[0] * pt[1] + (pt[0] + pt[1]) ** 3
    for _ in range(10):
        v = rand_point(2, scale=2.0)
        assert abs(apply_t((1,), one, v) - 1.0) < 1e-14
        assert abs(apply_t((1,), f_sym, v) - f_sym(v)) < 1e-11 * (1 + abs(f_sym(v)))


def test_t_is_limit_of_T():
    # w = 1 - eps v, q = e^{-eps}: T_i -> t_i
    f = rand_rational_function(2)
    v = (1.3 + 0.4j, -0.2 + 1.1j)
    target = apply_t((1,), f, v)
    errs = []
    for eps in (1e-3, 1e-4):
        q = np.exp(-eps)
        g = lambda pt: f(tuple((1.0 - u) / eps for u in pt))
        w = tuple(1.0 - eps * u for u in v)
        errs.append(abs(apply_T((1,), g, w, q) - target))
    assert errs[0] < 5e-3
    assert errs[1] < errs[0]


def test_local_rational_r0_and_r1_exact():
    t, s, lam, q = Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(3, 11)
    assert local_rational_residual(0, t, s, lam, (), q) == 0
    w = (Fraction(5, 9),)
    assert local_rational_residual(1, t, s, lam, w, q) == 0


def test_local_rational_random_points():
    rng = np.random.default_rng(7)
    t, s, lam, q = 0.55, 0.35, 0.4, 0.62
    for r in (2, 3):
        for _ in range(25):
            w = tuple(complex(x, y) for x, y in rng.normal(size=(r, 2)))
            resid = local_rational_residual(r, t, s, lam, w, q)
            assert abs(resid) < 1e-12


def test_hecke_suite_tolerances():
    rng = np.random.default_rng(3)
    errs = hecke_suite(3, 0.44, rng, npoints=20)
    assert max(errs.values()) < 1e-10


def test_hecke_suite_errors_are_pinned():
    # bit for bit: how the words are built and passed must not move any error
    errs = hecke_suite(4, 0.44, spawn_rng(1, 404), npoints=50)
    assert errs == {"quadratic": 1.6876850730849092e-14, "braid": 6.99803436660041e-14,
                    "word_independence": 2.3932453300842998e-14, "composition": 7.595094054341032e-15,
                    "symmetric_eigenvalue": 2.2452871135843694e-15}
