import itertools
import math

import numpy as np
import pytest

from qhahn_polymer.model import HeightRequest, QHahnModel, base_case_product, enumerate_exact
from qhahn_polymer.moments import (
    ContourError,
    ConvergenceError,
    _nested_circles,
    beta_moment_integral,
    build_contours,
    build_shifted_contours,
    qmoment_integral,
    single_contour_moment,
    small_sigma_circle,
    tensor_quadrature,
)
from qhahn_polymer.polymer import PolymerModel, joint_moment_annealed, moment_annealed, qhahn_bridge_model
from qhahn_polymer.qtools import Permutation


def lattice_model(q=0.85):
    return QHahnModel(
        q=q,
        mu=(2.4, 2.45, 2.5, 2.42),
        kappa=(2.0, 2.05, 2.1),
        lam=(0.2, 0.21, 0.22),
        colors=(1, 1, 1),
    )


def poly_model():
    return PolymerModel(
        sigma_list=(1.3, 1.25, 1.28, 1.27),
        rho_list=(0.2, 0.3, 0.25, 0.27),
        omega_list=(-4.2, -4.3, -4.1, -4.25),
    )


def _random_lattice_models(seed=2026, n=40):
    # N = 2, q in (0.05, 0.95); the 7 parameters' reciprocals are sorted draws from (0.3, 3),
    # the smallest three as 1/mu, the next two as 1/kappa and the largest two as 1/lam
    rng = np.random.default_rng(seed)
    for _ in range(n):
        inv = np.sort(rng.uniform(0.3, 3.0, 7))
        yield QHahnModel(q=float(rng.uniform(0.05, 0.95)), mu=tuple(1 / inv[:3]), kappa=tuple(1 / inv[3:5]),
                         lam=tuple(1 / inv[5:]), colors=(1, 1))


def _random_joint_requests(seed=2027, n=30):
    # unequal corners, delays r in {0, 1} and a random pairing tau on a model whose schedules
    # reach every corner, drawn like _random_polymer_models
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 4))
        xs = sorted(int(v) for v in rng.integers(0, 3, k))
        ys = sorted((xs[-1] + int(v) for v in rng.integers(1, 4, k)), reverse=True)
        rs = sorted(int(v) for v in rng.integers(0, 2, k))
        span = max(y - x for x, y in zip(xs, ys))
        pm = PolymerModel(1.0 + 0.6 * rng.random(xs[-1] + 1), 0.5 * rng.random(ys[0]), -rng.uniform(0.5, 3.0, span))
        yield pm, xs, ys, rs, Permutation(tuple(int(v) + 1 for v in rng.permutation(k)))


def _inside(c1, r1, c2, r2):
    """The closed disc (c1, r1) lies in the open disc (c2, r2)."""
    return abs(c1 - c2) + r1 < r2


def _assert_nested(cont, inside, excluded, image):
    # image(c, r) is the circle that the family's map sends the circle (c, r) to
    cs, rs = cont.centers, cont.radii
    assert all(abs(p - cs[0]) < rs[0] for p in inside)
    assert all(abs(p - cs[-1]) > rs[-1] for p in excluded)
    for a in range(cont.k - 1):
        assert _inside(cs[a], rs[a], cs[a + 1], rs[a + 1])
        assert _inside(*image(cs[a], rs[a]), cs[a + 1], rs[a + 1])


def test_contours_nest_and_validate():
    # the lattice map is w -> q w, the polymer map v -> v + 1
    for m in [lattice_model()] + list(_random_lattice_models()):
        for k in (1, 2, 3, 4):
            cont = build_contours(m, k)
            assert cont.k == k
            _assert_nested(cont, [1 / v for v in m.mu + m.kappa], [0.0] + [1 / v for v in m.lam],
                           lambda c, r, q=m.q: (q * c, q * r))
    corners = [(pm, [x] * k, [y] * k) for pm, x, y in _random_polymer_models() for k in (1, 2, 3, 4)]
    corners += [(pm, xs, ys) for pm, xs, ys, _, _ in _random_joint_requests()]
    for pm, xs, ys in corners:
        cont = build_shifted_contours(pm, xs, ys)
        assert cont.k == len(xs)
        slots = [pm.corner_slots(x, y) for x, y in zip(xs, ys)]
        _assert_nested(cont, [v for sg, rh, _ in slots for v in sg + rh], [v for *_, om in slots for v in om],
                       lambda c, r: (c + 1.0, r))


def test_contour_entry_check_names_the_excluded_points():
    with pytest.raises(ContourError, match="not strictly between"):
        _nested_circles([0.5, 2.0], 1.0, math.inf, lambda v: v + 1.0, 2)


def test_qmoment_base_case_on_a_wide_cluster_model():
    # min 1/lam = 0.8 sits 0.27 from the pole cluster [0.48, 0.53], while each q-scaled copy
    # (q = 0.5) reaches halfway to 0
    m = QHahnModel(q=0.5, mu=(2.0, 2.1, 2.05), kappa=(1.9, 1.95), lam=(1.2, 1.25), colors=(1, 1))
    for ys, cs, tauv in (([2.5, 1.5], [1, 2], (2, 1)), ([2.5, 2.5], [1, 2], (1, 2)),
                         ([2.5, 2.5, 1.5], [1, 2, 2], (3, 1, 2)), ([2.5, 1.5, 0.5], [1, 1, 2], (3, 2, 1))):
        req = HeightRequest.make([0.5] * len(ys), ys, cs, Permutation(tauv))
        tgt = base_case_product(m, req)
        assert abs(qmoment_integral(m, req) - tgt) <= 1e-8 * tgt


def test_qmoment_diagonal_request_is_one():
    m = lattice_model()
    req = HeightRequest.make([1.5], [1.5], [1], Permutation.identity(1))
    val = qmoment_integral(m, req)
    assert abs(val - 1.0) < 1e-10


def test_qmoment_base_case_k1():
    m = lattice_model()
    req = HeightRequest.make([0.5], [2.5], [2], Permutation.identity(1))
    val = qmoment_integral(m, req)
    tgt = base_case_product(m, req)
    assert abs(val - tgt) / abs(tgt) < 1e-10
    assert abs(val.imag) < 1e-12


def test_qmoment_base_case_k2_k3_with_tau():
    m = lattice_model()
    cases = [
        ([0.5, 0.5], [3.5, 2.5], [1, 2], (2, 1)),
        ([0.5, 0.5], [3.5, 3.5], [2, 3], (1, 2)),
        ([0.5, 0.5, 0.5], [3.5, 2.5, 1.5], [1, 2, 3], (3, 1, 2)),
        ([0.5, 0.5, 0.5], [3.5, 3.5, 2.5], [1, 1, 3], (2, 3, 1)),
    ]
    for xs, ys, cs, tauv in cases:
        req = HeightRequest.make(xs, ys, cs, Permutation(tauv))
        val = qmoment_integral(m, req)
        tgt = base_case_product(m, req)
        assert abs(val - tgt) / abs(tgt) < 1e-8


def test_qmoment_matches_enumeration_2x2():
    m = QHahnModel(q=0.6, mu=(2.4, 2.5, 2.6), kappa=(1.25, 1.3), lam=(0.16, 0.18), colors=(1, 1))
    for tauv in [(1, 2), (2, 1)]:
        req = HeightRequest.make([0.5, 1.5], [2.5, 1.5], [1, 2], Permutation(tauv))
        exact, tail = enumerate_exact(m, req, tol=1e-12)
        val = qmoment_integral(m, req)
        assert tail < 1e-11
        assert abs(val - exact) / abs(exact) < 1e-6


@pytest.mark.parametrize("xs, ys, cs, tau, tol", [
    ([1.5], [2.5], [1], (1,), 1e-8),
    ([0.5, 1.5], [3.5, 2.5], [1, 3], (2, 1), 1e-8),
    ([0.5, 1.5], [3.5, 2.5], [2, 3], (1, 2), 1e-8),
    ([0.5, 1.5, 2.5], [3.5, 3.5, 2.5], [1, 2, 3], (1, 2, 3), 1e-5),  # about 1 s
])
def test_qmoment_matches_enumeration_three_colours(xs, ys, cs, tau, tol):
    # N = 3 with one path of each colour; the statistic lies in (0, 1], so the
    # enumeration's tail bound bounds its distance from the full expectation
    m = QHahnModel(q=0.6, mu=(2.0, 2.15, 2.3, 2.45), kappa=(1.1, 1.2, 1.3), lam=(0.2, 0.25, 0.3), colors=(1, 1, 1))
    req = HeightRequest.make(xs, ys, cs, Permutation(tau))
    exact, tail = enumerate_exact(m, req, tol=tol)
    assert tail < 3 * tol
    assert abs(qmoment_integral(m, req) - exact) <= tail


@pytest.mark.parametrize("k", [1, 2, 3])
def test_qhahn_bridge_moments_approach_the_polymer_at_rate_eps(k):
    # q = e^{-eps} -> 1 without Monte Carlo: on criterion 9's model, k facets of colour 2 at
    # (3/2, 7/2) give E[q^{k h}] -> E[(Z^(1)_{1,3})^k] with an error linear in eps, so the error
    # halves with eps and Richardson's 2 v(eps/2) - v(eps) cancels it to O(eps^2)
    pm = PolymerModel(sigma_list=(1.1, 1.3, 0.9, 1.2), rho_list=(0.1, 0.3, 0.2), omega_list=(-0.9, -1.1, -0.7))
    req = HeightRequest.make([1.5] * k, [3.5] * k, [2] * k)
    ref = moment_annealed(pm, 1, 3, 1, k)
    coarse, fine = (qmoment_integral(qhahn_bridge_model(pm, eps, 3), req).real for eps in (0.01, 0.005))
    assert 1.9 <= (coarse - ref) / (fine - ref) <= 2.1
    assert abs(2 * fine - coarse - ref) <= 1e-4 * ref


def test_qhahn_bridge_moments_approach_the_polymer_on_the_corpus():
    # the same limit on the first 12 corpus models, sigma and omega padded with their last value to
    # the bridge's y rows, r in {0, 1} and k = 1..3: 57 requests.  x = y - r is left out (Z = 1 there,
    # so the error is rounding).  The bridge's O(eps^2) term is larger here than on criterion 9's
    # model (Richardson's error reaches 1.5e-3 relative), so Richardson is held to the coarse error
    requests = 0
    for pm, x, y in itertools.islice(_random_polymer_models(), 12):
        sigma, omega = pm.sigma_list, pm.omega_list
        pm = PolymerModel(sigma + (sigma[-1],) * (y + 1 - len(sigma)), pm.rho_list,
                          omega + (omega[-1],) * (y - len(omega)))
        for r in (0, 1):
            if x >= y - r:
                continue
            for k in (1, 2, 3):
                req = HeightRequest.make([x + 0.5] * k, [y + 0.5] * k, [r + 1] * k)
                ref = moment_annealed(pm, x, y, r, k)
                coarse, fine = (qmoment_integral(qhahn_bridge_model(pm, eps, y), req).real for eps in (0.01, 0.005))
                assert 1.9 <= (coarse - ref) / (fine - ref) <= 2.1, (pm, x, y, r, k)
                assert abs(2 * fine - coarse - ref) <= 0.05 * abs(coarse - ref), (pm, x, y, r, k)
                requests += 1
    assert requests == 57


def test_self_adjointness_of_hecke_factor():
    # <T_tau F, G> = <F, T_{tau^{-1}} G> for the contour pairing
    m = lattice_model()
    k = 3
    cont = build_contours(m, k)
    q = m.q

    def make_factor(lam_idx, kap_idx):
        def g(w):
            return (1.0 - m.lam_of(lam_idx) * w) / (1.0 - m.kappa_of(kap_idx) * w)

        return g

    Fs = [make_factor(1, 1), make_factor(2, 2), make_factor(3, 3)]
    Gs = [make_factor(2, 3), make_factor(3, 1), make_factor(1, 2)]
    pair = lambda wa, wb: (wb - wa) / (wb - q * wa)
    coeff = lambda wi, wj: (wj - q * wi) / (wj - wi)

    for tauv in [(2, 1, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1)]:
        tau = Permutation(tauv)

        def lhs_at(M, tau=tau):
            axis = [lambda w, a=a: Gs[a](w) / w for a in range(k)]
            return tensor_quadrature(cont, M, axis, pair, (tau.reduced_word(), Fs, q, coeff))

        def rhs_at(M, tau=tau):
            axis = [lambda w, a=a: Fs[a](w) / w for a in range(k)]
            return tensor_quadrature(cont, M, axis, pair, (tau.inverse().reduced_word(), Gs, q, coeff))

        lhs, rhs = lhs_at(96), rhs_at(96)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_beta_k1_closed_form():
    pm = poly_model()
    val = beta_moment_integral(pm, [0], [1], [0])
    tgt = (pm.sigma(0) - pm.rho(1)) / (pm.sigma(0) - pm.omega(1))
    assert abs(val - tgt) < 1e-10
    one = beta_moment_integral(pm, [2], [2], [0])
    assert abs(one - 1.0) < 1e-10


def test_beta_integral_matches_annealed_oracle():
    pm = poly_model()
    for k, x, y in [(1, 1, 3), (2, 1, 3), (3, 1, 3)]:
        val = beta_moment_integral(pm, [x] * k, [y] * k, [0] * k)
        tgt = moment_annealed(pm, x, y, 0, k)
        assert abs(val - tgt) < 1e-9 * (1 + abs(tgt))
        assert abs(val.imag) < 1e-10


def test_beta_integral_delayed_and_joint():
    pm = poly_model()
    # single factor with delay r = 1
    val = beta_moment_integral(pm, [1], [3], [1])
    tgt = moment_annealed(pm, 1, 3, 1, 1)
    assert abs(val - tgt) < 1e-9
    # joint with distinct points, delays, and a nontrivial pairing
    for tauv in [(1, 2), (2, 1)]:
        tau = Permutation(tauv)
        xs, ys, rs = (1, 2), (4, 3), (0, 1)
        val = beta_moment_integral(pm, xs, ys, rs, tau=tau)
        specs = [(xs[a], ys[a], rs[tau.inv(a + 1) - 1]) for a in range(2)]
        tgt = joint_moment_annealed(pm, specs)
        assert abs(val - tgt) < 1e-8 * (1 + abs(tgt))


def test_beta_integral_takes_the_slots_of_every_corner():
    # corner (0, 5) has poles at omega_1..omega_5, corner (2, 3) only at omega_1: circles built
    # from the corner (2, 3) alone would enclose omega_4 and omega_5 and give 0.0020655
    pm = PolymerModel((1.2, 1.3, 1.25), (0.3, 0.2, 0.25, 0.35, 0.3), (-3.0, -3.1, -2.9, -0.05, -0.08))
    val = beta_moment_integral(pm, (0, 2), (5, 3), (0, 0))
    tgt = joint_moment_annealed(pm, [(0, 5, 0), (2, 3, 0)])
    assert abs(val - tgt) <= 1e-10 * tgt


def test_beta_integral_on_random_models():
    # no request is refused; a joint request returns its exact value or raises ConvergenceError
    for pm, x, y in _random_polymer_models():
        for k in (1, 2, 3):
            val = beta_moment_integral(pm, [x] * k, [y] * k, [0] * k)
            exact = moment_annealed(pm, x, y, 0, k)
            assert abs(val - exact) <= 1e-10 * exact, (pm, x, y, k, val, exact)
    for pm, xs, ys, rs, tau in _random_joint_requests():
        try:
            val = beta_moment_integral(pm, xs, ys, rs, tau=tau)
        except ConvergenceError:
            continue
        exact = joint_moment_annealed(pm, [(xs[a], ys[a], rs[tau.inv(a + 1) - 1]) for a in range(len(xs))])
        assert abs(val - exact) <= 1e-10 * exact, (pm, xs, ys, rs, tau, val, exact)


def test_single_contour_matches_nested():
    pm = poly_model()
    x, y = 1, 3
    v1 = single_contour_moment(pm, x, y, 1)
    b1 = beta_moment_integral(pm, [x], [y], [0])
    assert abs(v1 - b1) < 1e-10
    v2 = single_contour_moment(pm, x, y, 2)
    b2 = beta_moment_integral(pm, [x] * 2, [y] * 2, [0] * 2)
    assert abs(v2 - b2) < 1e-8 * abs(b2)
    v3 = single_contour_moment(pm, x, y, 3)
    b3 = beta_moment_integral(pm, [x] * 3, [y] * 3, [0] * 3)
    assert abs(v3 - b3) < 1e-7 * abs(b3)


def _axis_view(arr1d, axis, k):
    shape = [1] * k
    shape[axis] = arr1d.size
    return arr1d.reshape(shape)


def _permutation_sum(v, axis_vals, lam):
    # a partition's term on the explicit l-dimensional grid: the Cauchy determinant expanded
    # over permutations, times every axis factor.  Also returns the sum of the absolute values
    # of its terms, which bounds its rounding: with parts of 1 the terms cancel to 1e-20 of it
    ell = len(lam)
    axes = math.prod(_axis_view(axis_vals[a], a, ell) for a in range(ell))
    total, scale = 0j, 0.0
    for perm in itertools.permutations(range(ell)):
        term = (-1.0) ** Permutation(tuple(p + 1 for p in perm)).length * axes
        for i, j in enumerate(perm):
            term = term / (_axis_view(v + lam[i], i, ell) - _axis_view(v, j, ell))
        total += complex(term.sum())
        scale += float(np.abs(term).sum())
    return total, scale


def test_cauchy_contraction_matches_permutation_sum():
    from qhahn_polymer.moments import GFunction, _cauchy_sum, _partitions

    pm = poly_model()
    contour = small_sigma_circle(pm, 1, 3)
    f = GFunction(pm, 1, 3).f
    for m in (16, 24):
        (v,), (wts,) = contour.nodes(m), contour.weights(m)
        h = [np.ones_like(v)]
        for shift in range(4):
            h.append(h[-1] * f(v + shift))
        for k in (1, 2, 3, 4):
            for lam in _partitions(k):
                axis_vals = [h[p] * wts for p in lam]
                val = _cauchy_sum(v, axis_vals, lam)
                ref, scale = _permutation_sum(v, axis_vals, lam)
                assert abs(val - ref) <= 1e-14 * scale, (m, lam, val, ref)


@pytest.mark.parametrize("k", [-1, 5, True, 2.0, "2"])
def test_single_contour_rejects_bad_k(k):
    with pytest.raises(ValueError, match="k"):
        single_contour_moment(poly_model(), 1, 3, k)


def test_single_contour_k4_converges_on_the_test_models():
    # the second model is the one of tests/test_fredholm.py
    fredholm_model = PolymerModel((1.30, 1.26, 1.33), (0.20, 0.28, 0.24, 0.26, 0.22),
                                  (-1.6, -1.75, -1.68, -1.7, -1.72))
    for pm, x, y in ((poly_model(), 1, 3), (fredholm_model, 2, 5)):
        val, info = single_contour_moment(pm, x, y, 4, with_info=True)
        assert info["converged"]
        assert abs(val - moment_annealed(pm, x, y, 0, 4)) < 1e-12


def _random_polymer_models(seed=2026, n=40):
    # sigma in 1 + [0, 0.6], rho in [0, 0.5], omega in -[0.5, 3], x in {0, 1, 2}, y - x in {1, 2, 3}
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = int(rng.integers(0, 3))
        y = x + int(rng.integers(1, 4))
        yield PolymerModel(1.0 + 0.6 * rng.random(x + 1), 0.5 * rng.random(y), -rng.uniform(0.5, 3.0, y - x)), x, y


def test_single_contour_on_random_models():
    # each request returns the exact moment or refuses the contour.  k = 4 is left out: with
    # the 32-node cap of _NODE_CAPS[4], 12 of the 39 models with a contour stop unconverged
    refused = 0
    for pm, x, y in _random_polymer_models():
        for k in (1, 2, 3):
            try:
                val = single_contour_moment(pm, x, y, k)
            except ContourError:
                refused += 1
                continue
            exact = moment_annealed(pm, x, y, 0, k)
            assert abs(val - exact) <= 1e-12 * exact, (pm, x, y, k, val, exact)
    assert refused == 3


def test_single_contour_rejects_wide_sigma():
    pm = PolymerModel((2.0, 0.9), (0.5,), (-3.0,))
    with pytest.raises(ContourError):
        small_sigma_circle(pm, 1, 1)


def test_probability_range_invariant():
    m = lattice_model()
    req = HeightRequest.make([1.5], [2.5], [1], Permutation.identity(1))
    val = qmoment_integral(m, req)
    assert -1e-8 <= val.real <= 1 + 1e-8


def hecke_tensor(word, gvals, nodes, const, coeff):
    """Apply the operator word to G(w) = prod_a g_a(w_a) on the tensor grid.

    gvals[a][b] holds g_{a+1} evaluated on the nodes of circle b+1; nodes is
    the list of per-circle node arrays (equal length).  Returns the array of
    (T_word G) on the physical grid (axis a <-> circle a): the sum of the terms
    of ``moments._hecke_terms``, each broadcast over the whole grid.
    """
    from qhahn_polymer.moments import _hecke_terms, _letter

    k = len(nodes)
    views = [_axis_view(np.asarray(nodes[b]), b, k) for b in range(k)]
    total = 0
    for letters, asg in _hecke_terms(tuple(word), k):
        term = [_letter(coeff, const, swap, views[b1], views[b2]) for b1, b2, swap in letters]
        term += [_axis_view(np.asarray(gvals[a][b], dtype=complex), b, k) for a, b in enumerate(asg)]
        total = total + math.prod(term[1:], start=term[0])
    return total


def test_hecke_tensor_matches_pointwise():
    # the tensor-grid operator application (the oracle of the pairwise
    # contraction) must agree with the scalar recursive one at every grid point
    from qhahn_polymer.hecke import apply_T

    m = lattice_model()
    cont = build_contours(m, 3)
    M = 6
    nodes = cont.nodes(M)
    q = m.q

    def g_scalar(a):
        def g(w):
            return (1.0 - m.lam_of(a + 1) * w) / (1.0 - m.kappa_of(a + 1) * w)

        return g

    gs = [g_scalar(a) for a in range(3)]
    gvals = [[g(nodes[b]) for b in range(3)] for g in gs]
    for tauv in [(2, 1, 3), (3, 1, 2), (3, 2, 1)]:
        tau = Permutation(tauv)
        word = tau.reduced_word()
        arr = hecke_tensor(word, gvals, nodes, q, lambda wi, wj: (wj - q * wi) / (wj - wi))

        def G(pt):
            return gs[0](pt[0]) * gs[1](pt[1]) * gs[2](pt[2])

        for i in (0, 2, 5):
            for j in (1, 3):
                for k in (0, 4):
                    pt = (nodes[0][i], nodes[1][j], nodes[2][k])
                    ref = apply_T(tau, G, pt, q)
                    assert abs(arr[i, j, k] - ref) < 1e-12 * (1 + abs(ref))


def test_shift_invariant_marginals_via_integrals():
    # relabeled models: the one-point laws coincide, so the corresponding
    # moment integrals agree to quadrature accuracy (not just statistically)
    from qhahn_polymer.model import HeightRequest, QHahnModel

    N = 5
    mu = tuple(2.3 + 0.02 * i for i in range(N + 1))
    kap = (1.30, 1.34, 1.38, 1.42, 1.46)
    lam = (0.20, 0.22, 0.24, 0.26, 0.28)
    model_a = QHahnModel(q=0.55, mu=mu, kappa=kap, lam=lam, colors=(1,) * N)
    kap_b = (kap[3], kap[2], kap[0], kap[1], kap[4])
    lam_b = (lam[2], lam[0], lam[1], lam[3], lam[4])
    model_b = QHahnModel(q=0.55, mu=mu, kappa=kap_b, lam=lam_b, colors=(1,) * N)
    # power moments of one height each: E[q^{a h}] via a repeated points
    for power in (1, 2):
        req_a = HeightRequest.make([1.5] * power, [4.5] * power, [3] * power)
        req_b = HeightRequest.make([1.5] * power, [2.5] * power, [1] * power)
        va = qmoment_integral(model_a, req_a)
        vb = qmoment_integral(model_b, req_b)
        assert abs(va - vb) < 1e-9 * (1 + abs(va))


def test_node_doubling_geometric_convergence():
    # once resolved, each doubling shrinks the change by well over 10x
    m = lattice_model()
    req = HeightRequest.make([1.5], [3.5], [2])
    vals = {}
    for M in (16, 32, 64, 128):
        vals[M] = qmoment_integral(m, req, nodes=M, rtol=1e30)
    d1 = abs(vals[32] - vals[16])
    d2 = abs(vals[64] - vals[32])
    if d1 > 1e-14:
        assert d2 / d1 < 0.1


def test_beta_moment_nonconvergence_honours_node_cap(monkeypatch):
    import qhahn_polymer.moments as mm

    monkeypatch.setitem(mm._NODE_CAPS, 1, 8)
    pm = poly_model()
    with pytest.raises(ConvergenceError, match="did not stabilize at 8 nodes") as err:
        beta_moment_integral(pm, [1], [3], [0], nodes=4, with_info=True)
    assert err.value.value is not None


@pytest.mark.parametrize("nodes", [0, -4, 2.5, True, 2049, 4096, 8192])
def test_node_requests_that_cannot_double_are_rejected(nodes):
    # k = 1 has node cap 4096: a first level must be a positive int that can double within it
    req = HeightRequest.make([0.5], [2.5], [2], Permutation((1,)))
    with pytest.raises(ValueError, match="4096"):
        qmoment_integral(lattice_model(), req, nodes=nodes)
    with pytest.raises(ValueError, match="4096"):
        beta_moment_integral(poly_model(), [1], [3], [0], nodes=nodes)


def test_default_start_reaches_every_cap():
    # a value that changes with every doubling climbs from the default start to the cap
    import qhahn_polymer.fredholm as fr
    import qhahn_polymer.moments as mm

    starts = {4096: 16, 2048: 16, 1024: 16, 768: 24, 32: 16}
    for cap in [*mm._NODE_CAPS.values(), fr._NODE_CAP]:
        levels = []
        with pytest.raises(ConvergenceError, match=f"did not stabilize at {cap} nodes") as err:
            mm._refine(lambda m: levels.append(m) or float(m), None, 1e-10, cap, with_info=True)
        assert err.value.value == float(cap)
        assert len(levels) >= 2 and levels == [starts[cap] * 2**i for i in range(len(levels))]


def test_k3_quadrature_memory_is_bounded():
    # the full 192^3 grid is 113 MB per array; slabs keep the whole call far below one of them
    import tracemalloc

    m = lattice_model()
    req = HeightRequest.make([0.5, 0.5, 0.5], [3.5, 2.5, 1.5], [1, 2, 3], Permutation((3, 1, 2)))
    tracemalloc.start()
    try:
        val, info = qmoment_integral(m, req, nodes=96, with_info=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info == {"nodes": 192, "converged": True}
    assert abs(val - base_case_product(m, req)) < 1e-8 * abs(val)
    assert peak < 64 * 2**20


def test_slab_size_does_not_change_quadrature(monkeypatch):
    import qhahn_polymer.moments as mm

    m = lattice_model()
    cases = [
        ([0.5], [2.5], [2], (1,)),
        ([0.5, 0.5], [3.5, 2.5], [1, 2], (2, 1)),
        ([0.5, 0.5, 0.5], [3.5, 2.5, 1.5], [1, 2, 3], (3, 1, 2)),
    ]
    reqs = [HeightRequest.make(xs, ys, cs, Permutation(tauv)) for xs, ys, cs, tauv in cases]
    default = [qmoment_integral(m, req, with_info=True) for req in reqs]
    monkeypatch.setattr(mm, "_SLAB_CELLS", 1)  # one row of axis 0 per slab
    for req, (val, info) in zip(reqs, default):
        val1, info1 = qmoment_integral(m, req, with_info=True)
        assert info1 == info
        assert abs(val1 - val) <= 1e-14 * abs(val)


def _grid_sum(cont, m, axis_fns, pair_fn, op_factor):
    # the k-fold sum on the explicit grid: hecke_tensor times every pair and axis factor
    k = cont.k
    nodes, weights = cont.nodes(m), cont.weights(m)
    word, g_fns, const, coeff = op_factor
    views = [_axis_view(nodes[b], b, k) for b in range(k)]
    grid = hecke_tensor(word, [[g(nodes[b]) for b in range(k)] for g in g_fns], nodes, const, coeff)
    for a in range(k):
        grid = grid * _axis_view(axis_fns[a](nodes[a]) * weights[a], a, k)
        for b in range(a + 1, k):
            grid = grid * pair_fn(views[a], views[b])
    return complex(grid.sum())


def test_contraction_matches_full_grid():
    import itertools

    from qhahn_polymer.moments import GFunction

    lat = lattice_model()
    q = lat.q

    def lat_g(a):
        return lambda w: (1.0 - lat.lam_of(a % 3 + 1) * w) / (1.0 - lat.kappa_of(a % 3 + 1) * w)

    def lat_axis(a):
        return lambda w: 1.0 / (w * (1.0 - lat.mu_of(a) * w))

    def lattice_case(k):
        return (build_contours(lat, k), [lat_axis(a) for a in range(k)],
                lambda wa, wb: (wb - wa) / (wb - q * wa),
                ([lat_g(a) for a in range(k)], q, lambda wi, wj: (wj - q * wi) / (wj - wi)))

    pm = poly_model()

    def poly_g(a):
        return lambda v: (v - pm.omega(a + 1)) / (v - pm.rho(a + 1))

    poly = (build_shifted_contours(pm, [1] * 3, [3] * 3), [GFunction(pm, 1, 3).f] * 3,
            lambda va, vb: (vb - va) / (vb - va - 1.0),
            ([poly_g(a) for a in range(3)], 1.0, lambda vi, vj: (vj - vi - 1.0) / (vj - vi)))
    cases = [(case, tauv, 10) for case in (lattice_case(3), poly)
             for tauv in itertools.permutations((1, 2, 3))]
    cases.append((lattice_case(4), (4, 3, 2, 1), 6))
    for (cont, axis_fns, pair_fn, (g_fns, const, coeff)), tauv, m in cases:
        op = (Permutation(tauv).reduced_word(), g_fns, const, coeff)
        val = tensor_quadrature(cont, m, axis_fns, pair_fn, op)
        ref = _grid_sum(cont, m, axis_fns, pair_fn, op)
        assert abs(val - ref) <= 1e-13 * abs(ref), (tauv, val, ref)


def test_k3_quadrature_converges_on_the_narrow_margin_request():
    # margin 0.033: the 96 -> 192 change is 2.7e-3 and the 192 -> 384 change 1.5e-6, so acceptance
    # needs the 384 level
    import tracemalloc

    m = QHahnModel(q=0.5, mu=(2, 2.2, 2.4, 2.6), kappa=(1.5, 1.6, 1.7), lam=(0.5, 0.6, 0.7), colors=(1, 1, 1))
    req = HeightRequest.make([0.5] * 3, [3.5, 2.5, 1.5], [1, 2, 3], Permutation((3, 2, 1)))
    tracemalloc.start()
    try:
        val, info = qmoment_integral(m, req, with_info=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info == {"nodes": 384, "converged": True}
    tgt = base_case_product(m, req)
    assert abs(val - tgt) <= 1e-9 * abs(tgt)
    assert peak < 96 * 2**20


def test_k3_quadrature_converges_on_the_small_base_case_request():
    n = 4
    m = QHahnModel(q=0.5, mu=tuple(2.4 + 0.01 * i for i in range(n + 1)),
                   kappa=tuple(2.0 + 0.02 * j for j in range(n)),
                   lam=tuple(0.2 + 0.01 * d for d in range(n)), colors=(1,) * n)
    req = HeightRequest.make([0.5] * 3, [3.5, 2.5, 1.5], [1, 2, 3], Permutation((3, 2, 1)))
    val, info = qmoment_integral(m, req, with_info=True)
    assert info == {"nodes": 384, "converged": True}
    tgt = base_case_product(m, req)
    assert abs(val - tgt) <= 1e-9 * abs(tgt)


def test_quadrature_info_has_plain_types():
    # the CLI writes these records with json.dumps, which rejects numpy scalars
    import json

    m, pm = lattice_model(), poly_model()
    for k in (1, 2, 3):
        req = HeightRequest.make([0.5] * k, [3.5, 2.5, 1.5][:k], [1, 2, 3][:k], Permutation(tuple(range(k, 0, -1))))
        for val, info in (qmoment_integral(m, req, with_info=True),
                          beta_moment_integral(pm, [1] * k, [3] * k, [0] * k, with_info=True)):
            assert type(val) is complex
            assert type(info["converged"]) is bool and type(info["nodes"]) is int
            json.dumps(info)
