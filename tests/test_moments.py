import pytest

from qhahn_polymer.model import HeightRequest, QHahnModel, base_case_product, enumerate_exact
from qhahn_polymer.moments import (
    ContourError,
    ConvergenceError,
    beta_moment_integral,
    build_contours,
    qmoment_integral,
    single_contour_moment,
    small_sigma_circle,
    tensor_quadrature,
)
from qhahn_polymer.polymer import PolymerModel, joint_moment_annealed, moment_annealed
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


def test_contours_nest_and_validate():
    m = lattice_model()
    cont = build_contours(m, 3)
    assert cont.radii[0] < cont.radii[1] < cont.radii[2]
    q = m.q
    for a in range(2):
        assert cont.center * (1 - q) + q * cont.radii[a] < cont.radii[a + 1]
    # small q keeps the k=1 construction feasible
    m_small_q = QHahnModel(q=0.05, mu=m.mu, kappa=m.kappa, lam=m.lam, colors=m.colors)
    assert build_contours(m_small_q, 1).k == 1


def test_contour_infeasibility_reported():
    # a lambda^-1 sitting inside the needed outer radius must be named
    m = QHahnModel(q=0.5, mu=(2.0, 2.1, 2.05), kappa=(1.9, 1.95), lam=(1.2, 1.25), colors=(1, 1))
    with pytest.raises(ContourError) as err:
        build_contours(m, 2)
    assert "lam" in str(err.value) or "excluded" in str(err.value)


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


def test_single_contour_rejects_wide_sigma():
    pm = PolymerModel((2.0, 0.9), (0.5,), (-3.0,))
    with pytest.raises(ContourError):
        small_sigma_circle(pm, 1, 1)


def test_probability_range_invariant():
    m = lattice_model()
    req = HeightRequest.make([1.5], [2.5], [1], Permutation.identity(1))
    val = qmoment_integral(m, req)
    assert -1e-8 <= val.real <= 1 + 1e-8


def test_hecke_tensor_matches_pointwise():
    # the vectorized tensor-grid operator application must agree with the
    # scalar recursive one at every grid point
    from qhahn_polymer.hecke import apply_T
    from qhahn_polymer.moments import hecke_tensor

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
        vals[M] = qmoment_integral(m, req, nodes=M, rtol=1e30, strict=False)
    d1 = abs(vals[32] - vals[16])
    d2 = abs(vals[64] - vals[32])
    if d1 > 1e-14:
        assert d2 / d1 < 0.1


def test_beta_moment_nonconvergence_honours_node_cap(monkeypatch):
    import qhahn_polymer.moments as mm

    monkeypatch.setitem(mm._NODE_CAPS, 1, 8)
    pm = poly_model()
    with pytest.raises(ConvergenceError) as err:
        beta_moment_integral(pm, [1], [3], [0], nodes=4)
    assert err.value.value is not None
    val, info = beta_moment_integral(pm, [1], [3], [0], nodes=4, strict=False, with_info=True)
    assert info == {"nodes": 8, "converged": False}
    assert val == err.value.value
