import math

import numpy as np
import pytest

from qhahn_polymer.fredholm import (
    GFunction,
    fredholm_det,
    ks_distance_to_F2,
    laplace_series_det,
    mb_determinant,
    mb_kernel_matrix,
    tracy_widom_F2,
)
from qhahn_polymer.moments import ConvergenceError, small_sigma_circle
from qhahn_polymer.polymer import PolymerModel, moment_annealed, sample_partition_values


def poly_model():
    # inhomogeneous small model; sigma spread < 1 for the small circle
    return PolymerModel(
        sigma_list=(1.30, 1.26, 1.33),
        rho_list=(0.20, 0.28, 0.24, 0.26, 0.22),
        omega_list=(-1.6, -1.75, -1.68, -1.7, -1.72),
    )


X, Y = 2, 5


def test_g_ratio_telescopes_f():
    pm = poly_model()
    gf = GFunction(pm, X, Y)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(1.6, 3.0), rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 5))
        lhs = np.exp(gf.log_g(z) - gf.log_g(z + n))
        rhs = np.prod([gf.f(z + m) for m in range(n)])
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_fredholm_det_zero_and_rank_one():
    pm = poly_model()
    cont = small_sigma_circle(pm, X, Y)
    zero = lambda vr, vc: np.zeros((vr.size, vc.size), dtype=complex)
    assert abs(fredholm_det(zero, cont) - 1.0) < 1e-14

    # rank-one kernel phi(v) psi(v'): det = 1 + (1/2 pi i) oint phi psi dv
    s0 = pm.sigma(0)

    def phi(v):
        return 1.0 / (v - s0)

    def psi(v):
        return v * v + 0.5

    kernel = lambda vr, vc: phi(vr)[:, None] * psi(vc)[None, :]
    val = fredholm_det(kernel, cont)
    expected = 1.0 + (s0 * s0 + 0.5)  # residue of phi*psi at sigma_0
    assert abs(val - expected) < 1e-10


def test_series_det_u_zero_limit():
    pm = poly_model()
    assert abs(laplace_series_det(pm, X, Y, 0.0) - 1.0) < 1e-14


def test_series_det_matches_moment_series():
    pm = poly_model()
    u = 0.3
    det = laplace_series_det(pm, X, Y, u)
    series = 1.0
    for k in range(1, 8):
        series += u**k * moment_annealed(pm, X, Y, 0, k) / math.factorial(k)
    assert abs(det - series) < 1e-6


def test_mb_matches_series_kernel_pointwise():
    pm = poly_model()
    u = -2.0
    kern, cont = mb_kernel_matrix(pm, X, Y, u)
    center, radius = cont.center, cont.radii[0]
    v = center + radius * np.exp(1j * 2 * np.pi * np.arange(12) / 12)
    mb = kern.matrix(v, v)
    from qhahn_polymer.fredholm import _series_kernel_matrix

    direct, n_used = _series_kernel_matrix(kern.gf, u, v)
    assert n_used < 600
    assert np.max(np.abs(mb - direct)) < 1e-8
    # integrand magnitude at the truncation endpoints is recorded and small
    assert kern.tail_estimate < 1e-12


def test_mb_tiny_u_kernel_small():
    # |K_u| is controlled by |u|^{Re(z - v)} with Re(z - v) >= line separation
    pm = poly_model()
    kern, cont = mb_kernel_matrix(pm, X, Y, -1e-6)
    center, radius = cont.center, cont.radii[0]
    sep = kern.h - (center + radius)
    v = center + radius * np.exp(1j * 2 * np.pi * np.arange(8) / 8)
    mx = np.max(np.abs(kern.matrix(v, v)))
    assert mx < 30.0 * 1e-6**sep
    kern3, _ = mb_kernel_matrix(pm, X, Y, -1e-3)
    assert mx < np.max(np.abs(kern3.matrix(v, v)))


@pytest.mark.parametrize("u", [-0.5, -2.0, -5.0])
def test_two_determinants_agree_and_are_real(u):
    pm = poly_model()
    d1 = laplace_series_det(pm, X, Y, u)
    d2 = mb_determinant(pm, X, Y, u)
    assert abs(d1 - d2) < 1e-6
    assert abs(d1.imag) < 1e-8
    assert abs(d2.imag) < 1e-8


def test_mb_T_doubling_stable():
    pm = poly_model()
    u = -2.0
    kern, _ = mb_kernel_matrix(pm, X, Y, u)
    d1 = mb_determinant(pm, X, Y, u, T=kern.T)
    d2 = mb_determinant(pm, X, Y, u, T=2 * kern.T)
    assert abs(d1 - d2) < 1e-8


def test_determinant_matches_mc():
    pm = poly_model()
    vals = sample_partition_values(pm, 0, X, Y, 200_000, seed=5)
    for u in (-0.5, -2.0):
        det = laplace_series_det(pm, X, Y, u)
        emp = np.exp(u * vals)
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(det.real - emp.mean()) < 4 * se + 1e-4


def test_mb_rejects_bad_sector():
    pm = poly_model()
    with pytest.raises(ValueError):
        mb_kernel_matrix(pm, X, Y, 1.0)


def test_tracy_widom_values_and_shape():
    # known digits: F2(0) ~ 0.9693728283, F2(-2) ~ 0.4132241425
    assert abs(tracy_widom_F2(0.0) - 0.96937282835526) < 1e-8
    assert abs(tracy_widom_F2(-2.0) - 0.41322414250512257) < 1e-7
    assert abs(tracy_widom_F2(10.0) - 1.0) < 1e-10
    grid = np.arange(-6.0, 4.01, 0.25)
    vals = np.array([tracy_widom_F2(float(r)) for r in grid])
    assert (np.diff(vals) >= -1e-12).all()


def test_tracy_widom_refinement_and_second_grid():
    for r in (-2.0, 0.0, 2.0):
        a = tracy_widom_F2(r, nodes=96)
        b = tracy_widom_F2(r, nodes=192)
        assert abs(a - b) < 1e-8
        # independent coarse evaluation on a longer interval
        c = tracy_widom_F2(r, nodes=64, upper=max(r + 6.0, 12.0))
        assert abs(a - c) < 1e-8


def test_ks_distance_sanity():
    rng = np.random.default_rng(8)
    grid, vals = np.arange(-10, 6, 0.05), None
    # samples drawn from F2 itself via inverse transform on the cached table
    from qhahn_polymer.fredholm import tracy_widom_cdf_table

    g, v = tracy_widom_cdf_table()
    u = rng.random(4000)
    samples = np.interp(u, v, g)
    ks = ks_distance_to_F2(samples)
    assert ks < 0.035
    # a shifted sample must have a visibly larger distance
    assert ks_distance_to_F2(samples + 0.5) > 0.1


def test_fredholm_det_nonconvergence():
    # rank one with det = 1 + 1e-3 * m on m nodes: never stabilizes under doubling
    pm = poly_model()
    cont = small_sigma_circle(pm, X, Y)
    s0 = pm.sigma(0)
    kernel = lambda vr, vc: np.outer(1e-3 * vr.size / (vr - s0), np.ones_like(vc))
    with pytest.raises(ConvergenceError) as err:
        fredholm_det(kernel, cont)
    assert abs(err.value.value - (1.0 + 1e-3 * 1024)) < 1e-9
    val, info = fredholm_det(kernel, cont, strict=False, with_info=True)
    assert info == {"nodes": 1024, "converged": False}
    assert val == err.value.value


def test_tracy_widom_F2_nonconvergence_raises(monkeypatch):
    import qhahn_polymer.fredholm as fr

    # det(I - K) = 1 - 1e-4 * m * (upper - r) changes with every doubling
    monkeypatch.setattr(fr, "_airy_kernel_matrix", lambda xs: np.full((xs.size, xs.size), 1e-4 * xs.size))
    with pytest.raises(ConvergenceError) as err:
        tracy_widom_F2(0.0)
    assert abs(err.value.value - (1.0 - 1e-4 * 768 * 10.0)) < 1e-9
