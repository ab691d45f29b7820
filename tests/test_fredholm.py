import math
import warnings

import numpy as np
import pytest

from qhahn_polymer.asymptotics import FreqModel, scheduled_polymer_model, theta_constants
from qhahn_polymer.fredholm import (
    GFunction,
    fredholm_det,
    ks_distance_to_F2,
    laplace_series_det,
    mb_determinant,
    mb_kernel_matrix,
    tracy_widom_cdf_table,
    tracy_widom_F2,
)
from qhahn_polymer.moments import ConvergenceError, small_sigma_circle
from qhahn_polymer.polymer import PolymerModel, moment_annealed, sample_partition_values
from qhahn_polymer.specfun import log_gamma


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


def _ungrouped(gf, z):
    """log g and f with one log_gamma call and one factor per scheduled slot."""
    pm = gf.pmodel
    lg, f = np.zeros_like(z), np.ones_like(z)
    for i in range(0, gf.x + 1):
        lg += log_gamma(z - pm.sigma(i))
    for j in range(1, gf.y + 1):
        lg -= log_gamma(z - pm.rho(j))
    for d in range(1, gf.y - gf.x + 1):
        lg += log_gamma(z - pm.omega(d))
    for j in range(1, gf.y + 1):
        f = f * (z - pm.rho(j))
    for i in range(0, gf.x + 1):
        f = f / (z - pm.sigma(i))
    for d in range(1, gf.y - gf.x + 1):
        f = f / (z - pm.omega(d))
    return lg, f


def test_gfunction_groups_equal_parameters():
    fm = FreqModel.homogeneous(sigma=0.0, rho=-1.0, omega=-2.0)
    pm, x, y = scheduled_polymer_model(fm, theta_constants(fm, 0.3), 64)
    gf = GFunction(pm, x, y)
    z = 0.5 + 0.4 * np.exp(2j * np.pi * np.arange(16) / 16)
    lg, f = _ungrouped(gf, z)
    assert np.abs(gf.log_g(z) - lg).max() < 1e-13 * np.abs(lg).max()
    # f multiplies some 1,500 factors: each route is about 1e-13 (relative) from exact
    assert (np.abs(gf.f(z) - f) < 1e-12 * np.abs(f)).all()
    # all-distinct parameters: every count is 1, so the arithmetic is the ungrouped one
    gf = GFunction(poly_model(), X, Y)
    lg, f = _ungrouped(gf, z + 1.3)
    assert np.array_equal(gf.log_g(z + 1.3), lg) and np.array_equal(gf.f(z + 1.3), f)


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


def test_series_det_info_reports_nodes_and_terms():
    pm = poly_model()
    det, info = laplace_series_det(pm, X, Y, -2.0, with_info=True)
    assert det == laplace_series_det(pm, X, Y, -2.0)
    assert set(info) == {"nodes", "converged", "terms"}
    assert info["converged"] is True and info["nodes"] >= 128 and 0 < info["terms"] < 2000
    assert laplace_series_det(pm, X, Y, 0.0, with_info=True)[1]["terms"] == 0


def test_series_det_rejects_u_beyond_the_term_cap():
    # the shift sum needs about e|u| = 2718 terms, past its 2000-term cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Mellin-Barnes"):
            laplace_series_det(poly_model(), X, Y, -1000.0)


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


def _circle_nodes(cont, m):
    return cont.center + cont.radii[0] * np.exp(1j * 2 * np.pi * np.arange(m) / m)


@pytest.mark.parametrize("u", [-2.0, -2.0 + 1.5j])
def test_series_kernel_matches_log_gamma_sum(u):
    # the telescoped column against g(v)/g(v + n) u^n from log_gamma, term by term
    from qhahn_polymer.fredholm import _series_kernel_matrix

    pm = poly_model()
    gf = GFunction(pm, X, Y)
    v = _circle_nodes(small_sigma_circle(pm, X, Y), 16)
    K, n_used = _series_kernel_matrix(gf, u, v)
    ref = np.zeros_like(K)
    for n in range(1, n_used + 1):
        col = np.exp(gf.log_g(v) - gf.log_g(v + n) + n * np.log(complex(u)))
        ref += col[:, None] / (v[:, None] + n - v[None, :])
    assert np.abs(K - ref).max() < 1e-12 * np.abs(ref).max()


def test_series_det_precise_at_u_minus_20():
    # terms near e^20 cancel: the telescoped kernel keeps 128 nodes and 1e-11 agreement
    pm = poly_model()
    det, info = laplace_series_det(pm, X, Y, -20.0, with_info=True)
    assert info["nodes"] == 128 and info["converged"] is True
    assert abs(det - mb_determinant(pm, X, Y, -20.0)) < 1e-11


def _mb_matrix_per_entry(kern, v_row, v_col):
    """The Mellin-Barnes kernel with one sin and one exp per (v, z) entry."""
    lu = np.log(-complex(kern.u))
    lg_v = kern.gf.log_g(v_row)
    lg_z = kern.gf.log_g(kern.z_nodes)
    zz = kern.z_nodes[None, :]
    vv = v_row[:, None]
    core = (-np.pi / np.sin(np.pi * (zz - vv))) * np.exp((zz - vv) * lu + lg_v[:, None] - lg_z[None, :])
    return (core * kern.z_weights[None, :]) @ (1.0 / (kern.z_nodes[:, None] - v_col[None, :]))


def _scheduled_t64():
    fm = FreqModel.homogeneous(sigma=0.0, rho=-1.0, omega=-2.0)
    const = theta_constants(fm, 0.3)
    pm, x, y = scheduled_polymer_model(fm, const, 64)
    # u = -exp(I t - c t^{1/3} r): E[exp(uZ)] is the Gumbel-smoothed law of the rescaled ln Z at r
    return pm, x, y, lambda r: -math.exp(const.rate * 64 - const.c * 64 ** (1.0 / 3.0) * r)


def test_mb_factored_kernel_matches_per_entry_formula():
    pm = poly_model()
    cases = [(pm, X, Y, u) for u in (-0.5, -5.0, -2.0 + 1.5j)]
    pm64, x64, y64, u_of = _scheduled_t64()
    # here the unscaled line factor spans e^-94 to e^-1181 and the circle factor reaches e^101
    cases += [(pm64, x64, y64, u_of(r)) for r in (-2.0, 0.0)]
    for pmodel, x, y, u in cases:
        kern, cont = mb_kernel_matrix(pmodel, x, y, u)
        v = _circle_nodes(cont, 32)
        ref = _mb_matrix_per_entry(kern, v, v)
        assert np.abs(kern.matrix(v, v) - ref).max() < 1e-13 * np.abs(ref).max()


def test_mb_determinant_pinned_at_tracy_widom_scale():
    pm, x, y, u_of = _scheduled_t64()
    for r, value in ((-2.0, 0.404989686198095), (0.0, 0.963406554147449)):
        assert abs(mb_determinant(pm, x, y, u_of(r)) - value) < 1e-12


def test_mb_info_reports_line_panels_and_tail():
    pm = poly_model()
    det, info = mb_determinant(pm, X, Y, -2.0, with_info=True)
    assert info["panels"] * 16 == info["nodes_L"] and info["tail"] < 1e-12
    # a caller-fixed short line converges on the circle but is truncated: the tail shows it
    short, info = mb_determinant(pm, X, Y, -2.0, T=0.5, with_info=True)
    assert info["converged"] is True and abs(short - det) > 0.02
    assert (info["panels"], info["nodes_L"]) == (2, 32) and info["tail"] > 1.0


@pytest.mark.parametrize("det_fn", [laplace_series_det, mb_determinant])
def test_determinant_outside_laplace_range_is_not_converged(det_fn, monkeypatch):
    import qhahn_polymer.fredholm as fr

    pm = poly_model()
    for u, val in ((-2.0, 2.0), (-2.0, 0.5 + 1e-6j), (-2.0, 0.1)):
        monkeypatch.setattr(fr, "fredholm_det", lambda *a, **k: (val, {"nodes": 64, "converged": True}))
        with pytest.raises(ConvergenceError, match="Laplace transform") as err:
            det_fn(pm, X, Y, u)
        assert err.value.value == val
        out, info = det_fn(pm, X, Y, u, strict=False, with_info=True)
        assert out == val and info["converged"] is False
    # in range, with the slack at the edges: accepted as it is
    for u, val in ((-2.0, 1.0 + 5e-9), (-2.0, math.exp(-2.0) - 5e-9 + 5e-9j), (-2.0 + 1.0j, 2.0)):
        monkeypatch.setattr(fr, "fredholm_det", lambda *a, **k: (val, {"nodes": 64, "converged": True}))
        assert det_fn(pm, X, Y, u, with_info=True)[1]["converged"] is True


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


def test_tracy_widom_pinned_values():
    # the LU inside slogdet moves these by up to 4e-14 with the BLAS build and thread count
    for r, value in ((-2.0, 0.4132241425050997), (0.0, 0.9693728283552604), (2.0, 0.9998875536983092)):
        assert abs(tracy_widom_F2(r) - value) < 1e-13


def test_tracy_widom_table_equals_single_points():
    # the table evaluates its grid in chunks; each value must be the one-point value
    grid, vals = tracy_widom_cdf_table()
    assert grid.size == 291
    for r, v in zip(grid, vals):
        assert v == min(max(tracy_widom_F2(float(r)), 0.0), 1.0)


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
    monkeypatch.setattr(fr, "_airy_kernel_matrix", lambda xs, ai, aip: np.full((xs.size, xs.size), 1e-4 * xs.size))
    with pytest.raises(ConvergenceError) as err:
        tracy_widom_F2(0.0)
    assert abs(err.value.value - (1.0 - 1e-4 * 768 * 10.0)) < 1e-9


def test_fredholm_det_rejects_non_finite_values():
    # exp(60 v) overflows on the circle: the determinant is inf, never converged
    cont = small_sigma_circle(poly_model(), 1, 3)
    kernel = lambda vr, vc: np.outer(np.exp(60 * vr), np.ones_like(vc))
    with np.errstate(all="ignore"):
        with pytest.raises(ConvergenceError, match="not finite") as err:
            fredholm_det(kernel, cont)
        val, info = fredholm_det(kernel, cont, strict=False, with_info=True)
    assert not np.isfinite(err.value.value)
    assert not np.isfinite(val) and info["converged"] is False


def test_tracy_widom_F2_rejects_bad_r_and_reports_nodes():
    for r in (math.nan, -9.5, -math.inf):
        with pytest.raises(ValueError, match="r"):
            tracy_widom_F2(r)
    assert tracy_widom_F2(math.inf) == 1.0
    val, info = tracy_widom_F2(0.0, with_info=True)
    assert val == tracy_widom_F2(0.0)
    assert info == {"nodes": 192, "converged": True}


def test_single_contour_and_series_values_pinned():
    # the routes' own contours and tolerances fix these values; 1e-13 rather than equality
    # because LAPACK determinants move at 1e-14 with the BLAS thread count
    from qhahn_polymer.moments import single_contour_moment

    pm = poly_model()
    for k, value in ((2, 0.08342870853558855), (3, 0.03517228552099851)):
        val, info = single_contour_moment(pm, X, Y, k, with_info=True)
        assert abs(val - value) < 1e-13 and info == {"nodes": 96, "converged": True}
    for u, value in ((-2.0, 0.6420513402395562), (-5.0, 0.3771403169588781)):
        val, info = laplace_series_det(pm, X, Y, u, with_info=True)
        assert abs(val - value) < 1e-13 and info["nodes"] == 128 and info["converged"]


def test_ks_distance_rejects_non_finite_samples():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ks_distance_to_F2([0.1, bad, -1.0])


def test_gauss_legendre_rule_is_cached_and_read_only():
    from qhahn_polymer.fredholm import _gauss_legendre

    xg, wg = _gauss_legendre(96)
    assert _gauss_legendre(96)[0] is xg
    assert np.array_equal(xg, np.polynomial.legendre.leggauss(96)[0])
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0
