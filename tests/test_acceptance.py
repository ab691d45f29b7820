"""End-to-end acceptance suite: one test per shipped guarantee.

Every test prints a single PASS/FAIL line (visible with -s or on failure) and
pins its tolerance explicitly.  Heavy statistical tests use fixed seeds; the
suite is deterministic.
"""

import time
from fractions import Fraction

import numpy as np

from qhahn_polymer.asymptotics import (
    FreqModel,
    HFunction,
    check_steep_descent,
    theta_constants,
    tw_experiment,
)
from qhahn_polymer.fredholm import (
    laplace_series_det,
    mb_determinant,
    tracy_widom_F2,
)
from qhahn_polymer.hecke import hecke_suite, local_rational_residual
from qhahn_polymer.model import (
    HeightRequest,
    QHahnModel,
    base_case_product,
    enumerate_exact,
    estimate_qmoment,
    sample_grids,
    verify_shift_invariance,
)
from qhahn_polymer.moments import beta_moment_integral, qmoment_integral, single_contour_moment
from qhahn_polymer.polymer import (
    PolymerModel,
    partition_bruteforce,
    partition_dp,
    qhahn_bridge_model,
    rwre_hitting,
    sample_environment,
    sample_partition_values,
    mc_statistics,
)
from qhahn_polymer.qtools import Permutation, spawn_rng
from qhahn_polymer.weights import (
    YBE_KINDS,
    fused_outgoing,
    local_relation_residual,
    qhahn_outgoing,
    random_ybe_instance,
    sixv_outgoing,
    ybe_residual,
)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_yang_baxter_exactness():
    t0 = time.time()
    worst = {}
    for idx, kind in enumerate(YBE_KINDS):
        rng = spawn_rng(101 + idx)
        nonzero = 0
        for _ in range(100):
            boundary, params = random_ybe_instance(kind, rng, colors=2, max_entry=2)
            if ybe_residual(kind, boundary, params) != 0:
                nonzero += 1
        worst[kind] = nonzero
    elapsed = time.time() - t0
    ok = all(v == 0 for v in worst.values()) and elapsed < 120
    report("1 Yang-Baxter exact zero (4 kinds x 100 rational draws)", ok,
           f"nonzero={worst}, {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_stochasticity():
    rng = spawn_rng(202)
    failures = 0
    for _ in range(100):
        n = 2
        q = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        tt = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        ss = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        A = tuple(int(v) for v in rng.integers(0, 3, size=n))
        B = tuple(int(v) for v in rng.integers(0, 3, size=n))
        if sum(qhahn_outgoing(A, B, q, tt, ss).values()) != 1:
            failures += 1
        j = int(rng.integers(0, n + 1))
        z = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        s = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        if sum(sixv_outgoing(A, j, q, z, s).values()) != 1:
            failures += 1
        big_n, big_m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        zf = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        while any(zf == q**p for p in range(-4, 5)):
            zf = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        Af = tuple(int(v) for v in rng.integers(0, 2, size=n))
        Bf = tuple(int(v) for v in rng.integers(0, 2, size=n))
        if sum(Af) <= big_m and sum(Bf) <= big_n:
            if sum(fused_outgoing(Af, Bf, q, zf, big_n, big_m).values()) != 1:
                failures += 1
    report("2 stochasticity exact (W, w, fused; 100 draws each)", failures == 0,
           f"failures={failures}")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_local_relations():
    rng = spawn_rng(303)
    bad_alg = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = tuple(int(v) for v in rng.integers(0, 3, size=n))
        B = tuple(int(v) for v in rng.integers(0, 3, size=n))
        R = tuple(int(v) for v in rng.integers(0, 2, size=n))
        while sum(R) > 4:
            R = tuple(int(v) for v in rng.integers(0, 2, size=n))
        q = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        tt = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        ss = Fraction(int(rng.integers(1, 8)), int(rng.integers(9, 17)))
        if local_relation_residual(A, B, R, q, tt, ss) != 0:
            bad_alg += 1
    worst_rat = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 5))
        w = tuple(complex(x, y) for x, y in rng.normal(size=(r, 2)))
        worst_rat = max(worst_rat, abs(local_rational_residual(r, 0.55, 0.35, 0.4, w, 0.62)))
    ok = bad_alg == 0 and worst_rat < 1e-12
    report("3 local relations (composition exact; rational < 1e-12)", ok,
           f"alg_failures={bad_alg}, worst_rational={worst_rat:.2e}")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_hecke_suite():
    rng = spawn_rng(404)
    errs = hecke_suite(4, 0.44, rng, npoints=50)
    worst = max(errs.values())
    report("4 Hecke suite (quadratic, braid, words, composition, symmetric)",
           worst < 1e-10, f"worst={worst:.2e}")


# -- helpers for 5/6 --------------------------------------------------------


def _lattice_model(q=0.85, n=3):
    return QHahnModel(
        q=q,
        mu=tuple([2.4 + 0.01 * i for i in range(n + 1)]),
        kappa=tuple([2.0 + 0.02 * j for j in range(n)]),
        lam=tuple([0.2 + 0.01 * d for d in range(n)]),
        colors=(1,) * n,
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_base_case():
    t0 = time.time()
    m = _lattice_model()
    rng = spawn_rng(505)
    worst = 0.0
    cases = 0
    for k in (1, 2, 3):
        for _ in range(3 if k < 3 else 2):
            cs = sorted(int(rng.integers(1, 4)) for _ in range(k))
            ys = sorted((int(rng.integers(0, 4)) + 0.5 for _ in range(k)), reverse=True)
            tau_vals = list(rng.permutation(k) + 1)
            req = HeightRequest.make([0.5] * k, ys, cs, Permutation(tau_vals))
            val = qmoment_integral(m, req, rtol=3e-9 if k == 3 else None)
            tgt = base_case_product(m, req)
            worst = max(worst, abs(val - tgt) / abs(tgt))
            cases += 1
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 60
    report("5 base case: integral vs closed product (k<=3, random tau)", ok,
           f"{cases} cases, worst rel err={worst:.2e}, {elapsed:.1f}s")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_theorem_end_to_end():
    t0 = time.time()
    m = QHahnModel(q=0.6, mu=(2.4, 2.5, 2.6), kappa=(1.25, 1.3), lam=(0.16, 0.18), colors=(1, 1))
    worst_int = 0.0
    worst_z = 0.0
    for k, tau_vals, xs, ys, cs in [
        (1, (1,), [1.5], [2.5], [1]),
        (2, (1, 2), [0.5, 1.5], [2.5, 1.5], [1, 2]),
        (2, (2, 1), [0.5, 1.5], [2.5, 1.5], [1, 2]),
    ]:
        req = HeightRequest.make(xs, ys, cs, Permutation(tau_vals))
        exact, tail = enumerate_exact(m, req, tol=1e-11)
        assert tail <= 1e-10
        val = qmoment_integral(m, req)
        worst_int = max(worst_int, abs(val - exact) / abs(exact))
        mean, se = estimate_qmoment(m, req, 100_000, spawn_rng(606))
        worst_z = max(worst_z, abs(mean - exact) / max(se, 1e-12))
    elapsed = time.time() - t0
    ok = worst_int < 1e-6 and worst_z < 4.0 and elapsed < 300
    report("6 grid end-to-end: integral vs enumeration vs Monte Carlo", ok,
           f"int rel={worst_int:.2e}, worst z={worst_z:.2f}, {elapsed:.0f}s")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_polymer_oracles():
    sig = tuple(1.0 + 0.04 * (i % 3) for i in range(7))
    rho = tuple(0.1 + 0.05 * (j % 2) for j in range(6))
    ome = tuple(-1.0 - 0.07 * (d % 3) for d in range(6))
    pm = PolymerModel(sig, rho, ome)
    worst = 0.0
    for seed in range(20):
        env = sample_environment(pm, 6, 6, spawn_rng(707 + seed))
        for r, x, y in [(0, 3, 6), (0, 2, 5), (1, 2, 6)]:
            z_dp = partition_dp(env, r, x, y).value(x, y)
            z_bf = partition_bruteforce(env, r, x, y)
            z_rw = rwre_hitting(env, r, x, y)
            worst = max(worst, abs(z_dp - z_bf), abs(z_dp - z_rw))
    report("7 polymer oracles: DP = path sum = walk hitting probability",
           worst < 1e-13, f"worst abs diff={worst:.2e} over 20 environments")


# -- 8 ----------------------------------------------------------------------


def _poly_model_accept():
    return PolymerModel(
        sigma_list=(1.3, 1.25, 1.28, 1.27),
        rho_list=(0.2, 0.3, 0.25, 0.27),
        omega_list=(-4.2, -4.3, -4.1, -4.25),
    )


def test_criterion_08_polymer_moments():
    pm = _poly_model_accept()
    k1 = beta_moment_integral(pm, [0], [1], [0])
    k1_target = (pm.sigma(0) - pm.rho(1)) / (pm.sigma(0) - pm.omega(1))
    err_k1 = abs(k1 - k1_target)

    x, y = 1, 3
    stats = mc_statistics(pm, 0, x, y, 1_000_000, seed=808, mode="moments", max_power=3)
    worst_z = 0.0
    for k in (2, 3):
        val = beta_moment_integral(pm, [x] * k, [y] * k, [0] * k).real
        mean, se = stats.moments[k]
        worst_z = max(worst_z, abs(val - mean) / se)

    worst_pair = 0.0
    for k in (2, 3):
        nested = beta_moment_integral(pm, [x] * k, [y] * k, [0] * k)
        single = single_contour_moment(pm, x, y, k)
        worst_pair = max(worst_pair, abs(nested - single) / abs(nested))

    ok = err_k1 < 1e-10 and worst_z < 3.0 and worst_pair < 1e-7
    report("8 polymer moments: closed form, MC, nested vs single contour", ok,
           f"k1 err={err_k1:.1e}, worst z={worst_z:.2f}, nested-vs-single={worst_pair:.1e}")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_q_to_one_bridge():
    pm = PolymerModel(
        sigma_list=(1.1, 1.3, 0.9, 1.2),
        rho_list=(0.1, 0.3, 0.2),
        omega_list=(-0.9, -1.1, -0.7),
    )
    x, y, r = 1, 3, 1
    eps = 0.01
    qm = qhahn_bridge_model(pm, eps, y)
    n = 10_000
    heights = sample_grids(qm, n, spawn_rng(909)).heights()[:, r, x, y]  # h_{>= r+1}(x + 1/2, y + 1/2)
    q_side = np.exp(-eps * heights)
    z_side = sample_partition_values(pm, r, x, y, n, seed=919)
    xs = np.sort(np.concatenate([q_side, z_side]))
    cdf_q = np.searchsorted(np.sort(q_side), xs, side="right") / n
    cdf_z = np.searchsorted(np.sort(z_side), xs, side="right") / n
    ks = float(np.max(np.abs(cdf_q - cdf_z)))
    report("9 q->1 bridge: exp(-eps h) vs polymer partition function (two-sample KS)",
           ks <= 0.05, f"KS={ks:.4f} at eps={eps}, n={n}")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_laplace_transform():
    pm = PolymerModel(
        sigma_list=(1.30, 1.26, 1.33),
        rho_list=(0.20, 0.28, 0.24, 0.26, 0.22),
        omega_list=(-1.6, -1.75, -1.68, -1.7, -1.72),
    )
    x, y = 2, 5
    vals = sample_partition_values(pm, 0, x, y, 1_000_000, seed=1010)
    worst_pair = 0.0
    worst_mc = 0.0
    for u in (-0.5, -2.0, -5.0):
        d_series = laplace_series_det(pm, x, y, u)
        d_mb = mb_determinant(pm, x, y, u)
        worst_pair = max(worst_pair, abs(d_series - d_mb))
        emp = float(np.exp(u * vals).mean())
        worst_mc = max(worst_mc, abs(d_mb.real - emp) / abs(emp))
    ok = worst_pair < 1e-6 and worst_mc < 1e-2
    report("10 Laplace transform: series det = MB det = Monte Carlo", ok,
           f"det diff={worst_pair:.1e}, MC rel={worst_mc:.1e}")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_tracy_widom_self_consistency():
    worst_ref = 0.0
    for r in (-2.0, 0.0, 2.0):
        a = tracy_widom_F2(r, nodes=96)
        b = tracy_widom_F2(r, nodes=192)
        worst_ref = max(worst_ref, abs(a - b))
    grid = np.arange(-6.0, 4.001, 0.2)
    vals = np.array([tracy_widom_F2(float(r)) for r in grid])
    monotone = bool((np.diff(vals) >= -1e-12).all())
    limit_err = abs(tracy_widom_F2(10.0) - 1.0)
    ok = worst_ref < 1e-8 and monotone and limit_err < 1e-10
    report("11 F2 self-consistency: refinement, monotone, upper tail", ok,
           f"refine={worst_ref:.1e}, monotone={monotone}, tail={limit_err:.1e}")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_tracy_widom_trend():
    # Known red: the trend clause compares two fixed t whose rescaled laws are
    # dominated by an O(1) lattice-phase oscillation (fractional parts of x t,
    # y t entering the scheduled saddle function), and careful measurement
    # shows KS(64) < KS(256) for this model at every seed tried, under the
    # plain rescaling and under two derived recenterings alike.  The statistic
    # is asserted exactly as stated; see the engineering notes for the
    # blocking analysis.  KS(256) <= 0.15 and the runtime budget do hold.
    t0 = time.time()
    fm = FreqModel.homogeneous(sigma=0.0, rho=-1.0, omega=-2.0)
    batches = tw_experiment(fm, 0.3, [64, 256], 2000, seed=0, slot_correction=False)
    ks = {b.t: b.ks for b in batches}
    elapsed = time.time() - t0
    ok = ks[64] > ks[256] and ks[256] <= 0.15 and elapsed < 1800
    report("12 Tracy-Widom trend: KS(64) > KS(256) <= 0.15 (2000 replicas each)",
           ok, f"KS64={ks[64]:.4f}, KS256={ks[256]:.4f}, {elapsed:.0f}s")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_steep_descent():
    fm_gen = FreqModel(
        sigma=(0.0, 0.15), alpha=(0.6, 0.4),
        rho=(-1.0, -1.2), beta=(0.5, 0.5),
        omega=(-2.0, -2.5), gamma=(0.7, 0.3),
    )
    hf_gen = HFunction(fm_gen, theta_constants(fm_gen, 0.8))
    ok_line, _ = check_steep_descent(hf_gen, "line", grid=200)

    fm_ass = FreqModel(
        sigma=(0.0,), alpha=(1.0,),
        rho=(-1.0,), beta=(1.0,),
        omega=(-1.5, -3.0), gamma=(0.5, 0.5),
    )
    hf_ass = HFunction(fm_ass, theta_constants(fm_ass, 0.3))
    ok_circle, _ = check_steep_descent(hf_ass, "circle", grid=200)
    ok_arcs, (_, prof) = check_steep_descent(hf_ass, "arcs", grid=200, eps=0.05)
    ok = ok_line and ok_circle and ok_arcs
    report("13 steep descent: line (general), circle and arcs (restricted)", ok,
           f"line={ok_line}, circle={ok_circle}, arcs={ok_arcs}, arc min={prof.min():.2e}")


# -- 14 ---------------------------------------------------------------------


def test_criterion_14_shift_invariance():
    # paired models: rows and diagonals relabeled so the interval parameter
    # multisets match; heights (h>=1, h>=3 at one facet) vs (h>=1 twice)
    N = 5
    mu = tuple(2.3 + 0.02 * i for i in range(N + 1))
    kap = (1.30, 1.34, 1.38, 1.42, 1.46)
    lam = (0.20, 0.22, 0.24, 0.26, 0.28)
    model_a = QHahnModel(q=0.55, mu=mu, kappa=kap, lam=lam, colors=(1,) * N)
    kap_b = (kap[3], kap[2], kap[0], kap[1], kap[4])
    lam_b = (lam[2], lam[0], lam[1], lam[3], lam[4])
    model_b = QHahnModel(q=0.55, mu=mu, kappa=kap_b, lam=lam_b, colors=(1,) * N)
    req_a = HeightRequest.make([1.5, 1.5], [4.5, 4.5], [1, 3], Permutation.identity(2))
    req_b = HeightRequest.make([1.5, 1.5], [4.5, 2.5], [1, 1], Permutation.identity(2))
    rep = verify_shift_invariance(model_a, req_a, model_b, req_b, 100_000, spawn_rng(1414))
    ok = rep.joint_zscore < 4.0 and rep.integral_diff < 1e-8
    report("14 shift invariance: joint q-moments within 4 sigma; integrals equal", ok,
           f"z={rep.joint_zscore:.2f}, integral diff={rep.integral_diff:.2e}")
