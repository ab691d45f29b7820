import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from qhahn_polymer import polymer
from qhahn_polymer.asymptotics import FreqModel, scheduled_polymer_model, theta_constants, tw_experiment
from qhahn_polymer.polymer import (
    PolymerModel,
    beta_draws,
    joint_moment_annealed,
    mc_statistics,
    moment_annealed,
    partition_bruteforce,
    partition_dp,
    qhahn_bridge_model,
    rwre_hitting,
    sample_environment,
    sample_log_partition,
    sample_partition_values,
    schedule_values,
)
from qhahn_polymer.qtools import spawn_rng


def tri_model(y_max=8, x_max=8):
    sig = tuple(1.0 + 0.04 * (i % 3) for i in range(x_max + 1))
    rho = tuple(0.1 + 0.05 * (j % 2) for j in range(y_max))
    ome = tuple(-1.0 - 0.07 * (d % 3) for d in range(y_max))
    return PolymerModel(sig, rho, ome)


def test_schedule_values():
    assert schedule_values([3.0], [1.0], 5) == (3.0,) * 5
    s = schedule_values([1.0, 2.0], [0.5, 0.5], 5)
    assert s.count(1.0) == 2 and s.count(2.0) == 3
    with pytest.raises(ValueError):
        schedule_values([1.0, 2.0], [0.7, 0.7], 4)


def test_model_ordering_enforced():
    with pytest.raises(ValueError):
        PolymerModel((1.0,), (1.2,), (-1.0,))


def test_environment_support_and_mean():
    m = tri_model()
    rng = spawn_rng(1)
    draws = np.array([sample_environment(m, 0, 1, rng).value(0, 1) for _ in range(4000)])
    assert ((draws > 0) & (draws < 1)).all()
    a = m.sigma(0) - m.rho(1)
    b = m.rho(1) - m.omega(1)
    target = a / (a + b)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - target) < 4 * se


def test_beta_equal_shapes_median():
    rng = spawn_rng(5)
    draws = beta_draws(rng, 2.3, 2.3, size=(20000,))
    frac_below = (draws < 0.5).mean()
    assert abs(frac_below - 0.5) < 4 * math.sqrt(0.25 / draws.size)


def test_partition_dp_boundaries_and_range():
    m = tri_model()
    rng = spawn_rng(2)
    env = sample_environment(m, 4, 8, rng)
    for r in (0, 1, 2):
        Z = partition_dp(env, r, 4, 8)
        for t in range(0, min(4, 8 - r) + 1):
            assert Z.value(t, r + t) == 1.0
        prod = 1.0
        for s in range(1, 8 - r + 1):
            prod *= env.value(0, r + s)
            assert abs(Z.value(0, r + s) - prod) < 1e-15
        vals = Z.table[~np.isnan(Z.table)]
        assert ((vals > 0) & (vals <= 1.0)).all()


def test_dp_equals_bruteforce_and_rwre():
    m = tri_model()
    for seed in range(5):
        env = sample_environment(m, 6, 6, spawn_rng(seed))
        for r in (0, 1):
            for x, y in [(2, 5), (3, 6), (0, 4), (4, 6 if r == 0 else 6)]:
                if x + r > y:
                    continue
                z_dp = partition_dp(env, r, x, y).value(x, y)
                z_bf = partition_bruteforce(env, r, x, y)
                z_rw = rwre_hitting(env, r, x, y)
                assert abs(z_dp - z_bf) < 1e-13
                assert abs(z_dp - z_rw) < 1e-13


def test_dp_linear_in_each_eta():
    m = tri_model()
    env = sample_environment(m, 3, 5, spawn_rng(9))
    x, y, r = 3, 5, 0
    base = partition_dp(env, r, x, y)
    i, j = 2, 4
    coeff = base.table[i, j - 1] - base.table[i - 1, j - 1]
    h = 1e-6
    env.eta[i, j] += h
    bumped = partition_dp(env, r, x, y).value(i, j)
    env.eta[i, j] -= h
    fd = (bumped - base.value(i, j)) / h
    assert abs(fd - coeff) < 1e-9 * (1 + abs(coeff))


def test_dp_monotone_in_delay():
    # the walk coupling makes Z^(r) nondecreasing in r on a common environment:
    # fewer steps and an easier threshold
    m = tri_model()
    for seed in (11, 12, 13):
        env = sample_environment(m, 3, 7, spawn_rng(seed))
        z0 = partition_dp(env, 0, 3, 7).value(3, 7)
        z1 = partition_dp(env, 1, 3, 7).value(3, 7)
        z2 = partition_dp(env, 2, 3, 7).value(3, 7)
        assert z0 <= z1 <= z2


def test_moment_annealed_k1_closed_form():
    m = tri_model()
    a = m.sigma(0) - m.rho(1)
    b = m.rho(1) - m.omega(1)
    assert abs(moment_annealed(m, 0, 1, 0, 1) - a / (a + b)) < 1e-14


def test_moment_annealed_exact_rational():
    m = PolymerModel((Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 4), Fraction(1, 3)),
                     (Fraction(-1), Fraction(-1)))
    val = moment_annealed(m, 1, 2, 0, 2, exact=True)
    assert isinstance(val, Fraction)
    # cross-check against dense float recomputation
    fval = moment_annealed(PolymerModel((1.5, 1.5), (0.25, 1 / 3), (-1.0, -1.0)), 1, 2, 0, 2)
    assert abs(float(val) - fval) < 1e-12


def frac_model():
    return PolymerModel(
        (Fraction(3, 2), Fraction(7, 4), Fraction(2), Fraction(9, 4)),
        (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
        (Fraction(-1), Fraction(-5, 4), Fraction(-1), Fraction(-3, 2), Fraction(-1), Fraction(-2)),
    )


def float_copy(m):
    return PolymerModel(*(tuple(float(v) for v in vals) for vals in (m.sigma_list, m.rho_list, m.omega_list)))


def test_moment_annealed_exact_pinned_values():
    # values of the two former transfer matrices, which agreed on these inputs
    m = frac_model()
    assert moment_annealed(m, 2, 5, 0, 2, exact=True) == Fraction(45496279, 158841540)
    assert moment_annealed(m, 1, 4, 1, 3, exact=True) == Fraction(39545668453, 289607788800)
    assert moment_annealed(m, 3, 6, 0, 2, exact=True) == Fraction(646734238521143, 1232149709934000)


def test_joint_moment_annealed_pinned_mixed_delays():
    m = tri_model()
    for specs, value in [
        ([(1, 4, 0), (2, 5, 1), (1, 3, 2)], 0.14386700637118),
        ([(2, 6, 0), (0, 3, 1), (2, 6, 0)], 0.019999564150826758),
    ]:
        assert abs(joint_moment_annealed(m, specs) - value) < 1e-14 * value


def test_joint_moment_annealed_exact_is_symmetric_and_matches_float():
    m = frac_model()
    specs = [(1, 4, 0), (2, 5, 1), (1, 3, 2), (2, 5, 1)]
    exact = joint_moment_annealed(m, specs, exact=True)
    assert isinstance(exact, Fraction) and 0 < exact < 1
    for perm in itertools.permutations(specs):
        assert joint_moment_annealed(m, list(perm), exact=True) == exact
    approx = joint_moment_annealed(float_copy(m), specs)
    assert abs(approx - float(exact)) < 1e-12 * float(exact)


def test_joint_moment_annealed_identical_walkers_give_moment():
    m = frac_model()
    for x, y, r, k in [(2, 5, 0, 2), (1, 4, 1, 3), (0, 3, 2, 4)]:
        specs = [[x, y, r] for _ in range(k)]
        assert joint_moment_annealed(m, specs, exact=True) == moment_annealed(m, x, y, r, k, exact=True)
    assert joint_moment_annealed(m, [], exact=True) == 1


def test_moment_annealed_vs_mc():
    m = tri_model()
    x, y, r = 2, 4, 0
    stats = mc_statistics(m, r, x, y, 60000, seed=3, mode="moments", max_power=2)
    for k in (1, 2):
        mean, se = stats.moments[k]
        assert abs(mean - moment_annealed(m, x, y, r, k)) < 4 * se


def test_log_and_linear_sampling_agree():
    m = tri_model()
    lin = sample_partition_values(m, 0, 2, 5, 4000, seed=17, block=1000)
    log = sample_log_partition(m, 0, 2, 5, 4000, seed=17, block=1000)
    assert np.allclose(np.log(lin), log)


def test_log_sampling_handles_deep_grids():
    # ln Z ~ -I t far below float range in linear space
    sig = (0.0,) * 9
    rho = (-1.0,) * 900
    ome = (-2.0,) * 900
    m = PolymerModel(sig, rho, ome)
    vals = sample_log_partition(m, 0, 8, 900, 8, seed=23)
    assert np.isfinite(vals).all()
    assert (vals < -700).all()  # linear space would underflow


def test_linear_sampling_raises_below_float_range():
    m = PolymerModel((0.0,) * 9, (-1.0,) * 900, (-2.0,) * 900)
    with pytest.raises(OverflowError):
        sample_partition_values(m, 0, 8, 900, 8, seed=23)


def test_sampling_rejects_corner_outside_domain():
    # r > y - x: no path from (0, r) reaches the corner
    with pytest.raises(IndexError):
        sample_log_partition(tri_model(), 5, 0, 3, 4)


def tw_model(t):
    fm = FreqModel.homogeneous(sigma=0.0, rho=-1.0, omega=-2.0)
    return scheduled_polymer_model(fm, theta_constants(fm, 0.3), t)


def logaddexp_dp(model, x, y, n, rng):
    """ln Z at (x, y), r = 0, by the row recursion in log space, one ``beta_draws`` call per row."""
    band = y - x
    lz = np.full((n, x + 1), -np.inf)
    lz[:, 0] = 0.0
    for yy in range(1, y + 1):
        hi = min(x, yy)
        xs = np.arange(hi + 1)
        a = np.array([model.sigma(i) for i in xs]) - model.rho(yy)
        b = model.rho(yy) - np.array([model.omega(d) for d in np.clip(yy - xs, 1, band)])
        eta = beta_draws(rng, a, b, size=(n, hi + 1))
        new = lz.copy()
        new[:, 0] = np.log(eta[:, 0]) + lz[:, 0]
        new[:, 1:hi + 1] = np.logaddexp(np.log(eta[:, 1:]) + lz[:, 1:hi + 1],
                                        np.log1p(-eta[:, 1:]) + lz[:, :hi])
        if yy <= x:
            new[:, yy] = 0.0  # diagonal boundary
        lz = new
    return lz[:, x]


def test_log_sampling_exact_at_t256():
    # one row spans more than the float range here (X = 151, Y = 2995)
    model, X, Y = tw_model(256)
    vals = sample_log_partition(model, 0, X, Y, 12, seed=7)
    assert np.abs(vals - logaddexp_dp(model, X, Y, 12, spawn_rng(7, 0))).max() < 1e-9


@pytest.mark.parametrize("t, pinned", [
    (32, [-236.07979633423707, -232.55075036044724, -234.19692229819998, -229.78270184677274,
          -229.52926746426354, -238.19304939821902, -218.15803295562935, -232.65399188757993]),
    (128, [-860.2994682521805, -867.7104234305511, -858.1099807077198, -834.9794116775324,
           -871.4501701230811, -855.1083380484167, -860.6512614537569, -873.4351621926633]),
])
def test_log_sampling_pinned_values(t, pinned):
    model, X, Y = tw_model(t)
    vals = sample_log_partition(model, 0, X, Y, 8, seed=11)
    assert np.abs(vals - pinned).max() < 1e-12


def test_linear_sampling_pinned_values():
    # a != 1: the two-Gamma draws; 40 rows cross several renormalisations
    vals = sample_partition_values(tri_model(40, 6), 0, 6, 40, 5, seed=9)
    assert vals.tolist() == [7.45120297300095e-07, 1.461079013898721e-09, 1.5610080030854248e-10,
                             8.326689675142215e-10, 1.5642026664149415e-08]
    vals = sample_partition_values(tri_model(), 1, 2, 6, 6, seed=4)
    assert vals.tolist() == [0.4209882110946999, 0.402698492735156, 0.502174274061959,
                             0.46444600351735155, 0.5204612688115153, 0.16888915382376546]


def test_beta_draws_unit_shapes_skip_the_power():
    b = np.ones((3, 1, 5))
    fast = beta_draws(np.random.default_rng(8), 1.0, b, size=(3, 4, 5))
    u = np.random.default_rng(8).random((3, 4, 5))
    assert np.array_equal(fast, 1.0 - np.power(1.0 - u, 1.0 / np.broadcast_to(b, u.shape)))
    # rows drawn in one call consume the stream as one call per row
    rng = np.random.default_rng(8)
    rows = [beta_draws(rng, 1.0, b[k], size=(4, 5)) for k in range(3)]
    assert np.array_equal(fast, np.stack(rows))
    # Beta(1, 1) returns rng.random's values, 1 - (1 - w) exactly, and consumes the stream as it does
    rng, raw, ref = (np.random.default_rng(31) for _ in range(3))
    for size in [(), (7,), (3, 4, 5)]:
        draw = beta_draws(rng, 1, 1, size)
        assert np.shape(draw) == size
        assert np.array_equal(draw, raw.random(size))
        assert np.array_equal(draw, reference_beta_draws(ref, 1, 1, size))


def test_beta_draws_two_gamma_stream_pinned():
    # the a != 1 path against the two-Gamma formula on the broadcast shapes, bit for bit
    a, b = np.array([1.1, 0.7, 2.0]), np.array([1.9, 0.3, 1.0])
    rng = np.random.default_rng(17)
    g1 = rng.gamma(np.broadcast_to(a, (50, 3)))
    g2 = rng.gamma(np.broadcast_to(b, (50, 3)))
    want = np.clip(g1 / np.maximum(g1 + g2, 1e-300), 1e-300, 1.0 - 1e-16)
    rng_new = np.random.default_rng(17)
    assert np.array_equal(beta_draws(rng_new, a, b, size=(50, 3)), want)
    assert rng_new.random() == rng.random()
    # size (): a float, as the environment sampler stores it
    rng = np.random.default_rng(18)
    g1, g2 = rng.gamma(np.broadcast_to(0.7, ())), rng.gamma(np.broadcast_to(1.3, ()))
    draw = beta_draws(np.random.default_rng(18), 0.7, 1.3, size=())
    assert np.ndim(draw) == 0
    assert draw == np.clip(g1 / np.maximum(g1 + g2, 1e-300), 1e-300, 1.0 - 1e-16)


def test_two_gamma_samplers_pinned_values():
    # values drawn with rng.gamma on broadcast shape views, before the contiguous draws
    vals = sample_partition_values(tri_model(), 0, 2, 6, 5000, seed=12)
    assert [vals[0], vals[4096], vals[4999]] == [0.14478855193834136, 0.3810677310425794, 0.05748337498867762]
    st = mc_statistics(tri_model(), 0, 3, 8, 5000, seed=3)
    assert [st.moments[k][0] for k in (1, 2, 3)] == [0.23204106545201575, 0.07889927258974527,
                                                     0.03332943257847171]
    env = sample_environment(tri_model(), 3, 6, np.random.default_rng(21))
    assert env.eta[np.isfinite(env.eta)][:3].tolist() == [0.9826424779675249, 0.7199470610159898,
                                                          0.6108303103943079]


def reference_beta_draws(rng, a, b, size=None):
    """The reference of ``polymer.beta_draws``: Beta(1, 1) by the inverse CDF, 1 - (1 - w)."""
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    if size is None:
        size = a_arr.shape
    if np.all(a_arr == 1.0):
        w = rng.random(size)
        np.subtract(1.0, w, out=w)
        if not np.all(b_arr == 1.0):
            np.power(w, 1.0 / np.broadcast_to(b_arr, size), out=w)
        return np.subtract(1.0, w, out=w)
    # .copy(), not np.ascontiguousarray, which turns size () into shape (1,)
    g1 = rng.standard_gamma(np.broadcast_to(a_arr, size).copy())
    g2 = rng.standard_gamma(np.broadcast_to(b_arr, size).copy())
    out = g1 / np.maximum(g1 + g2, 1e-300)
    return np.clip(out, 1e-300, 1.0 - 1e-16)


def reference_dp_block(model, r, x, y, n_block, rng, want_log):
    """The reference of ``polymer._dp_block``, bit for bit: the same recurrence, with the
    Beta shapes rebuilt from the model per chunk and every row drawn by ``reference_beta_draws``."""
    band = y - x
    if band == 0:
        return np.zeros(n_block) if want_log else np.ones(n_block)
    if band > len(model.omega_list):
        raise IndexError("omega schedule shorter than the diagonal range y - x")
    if x > y - r:
        raise IndexError("corner outside the domain: need r <= y - x")
    sigma = np.array([model.sigma(i) for i in range(0, x + 1)])
    omega = np.array([model.omega(d) for d in range(1, band + 1)])

    def shapes(k0, k1):
        """Beta shapes (a, b) of rows r+1+k0 .. r+k1 on all x + 1 columns."""
        yy = np.arange(r + 1 + k0, r + 1 + k1)[:, None]
        rho = np.array([[model.rho(j)] for j in range(r + 1 + k0, r + 1 + k1)])
        # out-of-band cells (yy - x' > band) never reach the corner; clamping
        # their diagonal index keeps the vector draw simple and is harmless
        return sigma - rho, rho - omega[np.clip(yy - np.arange(x + 1), 1, band) - 1]

    s = np.zeros((x + 1, n_block))
    s[0] = 1.0  # Z_{0, r} = 1
    E = np.zeros((x + 1, n_block), dtype=np.intc)
    ex = np.empty_like(E)
    ratio = np.ones((x + 1, n_block))  # 2**(E[c-1] - E[c]) for column c >= 1
    eta = np.empty((x + 1, n_block))
    tmp = np.empty((x + 1, n_block))

    def step(draw, m, cols):
        """One row of width m: columns 1..cols-1 by the recurrence, column 0 by eta."""
        np.copyto(eta[:m], draw.T)
        diag = np.subtract(1.0, eta[1:cols], out=tmp[1:cols])
        diag *= ratio[1:cols]
        diag *= s[: cols - 1]
        s[1:cols] *= eta[1:cols]
        s[1:cols] += diag
        s[0] *= eta[0]

    def renormalise(m):
        np.frexp(s[:m], out=(s[:m], ex[:m]))
        E[:m] += ex[:m]
        np.subtract(E[: m - 1], E[1:m], out=ex[1:m])
        np.ldexp(1.0, ex[1:m], out=ratio[1:m])

    # while the diagonal is inside the window, row i has width i + 2 and
    # ends in the boundary cell Z = 1
    for i in range(x):
        m = i + 2
        a, b = shapes(i, i + 1)
        step(reference_beta_draws(rng, a[0, :m], b[0, :m], size=(n_block, m)), m, m - 1)
        s[m - 1] = 1.0
        E[m - 1] = 0
        renormalise(m)
    m = x + 1
    for k0 in range(x, y - r, polymer._ROW_CHUNK):
        k1 = min(k0 + polymer._ROW_CHUNK, y - r)
        a, b = shapes(k0, k1)
        if np.all(a == 1.0):
            draws = reference_beta_draws(rng, 1.0, b[:, None, :], size=(k1 - k0, n_block, m))
        else:
            draws = [reference_beta_draws(rng, ak, bk, size=(n_block, m)) for ak, bk in zip(a, b)]
        for draw in draws:
            step(draw, m, m)
        renormalise(m)
    if want_log:
        return np.log(s[x]) + E[x] * math.log(2.0)
    vals = np.ldexp(s[x], E[x])
    if ((vals < np.finfo(float).tiny) & (s[x] > 0.0)).any():
        raise OverflowError("partition values underflow linear space; use log mode")
    return vals


def mixed_shapes_model():
    # a = 1 on the rho = -1 rows (Beta(1, 1) where omega = -2, b = 1.5 where
    # omega = -2.5), a = 1.3 on the rho = -1.3 rows: chunks of all three kinds
    rho = (-1.0,) * 21 + (-1.3,) * 5 + (-1.0,) * 14
    return PolymerModel((0.0,) * 5, rho, (-2.0,) * 20 + (-2.5,) * 20)


def dp_cases():
    """(model, r, x, y, samples, block, want_log) for each draw path of ``_dp_block``."""
    tw, X, Y = tw_model(32)
    return {
        "tw32": (tw, 0, X, Y, 300, 256, True),  # Beta(1, 1) everywhere
        "a1_b_not_1": (mixed_shapes_model(), 0, 4, 40, 70, 32, True),
        "two_gamma_linear": (tri_model(40, 6), 0, 6, 40, 250, 100, False),  # partial last block
        "deep": (PolymerModel((0.0,) * 9, (-1.0,) * 900, (-2.0,) * 900), 0, 8, 900, 20, 16, True),
        "r_positive_log": (mixed_shapes_model(), 3, 4, 40, 40, 32, True),
        "r_positive_linear": (tri_model(), 1, 2, 6, 60, 25, False),
    }


@pytest.mark.parametrize("case", ["tw32", "a1_b_not_1", "two_gamma_linear", "deep", "r_positive_log",
                                  "r_positive_linear"])
def test_dp_block_equals_the_reference_kernel(case, monkeypatch):
    model, r, x, y, samples, block, want_log = dp_cases()[case]
    new = polymer._replica_blocks(model, r, x, y, samples, 5, block, want_log, workers=1)
    monkeypatch.setattr(polymer, "_dp_block", reference_dp_block)
    ref = polymer._replica_blocks(model, r, x, y, samples, 5, block, want_log, workers=1)
    assert np.array_equal(new, ref)


def test_sampling_deterministic():
    m = tri_model()
    a = sample_partition_values(m, 0, 2, 5, 100, seed=7)
    b = sample_partition_values(m, 0, 2, 5, 100, seed=7)
    assert np.array_equal(a, b)


def test_samples_independent_of_workers():
    # ragged last blocks; more threads than blocks' worth of CPUs is allowed
    lin = [sample_partition_values(tri_model(), 0, 2, 5, 2500, seed=13, block=1000, workers=w)
           for w in (1, 2, 3)]  # a != 1: the two-Gamma draws
    model, X, Y = tw_model(16)  # a = 1: the inverse-CDF draws
    log = [sample_log_partition(model, 0, X, Y, 700, seed=13, workers=w) for w in (1, 2, 3)]
    for runs in (lin, log):
        assert all(np.array_equal(runs[0], v) for v in runs[1:])


@pytest.mark.parametrize("call", [
    lambda w: sample_partition_values(tri_model(), 0, 2, 5, 10, workers=w),
    lambda w: sample_log_partition(tri_model(), 0, 2, 5, 10, workers=w),
    lambda w: mc_statistics(tri_model(), 0, 2, 5, 10, workers=w),
    lambda w: tw_experiment(FreqModel.homogeneous(), 0.3, [16], 100, workers=w),
])
@pytest.mark.parametrize("workers", [0, -1])
def test_replica_samplers_reject_nonpositive_workers(call, workers):
    with pytest.raises(ValueError, match="workers"):
        call(workers)


def test_error_in_a_later_block_leaves_the_pool(monkeypatch):
    dp_block = polymer._dp_block
    threads = set()

    def failing_last_block(model, r, x, y, n_block, rng, want_log):
        threads.add(threading.get_ident())
        if n_block < 1000:  # only the ragged third block
            raise OverflowError("partition values underflow linear space; use log mode")
        return dp_block(model, r, x, y, n_block, rng, want_log)

    monkeypatch.setattr(polymer, "_dp_block", failing_last_block)
    for workers in (1, 2, 3):
        with pytest.raises(OverflowError):
            sample_partition_values(tri_model(), 0, 2, 5, 2500, block=1000, workers=workers)
        if workers == 1:  # one worker runs the blocks in the calling thread
            assert threads == {threading.get_ident()}


def test_bridge_model_parameters():
    m = tri_model(4, 4)
    qm = qhahn_bridge_model(m, 0.01, 3)
    assert 0 < qm.q < 1
    assert qm.colors == (1, 1, 1)
    for lam_d in qm.lam:
        for kap in qm.kappa:
            assert lam_d < kap
