import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn_polymer import model as model_module
from qhahn_polymer.model import (
    HeightRequest,
    PathConfiguration,
    QHahnModel,
    Welford,
    _boundary_table,
    _QTables,
    _sample_vertices,
    base_case_product,
    boundary_pmf,
    enumerate_exact,
    estimate_qmoment,
    height_field,
    qmoment_factors,
    qmoment_statistic,
    sample_grid,
    sample_grids,
    sample_vertex,
    verify_shift_invariance,
    vertex_outcome_table,
)
from qhahn_polymer.qtools import Permutation, comp_interval, q_pochhammer_inf, spawn_rng


def small_model(q=0.55, n_rows=2, colors=(1, 1)):
    mu = tuple(2.0 + 0.15 * i for i in range(n_rows + 1))
    kappa = tuple(1.1 + 0.1 * j for j in range(n_rows))
    lam = tuple(0.2 + 0.05 * d for d in range(n_rows))
    return QHahnModel(q=q, mu=mu, kappa=kappa, lam=lam, colors=colors)


def test_model_validates_ordering():
    with pytest.raises(ValueError):
        QHahnModel(q=0.5, mu=(1.0, 1.0), kappa=(1.2,), lam=(0.1,), colors=(1,))


def test_boundary_pmf_normalizes_and_p0():
    m = small_model()
    for j in (1, 2):
        pmf = boundary_pmf(m, j, 200)
        assert abs(pmf.sum() - 1.0) < 1e-12
        p0 = q_pochhammer_inf(m.kappa_of(j) / m.mu_of(0), m.q) / q_pochhammer_inf(
            m.lam_of(j) / m.mu_of(0), m.q
        )
        assert abs(pmf[0] - p0) < 1e-12


def test_boundary_concentrates_when_lam_近_kappa():
    m = QHahnModel(q=0.5, mu=(2.0, 2.1, 2.2), kappa=(1.0, 1.05), lam=(0.9999999, 0.999999), colors=(1, 1))
    pmf = boundary_pmf(m, 1, 50)
    assert pmf[0] > 0.999999


def test_boundary_table_raises_when_cap_reached_before_tol():
    m = small_model()
    with pytest.raises(ValueError, match=r"j=2.*cap=3.*tail bound"):
        _boundary_table(m, 2, cap=3)
    assert m._boundary_tables == {}


def test_sample_vertex_trivial_when_A_zero():
    m = small_model()
    rng = spawn_rng(1)
    C, D = sample_vertex((0, 0), (3, 1), 1, 2, m, rng)
    assert C == (3, 1) and D == (0, 0)


def test_vertex_table_hand_case_n1():
    m = small_model(colors=(2,), n_rows=2)
    i, j = 1, 2
    tt, ss = m.spin_params(i, j)
    outcomes, cum = vertex_outcome_table(m, i, j, (1,))
    probs = np.diff(np.concatenate([[0.0], cum]))
    table = dict(zip(outcomes, probs))
    p1 = (ss / tt) * (1 - tt) / (1 - ss)
    p0 = (1 - ss / tt) / (1 - ss)
    assert abs(table[(1,)] - p1) < 1e-12
    assert abs(table[(0,)] - p0) < 1e-12


def test_vertex_tables_nonnegative_normalized():
    m = small_model(colors=(1, 1), n_rows=2)
    for A in [(0, 1), (2, 1), (3, 2)]:
        outcomes, cum = vertex_outcome_table(m, 1, 2, A)
        assert abs(cum[-1] - 1.0) < 1e-12


def test_sequential_sampler_matches_table_frequencies():
    # a box above _BOX_CAP sends the scalar sample_vertex through _sample_vertices on one
    # row; compare its draws against the outcome table at 4.5 sigma
    m = small_model(colors=(1, 1, 1), n_rows=3)
    A = (4, 3, 4)
    assert math.prod(a + 1 for a in A) > model_module._BOX_CAP
    i, j = 1, 3
    outcomes, cum = vertex_outcome_table(m, i, j, A)
    probs = np.diff(np.concatenate([[0.0], cum]))
    rng = spawn_rng(7)
    counts = {}
    n_draws = 40000
    for _ in range(n_draws):
        _, D = sample_vertex(A, (0, 0, 0), i, j, m, rng)
        counts[D] = counts.get(D, 0) + 1
    assert sum(counts.get(D, 0) for D in outcomes) == n_draws
    for D, p in zip(outcomes, probs):
        if p < 1e-4:
            continue
        emp = counts.get(D, 0) / n_draws
        sigma = math.sqrt(p * (1 - p) / n_draws)
        assert abs(emp - p) < 4.5 * sigma + 1e-12


def test_batched_vertex_matches_table_frequencies():
    # the batched |D| draw and color split at one vertex against the exact outcome table
    m = small_model(colors=(1, 1, 1), n_rows=3)
    A = (2, 1, 2)
    i, j = 1, 3
    tt, ss = m.spin_params(i, j)
    outcomes, cum = vertex_outcome_table(m, i, j, A)
    probs = np.diff(np.concatenate([[0.0], cum]))
    n_draws = 40000
    rng = spawn_rng(7)
    D = _sample_vertices(np.tile(A, (n_draws, 1)), rng.random((n_draws, 3)), tt, ss, _QTables(m.q, sum(A)))
    hits = 0
    for out, p in zip(outcomes, probs):
        count = int(np.all(D == out, axis=1).sum())
        hits += count
        if p < 1e-4:
            continue
        sigma = math.sqrt(p * (1 - p) / n_draws)
        assert abs(count / n_draws - p) < 4.5 * sigma + 1e-12
    assert hits == n_draws


def test_batched_stream_layout_independent_of_total_and_chunking(monkeypatch):
    m = small_model(q=0.5, n_rows=3, colors=(1, 2))
    whole = sample_grids(m, 7, spawn_rng(41))
    rng = spawn_rng(41)
    parts = [sample_grids(m, 3, rng), sample_grids(m, 4, rng)]
    monkeypatch.setattr(model_module, "_CHUNK_CELLS", 8)  # one replica per chunk
    tiny = sample_grids(m, 7, spawn_rng(41))
    assert np.array_equal(whole.A, tiny.A) and np.array_equal(whole.B, tiny.B)
    assert np.array_equal(whole.A, np.concatenate([p.A for p in parts]))
    assert np.array_equal(whole.B, np.concatenate([p.B for p in parts]))
    assert np.array_equal(whole.heights(), np.concatenate([p.heights() for p in parts]))
    assert whole.A.any()


@st.composite
def admissible_models(draw):
    n = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda c: 1 <= sum(c) <= 4))
    N = sum(colors)
    unit = st.floats(0.0, 1.0)
    mu = tuple(1.3 + 1.5 * draw(unit) for _ in range(N + 1))
    kappa = tuple(0.6 + 0.6 * draw(unit) for _ in range(N))
    lam = tuple(0.05 + 0.5 * draw(unit) for _ in range(N))
    return QHahnModel(q=0.1 + 0.85 * draw(unit), mu=mu, kappa=kappa, lam=lam, colors=tuple(colors))


@settings(max_examples=30, deadline=None)
@given(admissible_models(), st.integers(0, 2**32 - 1))
def test_batched_sampler_invariants_every_replica(m, seed):
    N, n = m.size, m.n_colors
    batch = sample_grids(m, 25, spawn_rng(seed))
    H = batch.heights()
    for r in range(len(batch.A)):
        A = {(i, j): tuple(int(v) for v in batch.A[r, i, j]) for i in range(1, N + 1) for j in range(N + 1)}
        B = {(i, j): tuple(int(v) for v in batch.B[r, i, j]) for i in range(N + 1) for j in range(1, N + 1)}
        cfg = PathConfiguration(n=n, size=N, A=A, B=B)
        cfg.check_conservation()
        for i in range(1, N + 1):
            for j in range(1, i):
                assert not any(A[(i, j)]) and not any(B[(i, j)])
        for c in range(n):
            assert sum(B[(0, j)][c] for j in range(1, N + 1)) == sum(A[(i, N)][c] for i in range(1, N + 1))
        for c in range(1, n + 1):
            assert np.array_equal(H[r, c - 1], height_field(cfg, c))
    assert (batch.A >= 0).all() and (batch.B >= 0).all()


def test_batched_and_scalar_qmoment_statistic_agree():
    m = QHahnModel(q=0.6, mu=(2.4, 2.5, 2.6), kappa=(1.25, 1.3), lam=(0.16, 0.18), colors=(1, 1))
    req = HeightRequest.make([0.5, 1.5], [2.5, 1.5], [1, 2], Permutation((2, 1)))
    n = 20000
    batched = qmoment_factors(m, sample_grids(m, n, spawn_rng(17)), req).prod(axis=1)
    rng = spawn_rng(18)
    scalar = np.array([qmoment_statistic(m, sample_grid(m, rng), req) for _ in range(n)])
    se = math.hypot(batched.std(ddof=1), scalar.std(ddof=1)) / math.sqrt(n)
    assert abs(batched.mean() - scalar.mean()) < 4 * se


def test_qmoment_factors_row_product_is_qmoment_statistic_every_replica():
    # tau != identity pairs the color c_{tau^{-1}(a)} with facet a; the batched columns and the
    # scalar statistic must make the same pairing on every replica
    cases = [
        (QHahnModel(q=0.6, mu=(2.4, 2.5, 2.6), kappa=(1.25, 1.3), lam=(0.16, 0.18), colors=(1, 1)),
         HeightRequest.make([0.5, 1.5], [2.5, 1.5], [1, 2], Permutation((2, 1)))),
        (small_model(n_rows=3, colors=(1, 1, 1)),
         HeightRequest.make([0.5, 1.5, 2.5], [3.5, 2.5, 2.5], [1, 2, 3], Permutation((3, 1, 2)))),
    ]
    for m, req in cases:
        N, n = m.size, m.n_colors
        batch = sample_grids(m, 200, spawn_rng(21))
        rows = qmoment_factors(m, batch, req).prod(axis=1)
        assert len(set(rows.tolist())) > 1
        for r in range(len(batch.A)):
            A = {(i, j): tuple(int(v) for v in batch.A[r, i, j]) for i in range(1, N + 1) for j in range(N + 1)}
            B = {(i, j): tuple(int(v) for v in batch.B[r, i, j]) for i in range(N + 1) for j in range(1, N + 1)}
            stat = qmoment_statistic(m, PathConfiguration(n=n, size=N, A=A, B=B), req)
            assert abs(rows[r] - stat) <= 1e-14 * abs(stat)


def test_batched_paths_build_no_vertex_tables():
    m = small_model(q=0.5, n_rows=2, colors=(1, 1))
    req = HeightRequest.make([0.5], [2.5], [1])
    estimate_qmoment(m, req, 200, spawn_rng(3))
    assert m._vertex_tables == {}
    shift = QHahnModel(q=0.55, mu=(2.3, 2.32, 2.34, 2.36), kappa=(1.30, 1.34, 1.38), lam=(0.20, 0.22, 0.24),
                       colors=(1, 1, 1))
    rq = HeightRequest.make([0.5], [2.5], [1])
    assert verify_shift_invariance(shift, rq, shift, rq, 100, spawn_rng(4), nodes=16).hypotheses_ok
    assert shift._vertex_tables == {}


def test_sample_grid_conservation_and_interior():
    m = small_model(q=0.45, n_rows=3, colors=(1, 2))
    rng = spawn_rng(3)
    cfg = sample_grid(m, rng)
    cfg.check_conservation()
    N = m.size
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i > j:
                assert cfg.A[(i, j)] == (0, 0)
                assert cfg.B[(i, j)] == (0, 0)
    # per-color path count across the anti-diagonal cut is conserved
    for c in range(m.n_colors):
        entered = sum(cfg.B[(0, j)][c] for j in range(1, N + 1))
        exited = sum(cfg.A[(i, N)][c] for i in range(1, N + 1))
        assert entered == exited


def test_sample_grid_deterministic_under_seed():
    m = small_model(n_rows=3, colors=(3,))
    cfg1 = sample_grid(m, spawn_rng(99))
    cfg2 = sample_grid(m, spawn_rng(99))
    assert cfg1.A == cfg2.A and cfg1.B == cfg2.B


def figure_configuration():
    """Hand-checked configuration with I = (1, 2, 1), N = 4, n = 3."""
    z = (0, 0, 0)
    A = {(i, j): z for i in range(1, 5) for j in range(0, 5)}
    B = {(i, j): z for i in range(0, 5) for j in range(1, 5)}
    A.update({
        (1, 1): (2, 0, 0), (1, 2): (1, 3, 0), (1, 3): (1, 2, 0), (1, 4): (0, 1, 1),
        (2, 2): (1, 0, 0), (2, 3): (0, 2, 0), (2, 4): (1, 2, 0),
        (3, 3): (1, 0, 0), (3, 4): (0, 1, 0), (4, 4): (1, 0, 0),
    })
    B.update({
        (0, 1): (2, 0, 0), (0, 2): (0, 3, 0), (0, 3): (0, 1, 0), (0, 4): (0, 0, 1),
        (1, 2): (1, 0, 0), (1, 3): (0, 2, 0), (1, 4): (1, 1, 0),
        (2, 3): (1, 0, 0), (2, 4): (0, 1, 0), (3, 4): (1, 0, 0),
    })
    return PathConfiguration(n=3, size=4, A=A, B=B)


def test_height_field_reproduces_annotated_grid():
    cfg = figure_configuration()
    cfg.check_conservation()
    H = height_field(cfg, 2)
    expected_cols = {
        0: [0, 0, 3, 4, 5],
        1: [0, 0, 0, 2, 3],
        2: [0, 0, 0, 0, 1],
        3: [0, 0, 0, 0, 0],
        4: [0, 0, 0, 0, 0],
    }
    for ix, col in expected_cols.items():
        assert list(H[ix, :]) == col


def test_height_field_propagation_order_free():
    cfg = figure_configuration()
    n, N = cfg.n, cfg.size
    for c in (1, 2, 3):
        H = height_field(cfg, c)
        # row-major reconstruction: go right along y = 1/2 first, then up
        H2 = np.zeros_like(H)
        for ix in range(1, N + 1):
            H2[ix, 0] = H2[ix - 1, 0] - comp_interval(cfg.A[(ix, 0)], c, n)
        for iy in range(1, N + 1):
            for ix in range(0, N + 1):
                H2[ix, iy] = H2[ix, iy - 1] + comp_interval(cfg.B[(ix, iy)], c, n)
        assert np.array_equal(H, H2)


def test_height_zero_below_diagonal_band():
    m = small_model(q=0.4, n_rows=3, colors=(1, 1, 1))
    rng = spawn_rng(21)
    for _ in range(20):
        cfg = sample_grid(m, rng)
        for c in (1, 2, 3):
            H = height_field(cfg, c)
            for ix in range(4):
                for iy in range(4):
                    if iy - ix < c:
                        assert H[ix, iy] == 0
    # h_{>=1} on the left boundary equals the partial sums of b_j
    cfg = sample_grid(m, rng)
    H1 = height_field(cfg, 1)
    acc = 0
    for iy in range(1, 4):
        acc += sum(cfg.B[(0, iy)])
        assert H1[0, iy] == acc


def test_height_nonincreasing_in_color():
    m = small_model(q=0.5, n_rows=3, colors=(1, 1, 1))
    rng = spawn_rng(33)
    for _ in range(10):
        cfg = sample_grid(m, rng)
        fields = [height_field(cfg, c) for c in (1, 2, 3)]
        for lo, hi in zip(fields[1:], fields[:-1]):
            assert (lo <= hi).all()


def test_qmoment_diagonal_is_one():
    m = small_model(n_rows=2, colors=(2,))
    req = HeightRequest.make([1.5, 1.5], [1.5, 1.5], [1, 1], Permutation.identity(2))
    mean, se = estimate_qmoment(m, req, 50, spawn_rng(5))
    assert mean == 1.0 and se == 0.0


def test_qmoment_base_case_mc_vs_product():
    m = small_model(q=0.5, n_rows=2, colors=(1, 1))
    req = HeightRequest.make([0.5], [2.5], [1], Permutation.identity(1))
    target = base_case_product(m, req)
    mean, se = estimate_qmoment(m, req, 20000, spawn_rng(11))
    assert abs(mean - target) < 4 * se


def test_enumerate_exact_1x1_hand_case():
    q = Fraction(1, 2)
    m = QHahnModel(q=q, mu=(Fraction(2), Fraction(3)), kappa=(Fraction(1),),
                   lam=(Fraction(1, 4),), colors=(1,))
    req = HeightRequest.make([0.5], [1.5], [1], Permutation.identity(1))
    val, tail = enumerate_exact(m, req, b_cap=220)
    # E[q^{b_1}] = (1 - kappa/mu0)/(1 - lam/mu0) by the closed product
    expect = (1 - Fraction(1, 2)) / (1 - Fraction(1, 8))
    assert isinstance(val, Fraction)
    assert abs(float(val - expect)) < 1e-25
    assert tail < 1e-20


def test_enumerate_exact_matches_mc_2x2():
    m = small_model(q=0.5, n_rows=2, colors=(1, 1))
    req = HeightRequest.make([0.5, 1.5], [2.5, 1.5], [1, 2], Permutation.identity(2))
    val, tail = enumerate_exact(m, req, tol=1e-10)
    assert tail < 1e-9
    mean, se = estimate_qmoment(m, req, 30000, spawn_rng(13))
    assert abs(mean - val) < 4 * se


def test_request_validation():
    m = small_model(n_rows=2, colors=(1, 1))
    with pytest.raises(ValueError):
        HeightRequest.make([1.5, 0.5], [2.5, 2.5], [1, 1])  # x not ascending
    with pytest.raises(ValueError):
        HeightRequest.make([0.5], [2.5], [5]).validate_against(m)  # bad color
    with pytest.raises(ValueError):
        HeightRequest.make([0.5], [1.0], [1])  # not a half-integer


def test_welford_merge_matches_numpy():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=1000)
    w1, w2 = Welford(), Welford()
    for x in xs[:400]:
        w1.add(float(x))
    for x in xs[400:]:
        w2.add(float(x))
    w1.merge(w2)
    assert abs(w1.mean - xs.mean()) < 1e-12
    assert abs(w1.variance - xs.var(ddof=1)) < 1e-12


# Exact enumeration as a frontier-state sum: values pinned from the leaf-by-leaf enumeration
# it replaced (Fraction values exactly, float values to 1e-12 relative).

def _frac_model(colors):
    F = Fraction
    if sum(colors) == 2:
        return QHahnModel(q=F(1, 2), mu=(F(2), F(3), F(5, 2)), kappa=(F(1), F(5, 4)), lam=(F(1, 4), F(1, 3)),
                          colors=colors)
    return QHahnModel(q=F(1, 2), mu=(F(2), F(3), F(5, 2), F(11, 4)), kappa=(F(1), F(5, 4), F(6, 5)),
                      lam=(F(1, 4), F(1, 3), F(1, 5)), colors=colors)


@pytest.mark.parametrize("colors, b_cap, xs, ys, cs, tau, value, tail", [
    ((1, 1), 5, [1.5], [2.5], [1], (1,), "523/616", 0.22886767748182055),  # partial cone
    ((1, 1), 5, [0.5, 1.5], [2.5, 1.5], [1, 2], (2, 1), "73868495/151211728", 0.22886767748182055),
    ((1, 1), 5, [1.5, 2.5], [2.5, 2.5], [1, 2], (2, 1), "1", 0.22886767748182055),  # full cone
    ((2,), 5, [1.5, 1.5], [2.5, 1.5], [1, 1], (2, 1), "523/616", 0.22886767748182055),
    ((1, 1, 1), 2, [1.5, 2.5], [3.5, 3.5], [1, 2], (2, 1), "2869257/3431120", 2.9877275182087546),
    ((1, 1, 1), 2, [2.5], [3.5], [1], (1,), "366/385", 2.9877275182087546),
    ((1, 1, 1), 3, [1.5, 2.5], [3.5, 3.5], [1, 2], (2, 1), "20831713/25832400", 1.3386784323185874),
])
def test_enumerate_exact_fraction_pins(colors, b_cap, xs, ys, cs, tau, value, tail):
    req = HeightRequest.make(xs, ys, cs, Permutation(tau))
    val, bound = enumerate_exact(_frac_model(colors), req, b_cap=b_cap)
    assert isinstance(val, Fraction)
    assert val == Fraction(value)
    assert bound == tail


@pytest.mark.parametrize("xs, ys, cs, tau, value", [
    ([1.5], [2.5], [1], (1,), 0.7629349816850164),
    ([0.5, 1.5], [2.5, 1.5], [1, 2], (1, 2), 0.2543838481338668),
    ([0.5, 1.5], [2.5, 1.5], [1, 2], (2, 1), 0.49549549549551836),
])
def test_enumerate_exact_criterion6_float_pins(xs, ys, cs, tau, value):
    m = QHahnModel(q=0.6, mu=(2.4, 2.5, 2.6), kappa=(1.25, 1.3), lam=(0.16, 0.18), colors=(1, 1))
    val, tail = enumerate_exact(m, HeightRequest.make(xs, ys, cs, Permutation(tau)), tol=1e-11)
    assert abs(val - value) < 1e-12 * value
    assert abs(tail - 2.518989116173141e-17) < 1e-12 * 2.518989116173141e-17


@pytest.mark.parametrize("exact", [False, True])
def test_enumerate_exact_boundary_only_matches_base_case(exact):
    m = _frac_model((1, 1, 1)) if exact else small_model(q=0.5, n_rows=3, colors=(1, 1, 1))
    for ys, cs, tau in [([2.5], [1], (1,)), ([3.5, 1.5], [1, 2], (2, 1)), ([3.5, 2.5, 1.5], [1, 2, 3], (3, 1, 2))]:
        req = HeightRequest.make([0.5] * len(ys), ys, cs, Permutation(tau))
        val, tail = enumerate_exact(m, req, b_cap=40 if exact else None)
        assert tail < 1e-6
        assert abs(float(val - base_case_product(m, req))) <= tail


def test_enumerate_exact_doubles_cap_until_tail_is_geometric():
    # x / (1 - q^(cap+1)) >= 1 at the starting cap 4 (and at 8 for row 2)
    m = QHahnModel(q=0.7, mu=(1.0, 1.1, 1.2), kappa=(0.95, 0.96), lam=(0.1, 0.1), colors=(1, 1))
    req = HeightRequest.make([0.5], [1.5], [1])
    val, tail = enumerate_exact(m, req)
    assert abs(val - 0.05555555555555573) < 1e-9 and tail < 1e-10
    with pytest.raises(ValueError, match="raise b_cap"):
        enumerate_exact(m, req, b_cap=8)


def test_enumerate_exact_guard_raises():
    m = small_model(q=0.5, n_rows=2, colors=(1, 1))
    req = HeightRequest.make([1.5], [2.5], [1])
    enumerate_exact(m, req, b_cap=8, leaf_guard=1000)
    with pytest.raises(ValueError, match="enumeration guard exceeded"):
        enumerate_exact(m, req, b_cap=8, leaf_guard=20)


def test_shift_invariance_integrals_cached_per_model(monkeypatch):
    from qhahn_polymer import moments

    def shift_model():
        return QHahnModel(q=0.55, mu=(2.3, 2.32, 2.34, 2.36), kappa=(1.30, 1.34, 1.38), lam=(0.20, 0.22, 0.24),
                          colors=(1, 1, 1))

    model_a, model_b = shift_model(), shift_model()
    req = HeightRequest.make([0.5], [2.5], [1])
    calls = []
    real = moments.qmoment_integral

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(moments, "qmoment_integral", counted)
    first = verify_shift_invariance(model_a, req, model_b, req, 50, spawn_rng(4), nodes=16)
    assert len(calls) == 2
    second = verify_shift_invariance(model_a, req, model_b, req, 50, spawn_rng(5), nodes=16)
    assert len(calls) == 2
    assert (second.integral_a, second.integral_b) == (first.integral_a, first.integral_b)
    verify_shift_invariance(model_a, req, model_b, req, 50, spawn_rng(5), nodes=32)
    assert len(calls) == 4
