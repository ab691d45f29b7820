import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from qhahn_polymer.specfun import (
    _AI0,
    _AIP0,
    _CROSSOVER,
    _airy,
    _airy_asymptotic_pos,
    _airy_series,
    airy_ai,
    airy_ai_prime,
    digamma,
    log_gamma,
    polygamma,
)


def test_log_gamma_at_one():
    assert abs(log_gamma(1.0)) < 1e-14


def test_trigamma_at_one_series_oracle():
    # direct summation of sum 1/(n+1)^2
    n = np.arange(1_000_000, dtype=float)
    direct = np.sum(1.0 / (n + 1.0) ** 2)
    # the truncated series undershoots by ~1/N; compare against pi^2/6 instead
    assert abs(polygamma(1, 1.0) - math.pi**2 / 6) < 1e-12
    assert abs(direct - math.pi**2 / 6) < 2e-6


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_polygamma_recursion(k):
    rng = np.random.default_rng(5)
    for z in rng.uniform(0.05, 8.0, size=25):
        lhs = polygamma(k, z + 1.0) - polygamma(k, z)
        rhs = -((-1.0) ** (k + 1)) * math.factorial(k) / z ** (k + 1)
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_polygamma_matches_scipy(k):
    xs = np.linspace(0.1, 30.0, 113)
    ours = np.array([polygamma(k, x) for x in xs])
    ref = sps.polygamma(k, xs)
    assert np.max(np.abs(ours - ref) / (1.0 + np.abs(ref))) < 1e-12


def test_polygamma_direct_series_grid():
    # 1e6-term direct series for Psi_k, k >= 1, on x in {0.1, ..., 5}
    n = np.arange(1_000_000, dtype=float)
    for k in (1, 2):
        for x in np.arange(0.1, 5.05, 0.35):
            direct = ((-1.0) ** (k + 1)) * math.factorial(k) * np.sum(1.0 / (n + x) ** (k + 1))
            # truncation of the direct series is O(N^-k); bound accordingly
            trunc = math.factorial(k) / 1e6**k
            assert abs(polygamma(k, x) - direct) <= 1e-10 + 2 * trunc


def test_polygamma_rejects_bad_input():
    with pytest.raises(ValueError):
        polygamma(1, -0.5)
    with pytest.raises(ValueError):
        polygamma(-1, 0.5)


def test_digamma_shift():
    assert abs(digamma(2.0) - digamma(1.0) - 1.0) < 1e-13


def test_log_gamma_matches_scipy_complex_grid():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-50, 50, size=(400, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    # stay off the cut and away from poles
    z = z[np.abs(z.imag) > 1e-3]
    ours = log_gamma(z)
    ref = sps.loggamma(z)
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_log_gamma_exp_recovers_gamma_near_cut():
    # exp(log_gamma) must equal Gamma even when evaluated at negative reals
    for x in (-0.3, -1.7, -4.2):
        ours = np.exp(log_gamma(x + 0j))
        assert abs(ours - sps.gamma(x)) < 1e-10 * (1 + abs(sps.gamma(x)))


def test_log_gamma_continuity_on_vertical_line():
    ts = np.linspace(-30, 30, 3001)
    vals = log_gamma(0.4 + 1j * ts)
    steps = np.abs(np.diff(vals))
    assert steps.max() < 0.2  # no branch jumps of ~2*pi


def test_airy_matches_scipy():
    # working range for the Fredholm determinants is [-6, inf)
    xs = np.concatenate([np.linspace(-6.0, 5.8, 311), np.linspace(5.8, 40.0, 101)])
    ours_ai = np.array([airy_ai(x) for x in xs])
    ours_aip = np.array([airy_ai_prime(x) for x in xs])
    ref = sps.airy(xs)
    assert np.max(np.abs(ours_ai - ref[0])) < 2e-12
    assert np.max(np.abs(ours_aip - ref[1])) < 2e-12
    # degraded but still usable down to -8.5
    xs = np.linspace(-8.5, -6.0, 57)
    ours_ai = np.array([airy_ai(x) for x in xs])
    assert np.max(np.abs(ours_ai - sps.airy(xs)[0])) < 1e-9


def test_airy_wronskian():
    # Ai(x)Bi'(x) - Ai'(x)Bi(x) = 1/pi; use scipy Bi as the partner
    for x in (-5.0, -1.0, 0.0, 2.0, 4.0):
        _, _, bi, bip = sps.airy(x)
        w = airy_ai(x) * bip - airy_ai_prime(x) * bi
        assert abs(w - 1.0 / math.pi) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-9.0, 40.0), min_size=1, max_size=40))
def test_airy_array_equals_per_element_calls(values):
    xs = np.array(values)
    ai, aip = _airy(xs)
    assert ai.tolist() == [airy_ai(x) for x in values]
    assert aip.tolist() == [airy_ai_prime(x) for x in values]


def test_airy_shapes_and_scalars():
    for x in (1.0, np.float64(7.0), np.array(1.5)):
        assert isinstance(airy_ai(x), float) and isinstance(airy_ai_prime(x), float)
    for x in (np.linspace(-3.0, 9.0, 7), np.linspace(-3.0, 9.0, 12).reshape(3, 4)):
        ai, aip = airy_ai(x), airy_ai_prime(x)
        assert ai.shape == aip.shape == x.shape
        assert ai.ravel().tolist() == [airy_ai(v) for v in x.ravel()]


def test_airy_rejects_any_element_below_minus_nine():
    with pytest.raises(ValueError):
        airy_ai(-9.5)
    with pytest.raises(ValueError):
        _airy(np.array([0.0, 3.0, -9.0 - 1e-12, 20.0]))
    assert np.isfinite(airy_ai_prime(np.array([-9.0, 0.0]))).all()


def test_airy_at_zero_and_across_the_crossover():
    ai, aip = _airy(np.array([0.0, -0.0]))
    assert ai.tolist() == [_AI0, _AI0] and aip.tolist() == [_AIP0, _AIP0]
    below, above = np.nextafter(_CROSSOVER, -np.inf), np.nextafter(_CROSSOVER, np.inf)
    xs = np.array([below, _CROSSOVER, above])
    ai, aip = _airy(xs)
    # 5.8 itself takes the Maclaurin series, the next float up the asymptotic one
    series, asym = _airy_series(xs[:2]), _airy_asymptotic_pos(xs[2:])
    assert ai.tolist() == [*series[0], *asym[0]] and aip.tolist() == [*series[1], *asym[1]]
    ref = sps.airy(xs)
    assert np.max(np.abs(ai[:2] - ref[0][:2])) < 2e-12 and np.max(np.abs(aip[:2] - ref[1][:2])) < 2e-12
    assert abs(ai[2] - ref[0][2]) < 1e-10 and abs(aip[2] - ref[1][2]) < 1e-10


def test_airy_asymptotic_series_stops_at_smallest_term():
    # just above the crossover the asymptotic series is still short of 1e-18 at its smallest term
    xs = np.linspace(_CROSSOVER, 6.2, 401)[1:]
    ai, aip = _airy(xs)
    ref = sps.airy(xs)
    assert np.max(np.abs(ai - ref[0])) < 2e-12
    assert np.max(np.abs(aip - ref[1])) < 2e-12
