import math
import tracemalloc

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
    log_gamma_shifts,
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


# log_gamma on a grid through the negative real axis, including 1e-9 above and
# below it, as computed by the earlier one-step-at-a-time shift loop
_FROZEN_RE = (-20.7, -7.25, -3.5, -0.5, 0.1, 0.9, 2.5, 9.7, 17.9, 25.0)
_FROZEN_IM = (-40.0, -3.1, -1e-9, 0.0, 1e-9, 0.7, 12.5)
_FROZEN_LOG_GAMMA = [
    complex(-141.03523843998295, -68.87436650121495), complex(-52.137049646661275, 57.123102016758736),
    complex(-43.10513318953622, 65.97344572461407), complex(-43.10513318953622, -65.97344572538569),
    complex(-43.10513318953622, -65.97344572461407), complex(-44.815345170572904, -64.45211915791405),
    complex(-78.39758844839247, -27.76671474023142), complex(-90.54948721822866, -94.63635751471105),
    complex(-16.33054294592469, 17.918669694397167), complex(-7.541883443475761, 25.132741223528367),
    complex(-7.541883443475761, -25.132741228718345), complex(-7.541883443475761, -25.132741223528367),
    complex(-9.362973538756854, -22.924826772355615), complex(-38.73677452806861, 4.632045048239391),
    complex(-76.67497597006141, -101.07335625337305), complex(-9.25558821216626, 7.997480492864581),
    complex(-1.309006684993058, 12.566370612970301), complex(-1.309006684993058, -12.566370614359172),
    complex(-1.309006684993058, -12.566370612970301), complex(-2.7665606339833673, -11.59067277654329),
    complex(-28.884227729161424, 12.161945450905023), complex(-65.60187211160225, -105.97292419339482),
    complex(-5.094773165903916, 1.309837512471388), complex(1.2655121234846334, 3.141592653553304),
    complex(1.2655121234846334, -3.141592653589793), complex(1.2655121234846334, -3.141592653553304),
    complex(-0.0361783862492544, -3.072926238524042), complex(-21.242543556721643, 17.464167620244645),
    complex(-63.388462569939016, -106.92590126764404), complex(-4.402457846768712, 0.23341058618277088),
    complex(2.252712651734221, 1.0423754940411076e-08), complex(2.252712651734221, 0.0),
    complex(2.252712651734221, -1.0423754940411076e-08), complex(-0.01807028287326773, -1.6363028248511369),
    complex(-19.726268578145703, 18.440221777757543), complex(-60.43736650724337, -108.18253832907999),
    complex(-3.4986023101395602, -1.0232264732110057), complex(0.06637623973473694, 7.549269499470504e-10),
    complex(0.06637623973473694, 0.0), complex(0.06637623973473694, -7.549269499470504e-10),
    complex(-0.33319415671558517, -0.3869675144446334), complex(-17.70576252531737, 19.696858839193467),
    complex(-54.53437488038796, -110.64783073708784), complex(-1.5697013005045903, -2.951890141832669),
    complex(0.2846828704729063, -7.031566406452433e-10), complex(0.2846828704729063, 0.0),
    complex(0.2846828704729063, 7.031566406452433e-10), complex(0.166695481166812, 0.5052935748792926),
    complex(-13.656610250082764, 22.057127674611), complex(-27.895593604539318, -120.95862979756757),
    complex(11.618722225394848, -6.937664480748608), complex(12.131084710789178, -2.219694753518864e-09),
    complex(12.131084710789178, 0.0), complex(12.131084710789178, 2.219694753518864e-09),
    complex(12.104505874120008, 1.5544585971803695), complex(5.241367528688112, 30.393392839322615),
    complex(2.7933391055339567, -131.21455015769152), complex(32.944492762404586, -8.871716754726078),
    complex(33.21912594632389, -2.8566077495699168e-09), complex(33.21912594632389, 0.0),
    complex(33.21912594632389, 2.8566077495699168e-09), complex(33.20505314703943, 1.9998139961539234),
    complex(29.053254751022955, 36.64738101240494), complex(29.849018814915745, -138.9475725480008),
    complex(54.58915372977995, -9.924330803878814), complex(54.78472939811231, -3.1987425128519743e-09),
    complex(54.78472939811231, 0.0), complex(54.78472939811231, 3.1987425128519743e-09),
    complex(54.774732144583716, 2.2392149341818204), complex(51.721976277444114, 40.48862821887416),
]


def test_log_gamma_matches_frozen_values():
    z = (np.array(_FROZEN_RE)[:, None] + 1j * np.array(_FROZEN_IM)[None, :]).ravel()
    ours, ref = log_gamma(z), np.array(_FROZEN_LOG_GAMMA)
    assert np.all(np.abs(ours - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_log_gamma_deep_left_half_plane_matches_scipy():
    # shifts of up to about 1000 columns, past the 256 where an older loop stopped
    rng = np.random.default_rng(12)
    re = np.concatenate([[-400.5, -1000.25, -999.5, -238.5, -239.5, -640.7], rng.uniform(-1000.0, -200.0, 40)])
    im = np.concatenate([[0.3, 1e-9, -1e-9, 2.0, -0.5, 300.0], rng.uniform(-50.0, 50.0, 40)])
    z = re + 1j * im
    ref = sps.loggamma(z)
    assert np.max(np.abs(log_gamma(z) - ref) / np.abs(ref)) < 1e-12


def test_log_gamma_work_memory_is_bounded():
    # one element 100,000 shifts deep and 2000 elements 1000 deep: whole 2-D work
    # arrays would take 0.8 MB and 16 MB each
    deep = -100000.5 + 0.25j
    z = np.concatenate([[deep], np.linspace(-1000.5, -990.5, 2000) + 0.25j])
    tracemalloc.start()
    try:
        vals = log_gamma(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert abs(vals[0] - sps.loggamma(deep)) < 1e-12 * abs(sps.loggamma(deep))


def test_log_gamma_elements_do_not_depend_on_the_array():
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.uniform(-80.0, 40.0, 60) + 1j * rng.uniform(-30.0, 30.0, 60),
                        [-3.5 + 1e-9j, -3.5 - 1e-9j, 0.5 + 0j, 30.0 + 2j, -700.3 + 0.1j, 3e9j - 5.0]])
    whole = log_gamma(z)
    assert all(log_gamma(zi) == whole[i] for i, zi in enumerate(z))
    assert np.array_equal(log_gamma(z.reshape(6, 11)), whole.reshape(6, 11))
    assert np.array_equal(log_gamma(z[::-1]), whole[::-1])


def test_log_gamma_scalar_and_empty():
    assert np.ndim(log_gamma(2.5)) == 0 and isinstance(log_gamma(2.5), complex)
    assert np.ndim(log_gamma(np.array(2.5 + 1j))) == 0
    empty = log_gamma(np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex
    with np.errstate(invalid="ignore"):
        assert np.isnan(log_gamma(np.array([-np.inf, np.nan]))).all()


def test_log_gamma_shifts_equals_one_call_per_shift():
    z = np.array([[0.3 + 0.2j, 1.7 - 4.0j], [-2.2 + 0.5j, 5.0 + 0j]])
    shifts = (1.25, -0.5, 3.0)
    stacked = log_gamma_shifts(z, shifts)
    assert stacked.shape == (3, 2, 2)
    for v, lg in zip(shifts, stacked):
        assert np.array_equal(lg, log_gamma(z - v))
    assert np.array_equal(log_gamma_shifts(0.3 + 0.2j, shifts), [log_gamma(0.3 + 0.2j - v) for v in shifts])


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
