import math

import numpy as np
import pytest

from qhahn_polymer.asymptotics import (
    FreqModel,
    HFunction,
    check_steep_descent,
    h_checks,
    scheduled_polymer_model,
    slot_centering_correction,
    solve_theta,
    theta_constants,
    tw_experiment,
)
from qhahn_polymer.specfun import log_gamma, polygamma


def general_model():
    return FreqModel(
        sigma=(0.0, 0.15), alpha=(0.6, 0.4),
        rho=(-1.0, -1.2), beta=(0.5, 0.5),
        omega=(-2.0, -2.5), gamma=(0.7, 0.3),
    )


def assumption_model():
    return FreqModel(
        sigma=(0.0,), alpha=(1.0,),
        rho=(-1.0,), beta=(1.0,),
        omega=(-1.5, -3.0), gamma=(0.5, 0.5),
    )


def test_theta_constants_homogeneous_closed_form():
    fm = FreqModel.homogeneous()
    for theta in (0.3, 0.7, 1.4):
        tc = theta_constants(fm, theta)
        assert abs(tc.x - 1.0 / (theta + 1.0) ** 2) < 1e-12
        assert abs(tc.y - (1.0 / theta**2 + 1.0 / (theta + 1.0) ** 2)) < 1e-12
        assert tc.c > 0


def test_c_cubed_positive_on_grid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = sorted(rng.uniform(-0.3, 0.3, size=2))
        r = sorted(rng.uniform(-1.5, -0.8, size=2))
        w = sorted(rng.uniform(-3.5, -2.0, size=2))
        a = rng.uniform(0.2, 0.8)
        b = rng.uniform(0.2, 0.8)
        g = rng.uniform(0.2, 0.8)
        fm = FreqModel(tuple(s), (a, 1 - a), tuple(r), (b, 1 - b), tuple(w), (g, 1 - g))
        theta = max(s) + rng.uniform(0.05, 2.0)
        assert theta_constants(fm, theta).c > 0


def test_slope_strictly_increasing_and_bisection():
    fm = general_model()
    thetas = np.linspace(0.25, 3.0, 40)
    slopes = [theta_constants(fm, t).slope for t in thetas]
    assert (np.diff(slopes) > 0).all()
    target = 0.4 * slopes[0] + 0.6 * slopes[-1]
    th = solve_theta(fm, target)
    assert abs(theta_constants(fm, th).slope - target) < 1e-9


def test_h_checks_general_models():
    rng = np.random.default_rng(11)
    for _ in range(6):
        s = sorted(rng.uniform(-0.2, 0.2, size=2))
        r = sorted(rng.uniform(-1.4, -0.9, size=2))
        w = sorted(rng.uniform(-3.0, -1.9, size=2))
        a = rng.uniform(0.3, 0.7)
        fm = FreqModel(tuple(s), (a, 1 - a), tuple(r), (0.5, 0.5), tuple(w), (0.4, 0.6))
        theta = max(s) + rng.uniform(0.2, 1.0)
        hf = HFunction(fm, theta_constants(fm, theta))
        rep = h_checks(hf)
        assert rep["ok"], rep


def test_scheduled_h_converges_at_rate():
    fm = assumption_model()
    hf = HFunction(fm, theta_constants(fm, 0.3))
    z = 0.45 + 0.2j
    errs = []
    for t in (64, 128, 256):
        errs.append(abs(hf.h_scheduled(z, t) - hf.h(z)))
    assert errs[0] * 64 < 20 * (errs[2] * 256 + 1e-12) or errs[2] < errs[0]
    assert errs[2] < 0.05


def test_line_descent_general_model():
    fm = general_model()
    hf = HFunction(fm, theta_constants(fm, 0.8))
    ok, (bs, prof) = check_steep_descent(hf, "line", grid=200)
    assert ok
    assert prof[0] > prof[-1]


def test_circle_and_arc_descent_under_assumption():
    fm = assumption_model()
    hf = HFunction(fm, theta_constants(fm, 0.3))
    ok_c, (phis, prof_c) = check_steep_descent(hf, "circle", grid=200)
    assert ok_c
    ok_a, (_, prof_a) = check_steep_descent(hf, "arcs", grid=200, eps=0.05)
    assert ok_a
    assert prof_a.min() > 0


def test_circle_requires_assumption():
    fm = general_model()
    hf = HFunction(fm, theta_constants(fm, 0.8))
    with pytest.raises(ValueError):
        check_steep_descent(hf, "circle")


def test_tw_experiment_smoke_and_shapes():
    fm = FreqModel.homogeneous(omega=-2.0)
    batches = tw_experiment(fm, 0.3, [16], 300, seed=1)
    (b,) = batches
    assert b.regime == "proven"
    assert b.samples.shape == (300,)
    assert 0 <= b.ks <= 1
    # rescaled samples should be in the Tracy-Widom bulk at this small t
    assert -6 < b.mean < 2


def test_tw_experiment_rejects_tiny_sample():
    fm = FreqModel.homogeneous()
    with pytest.raises(ValueError):
        tw_experiment(fm, 0.3, [16], 50)


@pytest.mark.parametrize("t_list", [[0], [16, -5]])
def test_tw_experiment_rejects_t_below_one(t_list, monkeypatch):
    import qhahn_polymer.asymptotics as asy

    def no_model(*args, **kwargs):
        raise AssertionError("scheduled model built before t was checked")

    monkeypatch.setattr(asy, "scheduled_polymer_model", no_model)
    with pytest.raises(ValueError, match="t >= 1"):
        tw_experiment(FreqModel.homogeneous(), 0.3, t_list, 100)


def test_tw_experiment_samples_independent_of_workers():
    # 600 replicas are three blocks; each block's stream is fixed by (seed + t, block index)
    fm = FreqModel.homogeneous(omega=-2.0)
    (one,) = tw_experiment(fm, 0.3, [16], 600, seed=0, workers=1)
    (two,) = tw_experiment(fm, 0.3, [16], 600, seed=0, workers=2)
    assert np.array_equal(one.samples, two.samples)
    assert one.ks == two.ks


def _signed_slots(model):
    """(value, sign) for every scheduled slot: +1 on sigma and omega, -1 on rho, as in log g."""
    return ([(v, 1) for v in model.sigma_list] + [(v, -1) for v in model.rho_list]
            + [(v, 1) for v in model.omega_list])


@pytest.mark.parametrize("fm, theta", [(FreqModel.homogeneous(), 0.3), (general_model(), 0.8)])
def test_slot_correction_matches_per_slot_sum(fm, theta):
    const = theta_constants(fm, theta)
    for t in (32, 64, 96, 256):
        model = scheduled_polymer_model(fm, const, t)[0]
        per_slot = math.fsum(sign * polygamma(0, theta - v) for v, sign in _signed_slots(model))
        assert abs(slot_centering_correction(const, model, t) - (per_slot - const.rate * t)) < 1e-10


def test_scheduled_h_matches_per_slot_sum():
    fm = assumption_model()
    hf = HFunction(fm, theta_constants(fm, 0.3))
    z = 0.45 + 0.2j
    for t in (64, 128, 256):
        vals, signs = np.array(_signed_slots(scheduled_polymer_model(fm, hf.const, t)[0])).T
        per_slot = hf.const.rate * z - np.sum(signs * log_gamma(z - vals)) / t
        assert abs(hf.h_scheduled(z, t) - per_slot) < 1e-12


def test_theta_constants_pinned():
    # rate and c from the separate psi_0 and psi_2 sums over sigma, rho and omega
    for fm, theta, rate, c in ((FreqModel.homogeneous(), 0.3, 6.574621959237353, 2.5641025641025634),
                               (general_model(), 0.8, 0.6487809531762221, 0.7775329956171583)):
        tc = theta_constants(fm, theta)
        assert abs(tc.rate - rate) < 1e-14 and abs(tc.c - c) < 1e-14


def test_tw_experiment_pinned_with_slot_correction():
    (b,) = tw_experiment(FreqModel.homogeneous(), 0.3, [32], 300, seed=5)
    assert abs(b.ks - 0.10473381084015271) < 1e-12
    pinned = [-2.4285935318162752, -2.0926360912492115, -3.4343233771178, -2.6074582748656585, -3.09652291297385]
    assert np.abs(b.samples[:5] - pinned).max() < 1e-12
