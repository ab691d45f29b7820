import numpy as np
import pytest

from qhahn_polymer.asymptotics import (
    FreqModel,
    HFunction,
    check_steep_descent,
    h_checks,
    solve_theta,
    theta_constants,
    tw_experiment,
)


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


def test_tw_experiment_samples_independent_of_workers():
    # 600 replicas are three blocks; each block's stream is fixed by (seed + t, block index)
    fm = FreqModel.homogeneous(omega=-2.0)
    (one,) = tw_experiment(fm, 0.3, [16], 600, seed=0, workers=1)
    (two,) = tw_experiment(fm, 0.3, [16], 600, seed=0, workers=2)
    assert np.array_equal(one.samples, two.samples)
    assert one.ks == two.ks
