"""Critical-point parametrization and the Tracy-Widom limit experiment.

A frequency model fixes finitely many parameter values with weights; the
auxiliary parameter theta > max sigma determines the slope, the linear rate,
and the t^{1/3} fluctuation scale through polygamma evaluations.  All of
them come from one saddle-point function, a weighted log-gamma sum

    h(z) = I z + sum w log Gamma(z - v),

with weight -x alpha at each sigma, +y beta at each rho and -(y - x) gamma at
each omega: x and y are trigamma sums, h'(theta) = 0 fixes the rate I and
h'''(theta) = 2 c^3 the scale c.  At finite t the weights become the
scheduled slots, h^[t](z) = I z - log g(z) / t with g the polymer's gamma
product (``GFunction``), and the slope mismatch at theta gives the centering
shift D = t (h'(theta) - h^[t]'(theta)) = (log g)'(theta) - I t.  The steep
descent of h along the vertical line and (under the restricted assumption)
along the circle |z| = theta is checked numerically, and the rescaled log
partition function is compared against the Tracy-Widom GUE law by
Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fredholm import ks_distance_to_F2
from .moments import GFunction
from .polymer import PolymerModel, _replica_blocks, schedule_values
from .specfun import log_gamma, polygamma

__all__ = [
    "FreqModel",
    "ThetaConstants",
    "HFunction",
    "theta_constants",
    "solve_theta",
    "h_checks",
    "check_steep_descent",
    "tw_experiment",
    "TWBatch",
]


@dataclass(frozen=True)
class FreqModel:
    sigma: tuple
    alpha: tuple
    rho: tuple
    beta: tuple
    omega: tuple
    gamma: tuple

    def __post_init__(self):
        for vals, freqs, name in (
            (self.sigma, self.alpha, "alpha"),
            (self.rho, self.beta, "beta"),
            (self.omega, self.gamma, "gamma"),
        ):
            if len(vals) != len(freqs):
                raise ValueError(f"{name}: values and frequencies differ in length")
            if abs(sum(freqs) - 1.0) > 1e-12 or any(f < 0 for f in freqs):
                raise ValueError(f"{name}: frequencies must be nonnegative and sum to 1")
        if not (max(self.omega) < min(self.rho) and max(self.rho) < min(self.sigma)):
            raise ValueError("need omega < rho < sigma across all values")

    @classmethod
    def homogeneous(cls, sigma=0.0, rho=-1.0, omega=-2.0):
        return cls((sigma,), (1.0,), (rho,), (1.0,), (omega,), (1.0,))

    def satisfies_assumption(self, theta):
        return (
            all(s == 0.0 for s in self.sigma)
            and all(r == -1.0 for r in self.rho)
            and all(w < -1.0 for w in self.omega)
            and 0.0 < theta < 0.5
        )


@dataclass(frozen=True)
class ThetaConstants:
    theta: float
    x: float
    y: float
    rate: float  # the linear centering rate I
    c: float  # fluctuation scale, positive cube root

    @property
    def slope(self):
        return self.x / self.y


def _weighted(fun, values, freqs, theta):
    return sum(f * fun(theta - v) for v, f in zip(values, freqs))


def _atoms(fm, x, y):
    """The log-gamma terms of h as (v, w): h(z) = I z + sum w log Gamma(z - v)."""
    return ([(s, -x * a) for s, a in zip(fm.sigma, fm.alpha)]
            + [(r, y * b) for r, b in zip(fm.rho, fm.beta)]
            + [(w, -(y - x) * g) for w, g in zip(fm.omega, fm.gamma)])


def theta_constants(fm, theta):
    """x and y from trigamma sums, then I from h'(theta) = 0 and c from h'''(theta) = 2 c^3."""
    if theta <= max(fm.sigma):
        raise ValueError("need theta > max sigma")
    psi1 = lambda z: polygamma(1, z)
    x = _weighted(psi1, fm.rho, fm.beta, theta) - _weighted(psi1, fm.omega, fm.gamma, theta)
    y = _weighted(psi1, fm.sigma, fm.alpha, theta) - _weighted(psi1, fm.omega, fm.gamma, theta)
    atoms = _atoms(fm, x, y)
    rate = -sum(w * polygamma(0, theta - v) for v, w in atoms)
    c3 = 0.5 * sum(w * polygamma(2, theta - v) for v, w in atoms)
    if c3 <= 0:
        raise ValueError("c^3 <= 0: inconsistent parametrization")
    return ThetaConstants(theta=theta, x=x, y=y, rate=rate, c=c3 ** (1.0 / 3.0))


# solve_theta's bisection bracket (max sigma + _THETA_GAP, _THETA_HI) and its stopping width
_THETA_GAP = 1e-6
_THETA_HI = 50.0
_THETA_TOL = 1e-10


def solve_theta(fm, slope):
    """Invert the strictly increasing slope map theta -> x/y by bisection."""
    lo, hi = max(fm.sigma) + _THETA_GAP, _THETA_HI
    flo = theta_constants(fm, lo).slope - slope
    fhi = theta_constants(fm, hi).slope - slope
    if flo > 0 or fhi < 0:
        raise ValueError("slope outside the attainable range")
    while hi - lo > _THETA_TOL:
        mid = 0.5 * (lo + hi)
        if theta_constants(fm, mid).slope - slope <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class HFunction:
    fm: FreqModel
    const: ThetaConstants

    @property
    def atoms(self):
        """The (v, w) terms of h at these constants."""
        return _atoms(self.fm, self.const.x, self.const.y)

    def h(self, z):
        z = np.asarray(z, dtype=complex)
        return sum((w * log_gamma(z - v) for v, w in self.atoms), self.const.rate * z)

    def h_scheduled(self, z, t):
        """h^[t] = I z - log g(z) / t, g the gamma product of the scheduled slots."""
        model, X, Y = scheduled_polymer_model(self.fm, self.const, t)
        return self.const.rate * np.asarray(z, dtype=complex) - GFunction(model, X, Y).log_g(z) / t

    def h_real(self, u):
        """Real-axis evaluation via math.lgamma (machine accurate, for FD checks)."""
        return sum((w * math.lgamma(u - v) for v, w in self.atoms), self.const.rate * u)


def h_checks(hf):
    """Finite-difference verification of the critical-point structure."""
    th = hf.const.theta
    d = 1e-4 * (1.0 + abs(th))
    h = hf.h_real
    h0 = h(th)
    d1 = (h(th + d) - h(th - d)) / (2 * d)
    d2 = (h(th + d) - 2 * h0 + h(th - d)) / d**2
    D = 2e-2 * (1.0 + abs(th))
    d3 = (h(th + 2 * D) - 2 * h(th + D) + 2 * h(th - D) - h(th - 2 * D)) / (2 * D**3)
    d4 = (h(th + 2 * D) - 4 * h(th + D) + 6 * h0 - 4 * h(th - D) + h(th - 2 * D)) / D**4
    cubic = {}
    for dd in (1e-2, 5e-3):
        cubic[dd] = (h(th + dd) - h0) / dd**3
    target = hf.const.c**3 / 3.0
    # FD truncation for the first two derivatives is driven by |h'''|, |h''''|
    tol1 = max(1e-7, abs(d3) * d**2)
    tol2 = max(1e-7, 3.0 * abs(d4) * d**2, 40.0 * np.finfo(float).eps * abs(h0) / d**2)
    return {
        "h1": d1,
        "h2": d2,
        "h3": d3,
        "h4": d4,
        "tol1": tol1,
        "tol2": tol2,
        "cubic_ratios": cubic,
        "cubic_target": target,
        "ok": (
            abs(d1) < tol1
            and abs(d2) < tol2
            and d3 > 0
            and d4 < 0
            and all(abs(v / target - 1.0) < 0.05 for v in cubic.values())
        ),
    }


def _arc_start_angle(theta, eps):
    """arg(v_eps - theta) for the circle-crossing point with positive imaginary part."""
    re = -eps / (2.0 * theta)
    im = math.sqrt(max(0.0, 1.0 - eps**2 / (4.0 * theta**2)))
    return math.atan2(im, re)


# the vertical line is sampled at theta + i b for 0 < b <= _LINE_B_MAX
_LINE_B_MAX = 10.0


def check_steep_descent(hf, which, grid=200, eps=0.05):
    """Sampled monotonicity/positivity profiles for the descent contours."""
    th = hf.const.theta
    if which == "line":
        bs = np.linspace(_LINE_B_MAX / grid, _LINE_B_MAX, grid)
        prof = hf.h(th + 1j * bs).real
        ok = bool((np.diff(prof) < 0).all())
        return ok, (bs, prof)
    if which in ("circle", "arcs") and not hf.fm.satisfies_assumption(th):
        raise ValueError("circle/arc checks require the restricted parameter assumption")
    if which == "circle":
        phis = np.linspace(math.pi / grid, math.pi, grid)
        prof = hf.h(th * np.exp(1j * phis)).real
        ok = bool((np.diff(prof) > 0).all())
        return ok, (phis, prof)
    if which == "arcs":
        start = _arc_start_angle(th, eps)
        phis = np.linspace(start, 2.0 * math.pi / 3.0, grid)
        h0 = hf.h_real(th)
        prof_plus = hf.h(th + eps * np.exp(1j * phis)).real - h0
        prof_minus = hf.h(th + eps * np.exp(-1j * phis)).real - h0
        ok = bool(prof_plus.min() > 0 and prof_minus.min() > 0)
        return ok, (phis, np.minimum(prof_plus, prof_minus))
    raise ValueError("which must be 'line', 'circle', or 'arcs'")


# ---------------------------------------------------------------------------
# Tracy-Widom experiment.


# replicas per block: block i of time t draws from spawn_rng(seed + t, i), so the
# samples do not depend on the worker count
_TW_BLOCK = 256


# sqrt(n) times the KS distance of n exact draws tends to the Kolmogorov law:
# its mean sqrt(pi/2) ln 2 and its 95% point
_KS_NULL_MEAN = 0.8687
_KS_NULL_95 = 1.3581


@dataclass
class TWBatch:
    t: int
    ks: float
    mean: float
    sd: float
    samples: np.ndarray
    regime: str

    @property
    def n(self):
        return self.samples.size

    @property
    def ks_null_mean(self):
        """Mean KS distance of n exact F2 draws: the scale of ``ks``."""
        return _KS_NULL_MEAN / math.sqrt(self.n)

    @property
    def ks_null_95(self):
        """95% point of the KS distance of n exact F2 draws."""
        return _KS_NULL_95 / math.sqrt(self.n)


def scheduled_polymer_model(fm, const, t):
    """The polymer of time t with its corner (X, Y) = (floor(x t), floor(y t))."""
    X, Y = math.floor(const.x * t), math.floor(const.y * t)
    model = PolymerModel(schedule_values(fm.sigma, fm.alpha, X + 1), schedule_values(fm.rho, fm.beta, Y),
                         schedule_values(fm.omega, fm.gamma, Y - X))
    return model, X, Y


def slot_centering_correction(const, model, t):
    """First-order finite-size centering shift D = (log g)'(theta) - I t.

    ``model`` is the scheduled polymer of time t (``scheduled_polymer_model``).
    The scheduled saddle function differs from its limit by O(1/t); its slope
    mismatch at theta tilts the kernel exactly like a shift of the rescaled
    variable by D/(c t^{1/3}), with D = t (h'(theta) - h^[t]'(theta)).
    Subtracting D from ln Z + I t removes the dominant oscillating-in-t bias;
    D stays O(1), so the corrected and plain rescalings share the same limit.
    """
    gf = GFunction(model, len(model.sigma_list) - 1, len(model.rho_list))
    return gf.dlog_g(const.theta) - const.rate * t


def tw_experiment(fm, theta, t_list, samples, seed=0, workers=1, slot_correction=True):
    """Rescaled log-partition samples per t with their KS distance to F_2.

    ``slot_correction`` subtracts the O(1) scheduled-slot centering shift
    (see :func:`slot_centering_correction`); disable it for the plain
    (ln Z + I t)/(c t^{1/3}) rescaling.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples per t")
    const = theta_constants(fm, theta)
    regime = "proven" if fm.satisfies_assumption(theta) else "conjectural"
    out = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for t in t_list:
            model, X, Y = scheduled_polymer_model(fm, const, t)
            if X < 1 or Y <= X:
                raise ValueError(f"t={t} too small for the slope")
            mapper = map if pool is None else partial(
                pool.map, chunksize=max(1, samples // (4 * workers * _TW_BLOCK)))
            logz = _replica_blocks(model, 0, X, Y, samples, seed + t, _TW_BLOCK,
                                   want_log=True, mapper=mapper)
            shift = slot_centering_correction(const, model, t) if slot_correction else 0.0
            rescaled = (logz + const.rate * t - shift) / (const.c * t ** (1.0 / 3.0))
            out.append(TWBatch(t=t, ks=ks_distance_to_F2(rescaled), mean=float(rescaled.mean()),
                               sd=float(rescaled.std(ddof=1)), samples=rescaled, regime=regime))
    return out
