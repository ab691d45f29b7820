"""Critical-point parametrization and the Tracy-Widom limit experiment.

A frequency model fixes finitely many parameter values with weights; the
auxiliary parameter theta > max sigma determines the slope, the linear rate,
and the t^{1/3} fluctuation scale through polygamma evaluations.  The steep
descent of the saddle-point function h along the vertical line and (under the
restricted assumption) along the circle |z| = theta is checked numerically,
and the rescaled log partition function is compared against the Tracy-Widom
GUE law by Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fredholm import ks_distance_to_F2
from .polymer import PolymerModel, _replica_blocks, sample_log_partition, schedule_values
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


def theta_constants(fm, theta):
    if theta <= max(fm.sigma):
        raise ValueError("need theta > max sigma")
    psi1 = lambda z: polygamma(1, z)
    psi0 = lambda z: polygamma(0, z)
    psi2 = lambda z: polygamma(2, z)
    x = _weighted(psi1, fm.rho, fm.beta, theta) - _weighted(psi1, fm.omega, fm.gamma, theta)
    y = _weighted(psi1, fm.sigma, fm.alpha, theta) - _weighted(psi1, fm.omega, fm.gamma, theta)
    rate = (
        x * _weighted(psi0, fm.sigma, fm.alpha, theta)
        - y * _weighted(psi0, fm.rho, fm.beta, theta)
        + (y - x) * _weighted(psi0, fm.omega, fm.gamma, theta)
    )
    c3 = (
        -x / 2.0 * _weighted(psi2, fm.sigma, fm.alpha, theta)
        + y / 2.0 * _weighted(psi2, fm.rho, fm.beta, theta)
        - (y - x) / 2.0 * _weighted(psi2, fm.omega, fm.gamma, theta)
    )
    if c3 <= 0:
        raise ValueError("c^3 <= 0: inconsistent parametrization")
    return ThetaConstants(theta=theta, x=x, y=y, rate=rate, c=c3 ** (1.0 / 3.0))


def solve_theta(fm, slope, lo=None, hi=50.0, tol=1e-10):
    """Invert the strictly increasing slope map theta -> x/y by bisection."""
    lo = max(fm.sigma) + 1e-6 if lo is None else lo
    flo = theta_constants(fm, lo).slope - slope
    fhi = theta_constants(fm, hi).slope - slope
    if flo > 0 or fhi < 0:
        raise ValueError("slope outside the attainable range")
    while hi - lo > tol:
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

    def h(self, z):
        z = np.asarray(z, dtype=complex)
        tc = self.const
        out = tc.rate * z
        for s, a in zip(self.fm.sigma, self.fm.alpha):
            out = out - tc.x * a * log_gamma(z - s)
        for r, b in zip(self.fm.rho, self.fm.beta):
            out = out + tc.y * b * log_gamma(z - r)
        for w, g in zip(self.fm.omega, self.fm.gamma):
            out = out - (tc.y - tc.x) * g * log_gamma(z - w)
        return out

    def h_scheduled(self, z, t):
        """h^[t]: empirical frequencies from the deterministic schedules."""
        tc = self.const
        X = math.floor(tc.x * t)
        Y = math.floor(tc.y * t)
        sig = schedule_values(self.fm.sigma, self.fm.alpha, X + 1)
        rho = schedule_values(self.fm.rho, self.fm.beta, Y)
        ome = schedule_values(self.fm.omega, self.fm.gamma, Y - X)
        z = np.asarray(z, dtype=complex)
        out = tc.rate * z
        for s in sig:
            out = out - log_gamma(z - s) / t
        for r in rho:
            out = out + log_gamma(z - r) / t
        for w in ome:
            out = out - log_gamma(z - w) / t
        return out

    def h_real(self, u):
        """Real-axis evaluation via math.lgamma (machine accurate, for FD checks)."""
        tc = self.const
        out = tc.rate * u
        for s, a in zip(self.fm.sigma, self.fm.alpha):
            out -= tc.x * a * math.lgamma(u - s)
        for r, b in zip(self.fm.rho, self.fm.beta):
            out += tc.y * b * math.lgamma(u - r)
        for w, g in zip(self.fm.omega, self.fm.gamma):
            out -= (tc.y - tc.x) * g * math.lgamma(u - w)
        return out


def h_checks(hf, step=None):
    """Finite-difference verification of the critical-point structure."""
    th = hf.const.theta
    d = 1e-4 * (1.0 + abs(th)) if step is None else step
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


def check_steep_descent(hf, which, grid=200, b_max=10.0, eps=0.05):
    """Sampled monotonicity/positivity profiles for the descent contours."""
    th = hf.const.theta
    if which == "line":
        bs = np.linspace(b_max / grid, b_max, grid)
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


@dataclass
class TWBatch:
    t: int
    ks: float
    mean: float
    sd: float
    samples: np.ndarray
    regime: str


def scheduled_polymer_model(fm, const, t):
    X = math.floor(const.x * t)
    Y = math.floor(const.y * t)
    return (
        PolymerModel(
            schedule_values(fm.sigma, fm.alpha, X + 1),
            schedule_values(fm.rho, fm.beta, Y),
            schedule_values(fm.omega, fm.gamma, Y - X),
        ),
        X,
        Y,
    )


def slot_centering_correction(fm, const, model, t):
    """First-order finite-size centering shift from the scheduled slot counts.

    The scheduled saddle function differs from its limit by O(1/t); its slope
    mismatch at theta tilts the kernel exactly like a shift of the rescaled
    variable by D/(c t^{1/3}) with

        D = [sum_slots Psi(th - sg~) - x t E_alpha Psi(th - sg)]
          - [sum_slots Psi(th - rh~) - y t E_beta Psi(th - rh)]
          + [sum_slots Psi(th - om~) - (y-x) t E_gamma Psi(th - om)].

    Subtracting D from ln Z + I t removes the dominant oscillating-in-t bias;
    D stays O(1), so the corrected and plain rescalings share the same limit.
    """
    th = const.theta
    psi = lambda v: polygamma(0, th - v)
    D = sum(psi(s) for s in model.sigma_list) - const.x * t * sum(
        a * psi(s) for s, a in zip(fm.sigma, fm.alpha)
    )
    D -= sum(psi(r) for r in model.rho_list) - const.y * t * sum(
        b * psi(r) for r, b in zip(fm.rho, fm.beta)
    )
    D += sum(psi(w) for w in model.omega_list) - (const.y - const.x) * t * sum(
        g * psi(w) for w, g in zip(fm.omega, fm.gamma)
    )
    return D


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
    for t in t_list:
        model, X, Y = scheduled_polymer_model(fm, const, t)
        if X < 1 or Y <= X:
            raise ValueError(f"t={t} too small for the slope")
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                mapper = partial(pool.map, chunksize=max(1, samples // (4 * workers * _TW_BLOCK)))
                logz = _replica_blocks(model, 0, X, Y, samples, None, seed + t, _TW_BLOCK,
                                       want_log=True, mapper=mapper)
        else:
            logz = sample_log_partition(model, 0, X, Y, samples, seed=seed + t, block=_TW_BLOCK)
        shift = slot_centering_correction(fm, const, model, t) if slot_correction else 0.0
        rescaled = (logz + const.rate * t - shift) / (const.c * t ** (1.0 / 3.0))
        out.append(
            TWBatch(
                t=t,
                ks=ks_distance_to_F2(rescaled),
                mean=float(rescaled.mean()),
                sd=float(rescaled.std(ddof=1)),
                samples=rescaled,
                regime=regime,
            )
        )
    return out
