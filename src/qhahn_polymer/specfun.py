"""Special functions: real polygamma, complex log-gamma, and the Airy function.

Polygamma values are computed from the defining series accelerated by the
downward recursion Psi_k(z) = Psi_k(z+1) + (-1)^{k+1} k!/z^{k+1} until the
argument is large, then a Bernoulli asymptotic expansion.  The complex
log-gamma is the analytic log-gamma (continuous off the cut (-inf, 0]): each
element is shifted up to Re z >= 10 by its own count in one vectorised pass,
with no cap on the depth, and the Stirling series is applied there.
The Airy function Ai and its derivative are evaluated together over whole
arrays (``_airy``): the Maclaurin series up to x = 5.8 and the asymptotic
series beyond it, on x >= -9.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["polygamma", "digamma", "log_gamma", "log_gamma_shifts", "airy_ai", "airy_ai_prime"]

# Bernoulli numbers B_2 .. B_16
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)

# polygamma recurses up to x >= _SHIFT_TARGET before its asymptotic expansion
_SHIFT_TARGET = 18.0
# Stirling coefficients B_2n / (2n (2n - 1)) of log_gamma, n = 1 .. 8
_STIRLING = tuple(b / (2 * n * (2 * n - 1)) for n, b in enumerate(_BERNOULLI, start=1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log_gamma shifts up to Re z >= _LG_SHIFT.  Its shift columns multiply their
# squares _SHIFT_GROUP at a time and run in blocks of _SHIFT_BLOCK columns, with
# at most _SHIFT_CELLS cells per 2-D work array (64 KB per float array)
_LG_SHIFT = 10.0
_SHIFT_GROUP = 8
_SHIFT_BLOCK = 64
_SHIFT_CELLS = 1 << 13


def polygamma(k, x):
    """k-th polygamma function Psi_k(x) = d^{k+1}/dx^{k+1} log Gamma(x), x > 0."""
    k = int(k)
    if k < 0:
        raise ValueError("order k must be >= 0")
    x = float(x)
    if x <= 0:
        raise ValueError("polygamma requires x > 0 (poles at nonpositive integers)")
    acc = 0.0
    # recursion: Psi_k(x) = Psi_k(x+1) + (-1)^{k+1} k! / x^{k+1}
    sign = -1.0 if k % 2 == 0 else 1.0  # = (-1)^{k+1}
    kfac = math.factorial(k)
    while x < _SHIFT_TARGET:
        acc += sign * kfac / x ** (k + 1)
        x += 1.0
    return acc + _polygamma_asymptotic(k, x)


def _polygamma_asymptotic(k, x):
    if k == 0:
        out = math.log(x) - 0.5 / x
        x2 = 1.0 / (x * x)
        p = x2
        for n, b in enumerate(_BERNOULLI, start=1):
            out -= b * p / (2 * n)
            p *= x2
        return out
    # Psi_k(x) ~ (-1)^{k-1} [ (k-1)!/x^k + k!/(2 x^{k+1})
    #            + sum_n B_2n (2n+k-1)! / ((2n)! x^{2n+k}) ]
    s = math.factorial(k - 1) / x**k + math.factorial(k) / (2.0 * x ** (k + 1))
    for n, b in enumerate(_BERNOULLI, start=1):
        s += b * math.factorial(2 * n + k - 1) / math.factorial(2 * n) / x ** (2 * n + k)
    return s if k % 2 == 1 else -s


def digamma(x):
    return polygamma(0, x)


def log_gamma(z):
    """Analytic log Gamma, principal on the positive axis, continuous off (-inf, 0].

    Scalars and numpy arrays are accepted; complex output.  exp(log_gamma(z))
    equals Gamma(z) everywhere off the poles.  Every element with Re z < 10 is
    shifted by its own count n = ceil(10 - Re z) in one pass,
    log Gamma(z) = log Gamma(z + n) - sum_{j < n} Log(z + j), and the Stirling
    series is applied at z + n, where its remainder is below 2e-18.  The
    principal logs keep the analytic branch: the sum's real part is the log of
    products of |z + j|^2, and its imaginary part the arguments
    atan2(Im z, Re z + j) added in column order.  There is no depth cap: the
    shift columns run in blocks of bounded size, so time grows with the depth
    and memory does not.  An element's value does not depend on the other
    elements or on the array's size.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    re, im = flat.real, flat.imag
    # |Im z| >= 2^26 needs no shift: Stirling's remainder there is below 1e-16
    # for |z| < 1e100.  The squares |z + j|^2 of the shifted elements then stay
    # below 2^125 (Re z > -2^62), so products of _SHIFT_GROUP of them stay in
    # float range.  Re z = -inf is not shifted; its value is NaN.
    n = np.where((re < _LG_SHIFT) & (re > -np.inf) & (np.abs(im) < 2.0**26), np.ceil(_LG_SHIFT - re), 0.0)
    zs = flat + n
    w = 1.0 / zs
    w2 = w * w
    series = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        series = series * w2 + c
    out = (zs - 0.5) * np.log(zs) - zs + _HALF_LOG_2PI + series * w
    out -= _shift_logs(re, im, n)
    return out.reshape(z.shape)[()]


def log_gamma_shifts(z, shifts):
    """log_gamma(z - v) for every v in ``shifts``, stacked on a leading axis, in one call."""
    z = np.asarray(z, dtype=complex)
    return log_gamma(z - np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * z.ndim))


def _shift_logs(re, im, n):
    """sum_{j < n} Log(z + j) per element, for z = re + i im and integer-valued n >= 0.

    The columns j run in blocks of ``_SHIFT_BLOCK`` (a multiple of
    ``_SHIFT_GROUP``) at fixed offsets; a block takes only the elements that
    still shift there, in chunks of at most ``_SHIFT_CELLS`` cells.  Columns
    past an element's n hold |z + j|^2 = 1 and argument 0, which leave its
    products and sums exactly as they are, so neither the chunking nor the
    other elements change its value.
    """
    log_abs2 = np.zeros(re.size)
    arg = np.zeros(re.size)
    for c0 in range(0, int(n.max(initial=0.0)), _SHIFT_BLOCK):
        idx = np.flatnonzero(n > c0)
        # the block's columns, rounded up to whole groups
        width = min(_SHIFT_BLOCK, -((c0 - int(n[idx].max())) // _SHIFT_GROUP) * _SHIFT_GROUP)
        j = np.arange(c0, c0 + width, dtype=float)[:, None]
        rows = max(1, _SHIFT_CELLS // width)
        for r0 in range(0, idx.size, rows):
            sel = idx[r0 : r0 + rows]
            live = j < n[sel]
            x = re[sel] + j  # (columns, rows): Re(z + j)
            a = np.arctan2(im[sel], x)
            a *= live
            arg[sel] = _add_rows(arg[sel], a)
            x *= x
            x += im[sel] ** 2
            x = np.where(live, x, 1.0)
            prods = np.multiply.reduce(x.reshape(width // _SHIFT_GROUP, _SHIFT_GROUP, -1), axis=1)
            log_abs2[sel] = _add_rows(log_abs2[sel], np.log(prods))
    return 0.5 * log_abs2 + 1j * arg


def _add_rows(acc, rows):
    """acc + rows[0] + rows[1] + ..., one row after another, so that each column
    is summed in row order whatever the array's width (a reduction may pair terms)."""
    for row in rows:
        acc += row
    return acc


# ---------------------------------------------------------------------------
# Airy function: Maclaurin series for moderate arguments, asymptotic series
# beyond the crossover.  Only the real line is needed.  Both series run over
# whole arrays; each element stops on its own term test, so its value does not
# depend on the other elements or on the array's size.

_AI0 = 0.3550280538878172392600631860041831763980  # Ai(0) = 3^{-2/3}/Gamma(2/3)
_AIP0 = -0.2588194037928067984051835601892039634793  # Ai'(0) = -3^{-1/3}/Gamma(1/3)
_CROSSOVER = 5.8


def airy_ai(x):
    """Ai(x) for real x >= -9: a float for a scalar, an array of x's shape for an array."""
    return _scalar_or_array(_airy(x)[0])


def airy_ai_prime(x):
    """Ai'(x) for real x >= -9: a float for a scalar, an array of x's shape for an array."""
    return _scalar_or_array(_airy(x)[1])


def _scalar_or_array(a):
    return float(a) if a.ndim == 0 else a


def _airy(x):
    """(Ai(x), Ai'(x)) elementwise, as two arrays of x's shape."""
    x = np.asarray(x, dtype=float)
    if (x < -9.0).any():
        raise ValueError("Airy series evaluation limited to x >= -9")
    flat = x.reshape(-1)
    ai, aip = np.empty_like(flat), np.empty_like(flat)
    pos = flat > _CROSSOVER
    ai[pos], aip[pos] = _airy_asymptotic_pos(flat[pos])
    ai[~pos], aip[~pos] = _airy_series(flat[~pos])
    return ai.reshape(x.shape), aip.reshape(x.shape)


def _airy_series(x):
    # Ai = c1 f - c2 g with f'' = x f, f(0)=1, f'(0)=0 and g(0)=0, g'(0)=1
    x3 = x * x * x
    xd = np.where(x == 0.0, np.inf, x)  # at x = 0 the f' and g' terms add zero
    f, fp = np.ones_like(x), np.zeros_like(x)
    g, gp = x.copy(), np.ones_like(x)
    tf = np.ones_like(x)
    tg = x.copy()
    live = np.ones(x.shape, dtype=bool)
    for k in range(0, 60):
        if not live.any():
            break
        # term recurrences: tf_{k+1} = tf_k x^3 /((3k+2)(3k+3)), similarly tg
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        np.add(f, tf, out=f, where=live)
        np.add(g, tg, out=g, where=live)
        np.add(fp, tf * (3 * k + 3) / xd, out=fp, where=live)
        np.add(gp, tg * (3 * k + 4) / xd, out=gp, where=live)
        scale = np.abs(f) + np.abs(g) + 1.0
        live &= ~((np.abs(tf) < 1e-18 * scale) & (np.abs(tg) < 1e-18 * scale))
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _airy_asymptotic_pos(x):
    zeta = 2.0 / 3.0 * x**1.5
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    su, sv = np.ones_like(x), np.ones_like(x)
    live = np.ones(x.shape, dtype=bool)
    prev = np.ones_like(x)
    u = 1.0
    for k in range(1, 40):
        if not live.any():
            break
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * (2 * k - 1) * k)
        term_u = (-1) ** k * u / zeta**k
        v_over_u = (6 * k + 1) / (1.0 - 6 * k)
        term_v = (-1) ** k * u * v_over_u / zeta**k
        # the series is asymptotic: past its smallest term it diverges, so a term
        # larger than the one before ends the element's series without being added
        live &= ~(np.abs(term_u) > prev)
        prev = np.abs(term_u)
        np.add(su, term_u, out=su, where=live)
        np.add(sv, term_v, out=sv, where=live)
        live &= ~(np.abs(term_u) < 1e-18)
    ai = pref * x**-0.25 * su
    aip = -pref * x**0.25 * sv
    return ai, aip
