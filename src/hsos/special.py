"""The two special functions hsos evaluates: the inverse normal CDF and incomplete gamma.

numpy and `math` only, so that no command loads scipy for them.

  * `ndtri` is the sphere sampler's map from clipped Halton coordinates to
    normal deviates: it clips p to [1e-12, 1 - 1e-12], then runs Cephes'
    `ndtri` (S. L. Moshier) with the coefficients and the branch order that
    scipy.special.ndtri uses.  The clip keeps |x| below 7.1, so Cephes'
    far-tail branch (y <= e^-32) and its infinite and nan ends are not ported.
    Its polynomials run through `np.polyval`, which rounds in the order of
    Cephes' `polevl`; `_Q0` and `_Q1` write out the leading 1 of `p1evl`.
    Both logarithms of the tail branch go through `math.log` (the C
    library's), which makes the result bit-identical to scipy's on the
    clipped p; numpy's vectorized log differs from it in the last bit on a
    few points in 10^5.
  * `log_incomplete_gamma` is the log of the lower or upper incomplete gamma
    function: its power series below x = a + 1 and its continued fraction,
    evaluated by the modified Lentz method, above (DLMF 8.7.1 and 8.9.2).
"""

from __future__ import annotations

import math

import numpy as np


_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch serves exp(-2) < y < 1 - exp(-2)
_P_MIN = 1e-12  # ndtri clips p to [_P_MIN, 1 - _P_MIN]: a Halton coordinate can be 0, never 1

# central branch, |y - 1/2| <= 3/8: x = y + y^3 P0(y^2) / Q0(y^2)
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tail, 2 <= sqrt(-2 log y) < 7.44 after the clip (Cephes' x >= 8 branch lies beyond it)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.tolist()], dtype=float)


def ndtri(p) -> np.ndarray:
    """The x with Φ(x) = p, elementwise, for p clipped to [_P_MIN, 1 - _P_MIN] first."""
    y0 = np.clip(np.asarray(p, dtype=float), _P_MIN, 1.0 - _P_MIN)
    flat = y0.reshape(-1)
    out = np.empty(flat.shape)

    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)
    central = y > _EXP_M2
    tail = ~central

    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * np.polyval(_P0, y2) / np.polyval(_Q0, y2))) * _S2PI

    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    xt = x - _libm_log(x) / x - z * np.polyval(_P1, z) / np.polyval(_Q1, z)
    out[tail] = np.where(upper[tail], xt, -xt)
    return out.reshape(y0.shape)


_EPS = 2.0**-53
_TINY = 1e-300  # the modified Lentz method's stand-in for a zero denominator
# Near x = a the expansions need up to about 10 sqrt(a) terms, so this serves a up to about 10^10.
_MAX_TERMS = 1_000_000


def log_incomplete_gamma(a: float, x: float, upper: bool) -> float:
    """log Γ(a, x) if `upper`, else log γ(a, x), for a > 0 and x >= 0 (not regularized).

    γ(a, x) + Γ(a, x) = Γ(a).  Below x = a + 1 the series
    γ(a, x) = x^a e^-x Σ_k x^k / (a (a+1) ... (a+k)) converges fastest;
    above it the continued fraction Γ(a, x) = x^a e^-x / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...)).
    The other function follows as Γ(a) (1 - P), where P, the computed
    function's share of Γ(a), stays away from 1, so log1p loses nothing.
    The result is -inf where the function is 0 (γ(a, 0)); it never
    underflows.  An ArithmeticError means the expansion did not converge in
    _MAX_TERMS terms.
    """
    if not (0 < a < math.inf and 0 <= x < math.inf):
        raise ValueError(f"incomplete gamma needs finite a > 0 and x >= 0, got a = {a}, x = {x}")
    if x == 0.0:
        return math.lgamma(a) if upper else -math.inf
    log_front = a * math.log(x) - x
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _EPS:
                break
        else:
            raise ArithmeticError(f"incomplete gamma series did not converge at a = {a}, x = {x}")
        log_value, value_is_upper = log_front + math.log(total), False
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        frac = d
        for i in range(1, _MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            step = d * c
            frac *= step
            if abs(step - 1.0) < _EPS:
                break
        else:
            raise ArithmeticError(f"incomplete gamma continued fraction did not converge at a = {a}, x = {x}")
        log_value, value_is_upper = log_front + math.log(frac), True
    if upper == value_is_upper:
        return log_value
    log_complete = math.lgamma(a)
    return log_complete + math.log1p(-math.exp(log_value - log_complete))
