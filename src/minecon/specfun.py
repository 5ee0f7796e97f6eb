"""Special functions needed by the reward-variance formula and growth integrals.

Only real arguments are supported; everything here is pure and thread-safe.
"""

import math

from .errors import ValidationError

# Euler-Mascheroni constant, double-precision nearest.
EULER_MASCHERONI = 0.5772156649015329

# Series/asymptotic crossover. Both branches hold ~1e-15 relative accuracy
# throughout [35, 45], see the agreement tests.
_POS_CROSSOVER = 40.0
# exp(x) overflows just above 709.78; Ei(x) ~ e^x/x overflows slightly later,
# but the evaluation path needs exp(x) itself.
_OVERFLOW_LIMIT = 709.7

_MAX_SERIES_TERMS = 1000
_MAX_ASYMPTOTIC_TERMS = 400


def exp_integral_ei(x: float, scaled: bool = False) -> float:
    """Exponential integral Ei(x) for real x > 0, or e^{-x} Ei(x) if scaled.

    Relative error <= 1e-12 for 1e-6 <= x <= 700. Power series
    gamma + ln x + sum x^k/(k*k!) on (0, 40]; optimally truncated
    asymptotic expansion e^x/x * sum k!/x^k above 40, which the scaled form
    divides by x alone, so it has no overflow limit. NaN and x <= 0 raise
    ValidationError; unscaled, x > 709.7 raises OverflowError.
    """
    if not x > 0.0:
        raise ValidationError(f"Ei is defined here only for x > 0, got {x!r}")
    if scaled:
        if x > _POS_CROSSOVER:
            return _asymptotic_sum(x) / x
        return math.exp(-x) * _ei_series(x)
    if x > _OVERFLOW_LIMIT:
        raise OverflowError(f"Ei({x!r}) overflows double precision")
    if x > _POS_CROSSOVER:
        return _ei_asymptotic(x)
    return _ei_series(x)


def _ei_series(x: float) -> float:
    # gamma + ln x + sum_{k>=1} x^k / (k * k!)
    total = EULER_MASCHERONI + math.log(x)
    term = 1.0
    k = 1
    while k <= _MAX_SERIES_TERMS:
        term *= x / k
        contrib = term / k
        total += contrib
        # past the hump of the series, terms decay faster than geometrically
        if abs(contrib) < 1e-17 * max(abs(total), 1e-300) and k > x + 5:
            return total
        k += 1
    return total


def _ei_asymptotic(x: float) -> float:
    return math.exp(x) / x * _asymptotic_sum(x)


def _asymptotic_sum(x: float) -> float:
    # sum_{k>=0} k!/x^k, truncated at the smallest term: Ei(x) e^{-x} x
    total = 1.0
    term = 1.0
    k = 1
    while k < _MAX_ASYMPTOTIC_TERMS:
        nxt = term * k / x
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < 1e-18 * total:
            break
        k += 1
    return total
