"""Special functions needed by the reward-variance formula and growth integrals.

Only real arguments are supported; everything here is pure and thread-safe.
"""

import math

from .errors import ValidationError

# Euler-Mascheroni constant, double-precision nearest.
EULER_MASCHERONI = 0.5772156649015329

# Series/asymptotic crossover on the positive axis. Both branches hold
# ~1e-15 relative accuracy throughout [35, 45], see the agreement tests.
_POS_CROSSOVER = 40.0
# On the negative axis the power series suffers catastrophic cancellation
# well before |x| = 40 (relative error passes 1e-12 near x = -6), so the
# continued fraction takes over earlier.
_NEG_CROSSOVER = -5.0
# exp(x) overflows just above 709.78; Ei(x) ~ e^x/x overflows slightly later,
# but the evaluation path needs exp(x) itself.
_OVERFLOW_LIMIT = 709.7

_MAX_SERIES_TERMS = 1000
_MAX_CF_ITER = 400


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x), principal value, for real nonzero x.

    Relative error <= 1e-12 for 1e-6 <= |x| <= 700. Power series
    gamma + ln|x| + sum x^k/(k*k!) on [-5, 40] \\ {0}; optimally truncated
    asymptotic expansion e^x/x * sum k!/x^k above 40; modified-Lentz
    continued fraction for E1(-x) below -5.
    """
    if x != x:
        raise ValidationError("Ei is undefined for NaN")
    if x == 0.0:
        raise ValidationError("Ei has a logarithmic singularity at x = 0")
    if x > _OVERFLOW_LIMIT:
        raise OverflowError(f"Ei({x!r}) overflows double precision")
    if x > _POS_CROSSOVER:
        return _ei_asymptotic(x)
    if x < _NEG_CROSSOVER:
        return -_e1_continued_fraction(-x)
    return _ei_series(x)


def _ei_series(x: float) -> float:
    # gamma + ln|x| + sum_{k>=1} x^k / (k * k!)
    total = EULER_MASCHERONI + math.log(abs(x))
    term = 1.0
    k = 1
    while k <= _MAX_SERIES_TERMS:
        term *= x / k
        contrib = term / k
        total += contrib
        # past the hump of the series, terms decay faster than geometrically
        if abs(contrib) < 1e-17 * max(abs(total), 1e-300) and k > abs(x) + 5:
            return total
        k += 1
    return total


def _ei_asymptotic(x: float) -> float:
    # e^x/x * sum_{k>=0} k!/x^k, truncated at the smallest term
    total = 1.0
    term = 1.0
    k = 1
    while k < _MAX_CF_ITER:
        nxt = term * k / x
        if nxt >= term:
            break
        term = nxt
        total += term
        if term < 1e-18 * total:
            break
        k += 1
    return math.exp(x) / x * total


def _e1_continued_fraction(y: float) -> float:
    # E1(y) = e^-y / (y + 1 - 1/(y + 3 - 4/(y + 5 - ...))), modified Lentz
    tiny = 1e-300
    b = y + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER):
        a = -float(i) * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-y)
