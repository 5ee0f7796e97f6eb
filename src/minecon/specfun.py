"""Special functions needed by the reward-variance formula and growth integrals.

Only real arguments are supported; everything here is pure and thread-safe.
"""

import numpy as np

from .errors import ValidationError

# Euler-Mascheroni constant, double-precision nearest.
EULER_MASCHERONI = 0.5772156649015329

# Series/asymptotic crossover. At 40 the asymptotic sum's 30th term is 2e-16
# of the sum, and the series' 160th is below 1e-46 of it.
_POS_CROSSOVER = 40.0
# exp(x) overflows just above 709.78
_OVERFLOW_LIMIT = 709.7
_SERIES_K = np.arange(1.0, 161.0)
_ASYMPTOTIC_K = np.arange(1.0, 31.0)


def exp_integral_ei(x, scaled: bool = False):
    """Exponential integral Ei(x) for real x > 0, or e^{-x} Ei(x) if scaled.

    A float gives a float and an array an array. e^{-x} Ei(x) is
    e^{-x} (gamma + ln x + sum_{k<=160} x^k/(k k!)) on (0, 40] and
    (1 + sum_{k<=30} k!/x^k)/x above, both fixed-length sums, within 2e-15
    relative of exact (1e-16 absolute next to Ei's zero at 0.3725); Ei(x)
    is e^x times it. NaN and x <= 0 raise ValidationError; unscaled,
    x > 709.7 raises OverflowError.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValidationError(f"Ei is defined here only for x > 0, got {x!r}")
    if not scaled and np.any(xs > _OVERFLOW_LIMIT):
        raise OverflowError(f"Ei({x!r}) overflows double precision")
    small = np.minimum(xs, _POS_CROSSOVER)
    large = np.maximum(xs, _POS_CROSSOVER)
    # running products x^k/k!, k!/x^k of x clamped to each branch's side of 40
    series = np.cumprod(small[..., None] / _SERIES_K, axis=-1) / _SERIES_K
    asymptotic = np.cumprod(_ASYMPTOTIC_K / large[..., None], axis=-1)
    value = np.where(
        xs > _POS_CROSSOVER, (1.0 + asymptotic.sum(axis=-1)) / large,
        np.exp(-small) * (EULER_MASCHERONI + np.log(small)
                          + series.sum(axis=-1)))
    if not scaled:
        value = np.exp(xs) * value
    return value if np.ndim(x) else float(value)
