"""Exponential integral and Euler constant against frozen mpmath values."""

import math

import mpmath
import pytest

from minecon.specfun import (EULER_MASCHERONI, _ei_asymptotic, _ei_series,
                             exp_integral_ei)
from minecon.errors import ValidationError

# mpmath.ei at 50 digits, rounded to the nearest double
EI_TABLE = {
    1.0: 1.8951178163559368,
    0.5: 0.4542199048631736,
    2.0: 4.95423435600189,
    5.0: 40.18527535580318,
    10.0: 2492.2289762418777,
    25.0: 3005950906.5255485,
}


@pytest.mark.parametrize("x,expected", sorted(EI_TABLE.items()))
def test_ei_table(x, expected):
    assert exp_integral_ei(x) == pytest.approx(expected, rel=1e-13)


def test_ei_matches_mpmath_on_wide_grid():
    # documented contract: relative error at most 1e-12 on x in [1e-6, 700]
    xs = [v / 7.0 for v in range(1, 400)]
    xs += [150.0, 300.0, 600.0, 700.0, 1e-6]
    mpmath.mp.dps = 30
    for x in xs:
        want = float(mpmath.ei(x))
        got = exp_integral_ei(x)
        assert got == pytest.approx(want, rel=1e-12, abs=5e-300), x


def test_small_x_series_limit():
    # Ei(x) ~ gamma + ln x + x as x -> 0+
    x = 1e-8
    assert exp_integral_ei(x) - math.log(x) - x == pytest.approx(
        EULER_MASCHERONI, abs=1e-12)
    x = 1e-10
    assert exp_integral_ei(x) - math.log(x) - x == pytest.approx(
        EULER_MASCHERONI, abs=1e-9)


def test_crossover_band_agreement():
    # the two positive-axis strategies agree where either could be used
    for k in range(21):
        x = 35.0 + 0.5 * k
        series = _ei_series(x)
        asym = _ei_asymptotic(x)
        assert abs(series - asym) <= 1e-10 * abs(asym)


@pytest.mark.parametrize("x", [-1e-300, -0.0, 0.0, -1.0, -math.inf,
                               math.nan])
def test_nonpositive_and_nan_raise(x):
    with pytest.raises(ValidationError):
        exp_integral_ei(x)
    with pytest.raises(ValidationError):
        exp_integral_ei(x, scaled=True)


def test_overflow_above_limit():
    with pytest.raises(OverflowError):
        exp_integral_ei(710.0)


def test_scaled_matches_mpmath_and_the_unscaled_form():
    # e^{-x} Ei(x), relative to mpmath and to the unscaled form where that
    # is finite; absolute near Ei's zero at x ~ 0.3725
    xs = [v / 7.0 for v in range(1, 400)]
    xs += [1e-6, 0.3725, 150.0, 300.0, 600.0, 700.0]
    mpmath.mp.dps = 30
    for x in xs:
        want = float(mpmath.exp(-x) * mpmath.ei(x))
        got = exp_integral_ei(x, scaled=True)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), x
        assert got == pytest.approx(math.exp(-x) * exp_integral_ei(x),
                                    rel=1e-12, abs=1e-15), x


@pytest.mark.parametrize("x", [709.8, 800.0, 1e4, 1e7, 1e300])
def test_scaled_has_no_overflow_limit(x):
    with mpmath.workdps(30):
        want = float(mpmath.exp(-x) * mpmath.ei(x))
    assert exp_integral_ei(x, scaled=True) == pytest.approx(want, rel=1e-12)


def test_strictly_increasing_on_positive_axis():
    import numpy as np
    rng = np.random.default_rng(1918)
    draws = rng.uniform(1e-3, 100.0, size=(200, 2))
    for a, b in draws:
        lo, hi = sorted((float(a), float(b)))
        if lo == hi:
            continue
        assert exp_integral_ei(lo) < exp_integral_ei(hi)


def test_derivative_is_exp_over_x():
    import numpy as np
    rng = np.random.default_rng(52)
    for x in rng.uniform(0.1, 20.0, size=50):
        x = float(x)
        h = 1e-6 * max(1.0, x)
        fd = (exp_integral_ei(x + h) - exp_integral_ei(x - h)) / (2 * h)
        assert fd == pytest.approx(math.exp(x) / x, rel=1e-6)


def test_euler_mascheroni_constant():
    assert EULER_MASCHERONI == 0.5772156649015329
    mpmath.mp.dps = 30
    assert EULER_MASCHERONI == pytest.approx(float(mpmath.euler), abs=0.0)
