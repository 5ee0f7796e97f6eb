"""Exponential integral and Euler constant against frozen mpmath values."""

import math

import mpmath
import numpy as np
import pytest

from minecon import specfun
from minecon.specfun import EULER_MASCHERONI, exp_integral_ei
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


def test_crossover_band_agreement(monkeypatch):
    # the 160-term series and the 30-term asymptotic sum agree on [35, 45],
    # where either could be used: the crossover moved past one, then the other
    xs = np.linspace(35.0, 45.0, 21)
    monkeypatch.setattr(specfun, "_POS_CROSSOVER", math.inf)
    series = exp_integral_ei(xs, scaled=True)
    monkeypatch.setattr(specfun, "_POS_CROSSOVER", 1e-300)
    asym = exp_integral_ei(xs, scaled=True)
    assert np.all(np.abs(series - asym) <= 1e-13 * asym)


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


def test_scaled_matches_40_digit_mpmath_to_2e_15():
    # e^{-x} Ei(x) to 2e-15 relative at 40 digits; next to Ei's zero at
    # 0.3725, where no relative bound can hold, to 1e-16 absolute
    xs = [v / 7.0 for v in range(1, 400)] + [1e-6]
    xs += list(np.linspace(35.0, 45.0, 41)) + list(range(150, 801, 25))
    xs += [1e4, 1e7, 1e300]
    got = exp_integral_ei(np.array(xs), scaled=True)
    with mpmath.workdps(40):
        for x, value in zip(xs, got):
            want = mpmath.exp(-x) * mpmath.ei(x)
            assert abs(value - want) <= 2e-15 * abs(want), x
        for x in (0.36, 0.3725, 0.37250741078136663, 0.38):
            want = mpmath.exp(-x) * mpmath.ei(x)
            assert abs(exp_integral_ei(x, scaled=True) - want) <= 1e-16, x


def test_array_in_array_out():
    # one code path: an array gives each of its elements' float results
    xs = np.array([[1e-6, 0.5, 40.0], [40.5, 700.0, 1e300]])
    scaled = exp_integral_ei(xs, scaled=True)
    assert scaled.shape == xs.shape
    assert scaled.tolist() == [[exp_integral_ei(float(x), scaled=True)
                                for x in row] for row in xs]
    assert type(exp_integral_ei(2.0)) is float
    assert exp_integral_ei(xs[:, :2]).tolist() == [
        [exp_integral_ei(float(x)) for x in row] for row in xs[:, :2]]
    with pytest.raises(OverflowError):
        exp_integral_ei(xs)
    with pytest.raises(ValidationError):
        exp_integral_ei(np.array([1.0, 0.0]), scaled=True)


@pytest.mark.parametrize("x", [709.8, 800.0, 1e4, 1e7, 1e300])
def test_scaled_has_no_overflow_limit(x):
    with mpmath.workdps(30):
        want = float(mpmath.exp(-x) * mpmath.ei(x))
    assert exp_integral_ei(x, scaled=True) == pytest.approx(want, rel=1e-12)


def test_strictly_increasing_on_positive_axis():
    rng = np.random.default_rng(1918)
    draws = rng.uniform(1e-3, 100.0, size=(200, 2))
    for a, b in draws:
        lo, hi = sorted((float(a), float(b)))
        if lo == hi:
            continue
        assert exp_integral_ei(lo) < exp_integral_ei(hi)


def test_derivative_is_exp_over_x():
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
