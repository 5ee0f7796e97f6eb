"""Adaptive Simpson integration on integrals with known closed forms."""

import math

import numpy as np
import pytest

from minecon import quadrature
from minecon.errors import ConvergenceError
from minecon.quadrature import adaptive_simpson, simpson_batch


def test_polynomial_is_nearly_exact():
    # Simpson integrates cubics exactly up to rounding
    value, err = adaptive_simpson(lambda t: 3 * t**2 - 2 * t + 1, 0.0, 2.0)
    assert value == pytest.approx(6.0, rel=1e-14)
    assert err <= 1e-10


@pytest.mark.parametrize("rate", [0.5, 1.0, 7.0])
def test_exponential_density_mass(rate):
    upper = 40.0 / rate
    value, _ = adaptive_simpson(lambda t: rate * np.exp(-rate * t),
                                0.0, upper, rel_tol=1e-12)
    assert value == pytest.approx(-math.expm1(-rate * upper), rel=1e-11)


def test_log_integrand():
    # integral_1^e log t dt = 1
    value, _ = adaptive_simpson(np.log, 1.0, math.e, rel_tol=1e-12)
    assert value == pytest.approx(1.0, rel=1e-11)


def test_oscillatory_integrand():
    value, _ = adaptive_simpson(np.sin, 0.0, 2 * math.pi, rel_tol=1e-10,
                                abs_tol=1e-12)
    assert abs(value) <= 1e-10


def test_empty_interval_is_zero():
    assert adaptive_simpson(np.exp, 3.0, 3.0) == (0.0, 0.0)


def test_reported_error_bounds_true_error():
    value, err = adaptive_simpson(lambda t: np.exp(-t) * np.sin(3 * t),
                                  0.0, 10.0, rel_tol=1e-9)
    exact = 3.0 / 10.0 - math.exp(-10) * (math.sin(30) + 3 * math.cos(30)) / 10.0
    assert abs(value - exact) <= max(10 * err, 1e-12)


def test_tighter_tolerance_does_not_hurt():
    f = lambda t: np.exp(-t * t)
    loose, _ = adaptive_simpson(f, 0.0, 3.0, rel_tol=1e-6)
    tight, _ = adaptive_simpson(f, 0.0, 3.0, rel_tol=1e-12)
    assert loose == pytest.approx(tight, rel=1e-5)
    assert tight == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(3.0),
                                  rel=1e-11)


def test_vectorized_calls_only():
    seen = []

    def probe(t):
        seen.append(np.shape(t))
        return np.asarray(t) ** 2

    adaptive_simpson(probe, 0.0, 1.0)
    assert all(len(shape) == 1 for shape in seen)


def test_max_depth_raises_with_best_estimate():
    # sqrt kink at 0: interval error shrinks like len^1.5, too slow for
    # a 1e-15 length-proportional budget within 30 bisection levels
    with pytest.raises(ConvergenceError) as info:
        adaptive_simpson(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0,
                         rel_tol=1e-15, max_depth=30)
    assert info.value.best_estimate == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert info.value.achieved_error > 0


def test_invalid_bounds_and_tolerances():
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 0.0, 1.0, rel_tol=0.0, abs_tol=0.0)


def test_no_refinement_level_raises_convergence_error():
    with pytest.raises(ConvergenceError,
                       match="^adaptive Simpson did not reach tolerance"):
        adaptive_simpson(np.exp, 0.0, 1.0, max_depth=-1)


def exp_densities(t, owner, rates):
    rate = rates[owner]
    return rate * np.exp(-rate * t)


def test_batch_values_match_single_integrals_bit_for_bit():
    rates = np.array([0.5, 1.0, 7.0, 30.0])
    uppers = np.array([80.0, 3.0, 1.0, 0.25])
    values, errors = simpson_batch(
        lambda t, owner: exp_densities(t, owner, rates),
        np.zeros(4), uppers, rel_tol=1e-12, abs_tol=0.0)
    for rate, upper, value, error in zip(rates, uppers, values, errors):
        alone = adaptive_simpson(lambda t: rate * np.exp(-rate * t),
                                 0.0, upper, rel_tol=1e-12)
        assert (value, error) == alone


def test_batch_zero_width_integral_is_zero():
    values, errors = simpson_batch(lambda t, owner: np.exp(t),
                                   np.array([0.0, 2.0]),
                                   np.array([1.0, 2.0]), 1e-10, 0.0)
    assert values[0] == pytest.approx(math.e - 1.0, rel=1e-10)
    assert (values[1], errors[1]) == (0.0, 0.0)


def test_batch_failure_carries_the_failing_integral():
    # per-integral tolerances: the exponential converges, the sqrt kink
    # cannot within 30 levels; the error is the kink's own
    def f(t, owner):
        return np.where(owner == 0, np.exp(t), np.sqrt(np.abs(t)))

    with pytest.raises(ConvergenceError) as batch:
        simpson_batch(f, np.zeros(2), np.ones(2),
                      rel_tol=np.array([1e-10, 1e-15]), abs_tol=0.0,
                      max_depth=30)
    with pytest.raises(ConvergenceError) as alone:
        adaptive_simpson(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0,
                         rel_tol=1e-15, max_depth=30)
    assert str(batch.value) == str(alone.value)
    assert batch.value.best_estimate == alone.value.best_estimate
    assert batch.value.achieved_error == alone.value.achieved_error


def test_open_interval_cap_raises_with_best_estimate(monkeypatch):
    # every interval of sin(200 t) stays open until they are short, so the
    # live set doubles each level until it passes the cap
    monkeypatch.setattr(quadrature, "MAX_OPEN_INTERVALS", 256)
    with pytest.raises(ConvergenceError,
                       match="^adaptive Simpson did not reach tolerance "
                             r"within \d+ refinement levels \(achieved error "
                             r".*over the cap of 256$") as info:
        adaptive_simpson(lambda t: np.sin(200.0 * t), 0.0, 1.0,
                         rel_tol=1e-12)
    exact = (1.0 - math.cos(200.0)) / 200.0
    assert abs(info.value.best_estimate - exact) <= 1e-3
    assert info.value.achieved_error > 0
