"""Exponential waiting-time model and the bankruptcy horizon."""

import math

import numpy as np
import pytest
from scipy import integrate

from minecon.errors import NumericalError, ValidationError
from minecon.rewarddist import MinerShare, NetworkParams
from minecon.waiting import (BankruptcyInputs, bankruptcy_horizon,
                             bankruptcy_probability, expected_wait,
                             wait_variance, waiting_cdf, waiting_pdf)


def params(e, q):
    """(network, share) with E = e blocks per epoch and win probability q."""
    return (NetworkParams(expected_blocks=e, block_reward=1.0, power=1000.0),
            MinerShare(q))


def test_cdf_at_zero():
    assert waiting_cdf(0.0, *params(10.0, 0.001)) == 0.0


def test_cdf_reference_point():
    # E=10, q=0.001 at x=100 epochs: 1 - e^{-1}
    got = waiting_cdf(100.0, *params(10.0, 0.001))
    assert got == pytest.approx(0.6321205588285577, abs=1e-15)


def test_cdf_zero_share_never_wins():
    p = params(5.0, 0.0)
    for x in (0.0, 1.0, 1e6):
        assert waiting_cdf(x, *p) == 0.0


def test_cdf_is_monotone_and_bounded():
    p = params(2.0, 0.01)
    values = [waiting_cdf(x, *p) for x in range(0, 2000, 25)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_pdf_at_origin_equals_rate():
    p = params(10.0, 0.001)
    assert waiting_pdf(0.0, *p) == pytest.approx(10.0 * 0.001, abs=0.0)


def test_pdf_reference_point():
    got = waiting_pdf(500.0, *params(0.1, 0.02))
    assert got == pytest.approx(0.002 * math.exp(-1.0), rel=1e-14)


def test_pdf_integrates_to_one():
    p = params(0.5, 0.04)
    mass, _ = integrate.quad(lambda x: waiting_pdf(x, *p), 0.0,
                             100.0 / (0.5 * 0.04), limit=200)
    assert mass >= 1.0 - 1e-12


def test_pdf_rejects_zero_rate():
    with pytest.raises(ValidationError):
        waiting_pdf(1.0, *params(5.0, 0.0))


@pytest.mark.parametrize("e,q,want", [(0.1, 0.001, 10_000.0),
                                      (10.0, 0.001, 100.0)])
def test_expected_wait(e, q, want):
    assert expected_wait(*params(e, q)) == pytest.approx(want, rel=1e-14)


def test_wait_variance_and_std():
    p = params(0.1, 0.001)
    assert wait_variance(*p) == pytest.approx(1e8, rel=1e-13)
    assert math.sqrt(wait_variance(*p)) == pytest.approx(expected_wait(*p),
                                                         rel=1e-13)


def test_underflowed_rate_is_numerical_error():
    # E q = 5e-298: 1/rate is finite but rate^2 underflows to 0
    p = params(10.0, 5e-299)
    assert expected_wait(*p) == pytest.approx(2e297, rel=1e-14)
    with pytest.raises(NumericalError):
        wait_variance(*p)
    # E q = 1e-310 is subnormal, so 1/rate overflows
    tiny = params(1e-10, 1e-300)
    with pytest.raises(NumericalError):
        expected_wait(*tiny)
    with pytest.raises(NumericalError):
        wait_variance(*tiny)


def test_zero_share_wait_is_outside_the_domain():
    with pytest.raises(ValidationError):
        expected_wait(*params(5.0, 0.0))
    with pytest.raises(ValidationError):
        wait_variance(*params(5.0, 0.0))


def test_memoryless_tail_ratio():
    p = params(1.0, 0.03)
    for s, t in [(10.0, 25.0), (3.0, 40.0)]:
        lhs = (1 - waiting_cdf(s + t, *p)) / (1 - waiting_cdf(s, *p))
        assert lhs == pytest.approx(1 - waiting_cdf(t, *p), rel=1e-12)


class TestBankruptcyHorizon:
    @pytest.mark.parametrize("w0,c,want", [(10.0, 1.0, 10),
                                           (10.5, 1.0, 11),
                                           (1.0, 3.0, 1)])
    def test_ceiling(self, w0, c, want):
        got = bankruptcy_horizon(BankruptcyInputs(initial_wealth=w0,
                                                  epoch_cost=c))
        assert got == want
        assert isinstance(got, int)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            BankruptcyInputs(initial_wealth=0.0, epoch_cost=1.0)
        with pytest.raises(ValidationError):
            BankruptcyInputs(initial_wealth=1.0, epoch_cost=0.0)


class TestBankruptcyProbability:
    def test_zero_share_bankrupt_for_sure(self):
        got = bankruptcy_probability(BankruptcyInputs(100.0, 1.0),
                                     *params(10.0, 0.0))
        assert got == 1.0

    def test_reference_value(self):
        got = bankruptcy_probability(BankruptcyInputs(100.0, 1.0),
                                     *params(10.0, 0.001))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_more_wealth_lowers_risk(self):
        p = params(10.0, 0.001)
        probs = [bankruptcy_probability(BankruptcyInputs(w, 1.0), *p)
                 for w in (10.0, 50.0, 250.0)]
        assert probs[0] > probs[1] > probs[2]


def test_array_times_round_like_libm_entry_by_entry():
    # the wait grid is one call: each entry must match the scalar libm
    # expression bit for bit, which numpy's own exp/expm1 do not
    p = params(10.0, 50.0 / 1050.0)
    rate = 10.0 * (50.0 / 1050.0)
    xs = np.arange(20001) * 0.5
    assert waiting_cdf(xs, *p).tolist() == [-math.expm1(-x * rate)
                                            for x in xs.tolist()]
    assert waiting_pdf(xs, *p).tolist() == [rate * math.exp(-x * rate)
                                            for x in xs.tolist()]


def test_array_times_reject_any_bad_entry():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            waiting_cdf(np.array([0.0, bad]), *params(10.0, 0.001))
        with pytest.raises(ValidationError):
            waiting_pdf(np.array([0.0, bad]), *params(10.0, 0.001))
