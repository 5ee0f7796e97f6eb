"""First-win waiting times and fixed-cost bankruptcy probabilities.

With wins thinned to a Poisson stream of rate E*q per epoch, the wait until
the first win is exponential with that rate, hence memoryless.
"""

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class WaitParams:
    """Win-stream parameters: blocks/epoch E and per-block win probability q."""

    expected_blocks: float
    win_probability: float

    def __post_init__(self):
        _require(math.isfinite(self.expected_blocks) and self.expected_blocks > 0,
                 "expected_blocks must be positive and finite")
        _require(0.0 <= self.win_probability <= 1.0,
                 "win probability must lie in [0, 1]")

    @property
    def rate(self) -> float:
        """Wins per epoch, E*q."""
        return self.expected_blocks * self.win_probability


@dataclass(frozen=True)
class BankruptcyInputs:
    """Liquid reserve W0 and the fixed operating cost C drawn each epoch."""

    initial_wealth: float
    epoch_cost: float

    def __post_init__(self):
        _require(math.isfinite(self.initial_wealth) and self.initial_wealth > 0,
                 "initial wealth must be positive and finite")
        _require(math.isfinite(self.epoch_cost) and self.epoch_cost > 0,
                 "epoch cost must be positive and finite")


def waiting_cdf(x: float, params: WaitParams) -> float:
    """P(first win by time x) = 1 - exp(-x E q), for x >= 0 in epochs."""
    _require(math.isfinite(x) and x >= 0, "waiting time must be nonnegative")
    return -math.expm1(-x * params.rate)


def waiting_pdf(x: float, params: WaitParams) -> float:
    """Waiting-time density E q exp(-x E q); undefined when q = 0."""
    _require(math.isfinite(x) and x >= 0, "waiting time must be nonnegative")
    _require(params.rate > 0, "waiting time is degenerate at rate 0")
    return params.rate * math.exp(-x * params.rate)


def _divisor_rate(params: WaitParams, what: str) -> float:
    # E q for a moment that divides by it: q = 0 is outside the domain, and
    # a rate that underflowed (0 or subnormal, so 1/rate overflows) is a
    # numerical failure rather than a ZeroDivisionError
    _require(params.win_probability > 0, f"{what} diverges at rate 0")
    rate = params.rate
    if rate == 0.0 or math.isinf(1.0 / rate):
        raise NumericalError(f"win rate {rate!r} underflows; {what} "
                             "is not finite")
    return rate


def expected_wait(params: WaitParams) -> float:
    """Mean epochs until the first win, 1/(E q)."""
    return 1.0 / _divisor_rate(params, "expected wait")


def wait_variance(params: WaitParams) -> float:
    """Variance of the wait, 1/(E q)^2.

    Raises NumericalError where (E q)^2 underflows to 0; where it is
    subnormal the result overflows to inf, which callers must check.
    """
    rate = _divisor_rate(params, "wait variance")
    square = rate * rate
    if square == 0.0:
        raise NumericalError(f"win rate {rate!r} squared underflows to 0; "
                             "wait variance is not finite")
    return 1.0 / square


def bankruptcy_horizon(inputs: BankruptcyInputs) -> int:
    """Epochs of cost the reserve can absorb before hitting zero: ceil(W0/C)."""
    return math.ceil(inputs.initial_wealth / inputs.epoch_cost)


def bankruptcy_probability(inputs: BankruptcyInputs, params: WaitParams) -> float:
    """P(no win inside the solvency horizon) = exp(-ceil(W0/C) * E * q).

    A miner who never wins goes bankrupt with certainty, so q = 0 gives 1.
    """
    horizon = bankruptcy_horizon(inputs)
    if params.rate == 0.0:
        return 1.0
    return math.exp(-horizon * params.rate)
