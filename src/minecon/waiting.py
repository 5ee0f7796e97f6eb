"""First-win waiting times and fixed-cost bankruptcy probabilities.

With wins thinned to a Poisson stream of rate E*q per epoch, the wait until
the first win is exponential with that rate, hence memoryless. The rate
comes from the scenario's network (E) and the miner's share (q).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require
from .growth import _libm
from .rewarddist import MinerShare, NetworkParams


@dataclass(frozen=True)
class BankruptcyInputs:
    """Liquid reserve W0 and the fixed operating cost C drawn each epoch."""

    initial_wealth: float
    epoch_cost: float

    def __post_init__(self):
        require(math.isfinite(self.initial_wealth) and self.initial_wealth > 0,
                "initial wealth must be positive and finite")
        require(math.isfinite(self.epoch_cost) and self.epoch_cost > 0,
                "epoch cost must be positive and finite")


def _rate(network: NetworkParams, share: MinerShare) -> float:
    # wins per epoch, E*q
    return network.expected_blocks * share.win_probability


def _times(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    require(bool(np.all(np.isfinite(x) & (x >= 0))),
            "waiting time must be nonnegative")
    return x


def waiting_cdf(x, network: NetworkParams, share: MinerShare):
    """P(first win by time x) = 1 - exp(-x E q), for times x >= 0 in epochs.

    x is one time or an array of them; libm's expm1 rounds every entry.
    """
    return -_libm(math.expm1, -_times(x) * _rate(network, share))


def waiting_pdf(x, network: NetworkParams, share: MinerShare):
    """Waiting-time density E q exp(-x E q) at one time or an array of
    them; undefined when q = 0."""
    x = _times(x)
    rate = _rate(network, share)
    require(rate > 0, "waiting time is degenerate at rate 0")
    return rate * _libm(math.exp, -x * rate)


def _divisor_rate(network: NetworkParams, share: MinerShare,
                  what: str) -> float:
    # E q for a moment that divides by it: q = 0 is outside the domain, and
    # a rate that underflowed (0 or subnormal, so 1/rate overflows) is a
    # numerical failure rather than a ZeroDivisionError
    require(share.win_probability > 0, f"{what} diverges at rate 0")
    rate = _rate(network, share)
    if rate == 0.0 or math.isinf(1.0 / rate):
        raise NumericalError(f"win rate {rate!r} underflows; {what} "
                             "is not finite")
    return rate


def expected_wait(network: NetworkParams, share: MinerShare) -> float:
    """Mean epochs until the first win, 1/(E q)."""
    return 1.0 / _divisor_rate(network, share, "expected wait")


def wait_variance(network: NetworkParams, share: MinerShare) -> float:
    """Variance of the wait, 1/(E q)^2.

    Raises NumericalError where (E q)^2 underflows to 0; where it is
    subnormal the result overflows to inf, which callers must check.
    """
    rate = _divisor_rate(network, share, "wait variance")
    square = rate * rate
    if square == 0.0:
        raise NumericalError(f"win rate {rate!r} squared underflows to 0; "
                             "wait variance is not finite")
    return 1.0 / square


def bankruptcy_horizon(inputs: BankruptcyInputs) -> int:
    """Epochs of cost the reserve can absorb before hitting zero: ceil(W0/C)."""
    return math.ceil(inputs.initial_wealth / inputs.epoch_cost)


def bankruptcy_probability(inputs: BankruptcyInputs, network: NetworkParams,
                           share: MinerShare) -> float:
    """P(no win inside the solvency horizon) = exp(-ceil(W0/C) * E * q).

    A miner who never wins goes bankrupt with certainty, so q = 0 gives 1.
    """
    return math.exp(-bankruptcy_horizon(inputs) * _rate(network, share))
