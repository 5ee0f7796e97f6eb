"""Distributions and moments of a miner's block wins and rewards.

Per-epoch win counts marginalize a Binomial over the Poisson block count;
rewards live on the lattice {0, M, 2M, ...} and multi-epoch totals are
lattice convolutions.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (NumericalError, UnsupportedLatticeError,
                     ValidationError)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class NetworkParams:
    """Chain-level constants: blocks/epoch E, block reward M, network power P."""

    expected_blocks: float
    block_reward: float
    power: float

    def __post_init__(self):
        _require(math.isfinite(self.expected_blocks) and self.expected_blocks > 0,
                 "expected_blocks must be positive and finite")
        _require(math.isfinite(self.block_reward) and self.block_reward >= 0,
                 "block_reward must be nonnegative and finite")
        _require(math.isfinite(self.power) and self.power > 0,
                 "network power must be positive and finite")


@dataclass(frozen=True)
class MinerShare:
    """A miner's consensus power and per-block win probability q = p/P."""

    power: float
    win_probability: float

    def __post_init__(self):
        _require(math.isfinite(self.power) and self.power >= 0,
                 "miner power must be nonnegative and finite")
        _require(0.0 <= self.win_probability <= 1.0,
                 "win probability must lie in [0, 1]")

    @classmethod
    def from_powers(cls, miner_power: float, network_power: float) -> "MinerShare":
        _require(network_power > 0, "network power must be positive")
        _require(0 <= miner_power <= network_power,
                 "miner power must lie in [0, network power]")
        return cls(power=miner_power, win_probability=miner_power / network_power)

    @classmethod
    def from_probability(cls, win_probability: float,
                         network_power: float) -> "MinerShare":
        # canonicalizes so that q == p/P holds bit-exactly
        _require(network_power > 0, "network power must be positive")
        _require(0.0 <= win_probability <= 1.0,
                 "win probability must lie in [0, 1]")
        power = win_probability * network_power
        return cls(power=power, win_probability=power / network_power)


@dataclass(frozen=True)
class EpochSpec:
    """Network state and miner share for one epoch of a window."""

    network: NetworkParams
    share: MinerShare

    def __post_init__(self):
        _require(self.share.power <= self.network.power,
                 "miner power cannot exceed network power")
        _require(self.share.win_probability == self.share.power / self.network.power,
                 "win probability must equal miner power / network power")


def identical_epochs(network: NetworkParams, share: MinerShare,
                     count: int) -> list[EpochSpec]:
    """A window of `count` epochs with constant parameters."""
    _require(count >= 1, "window must contain at least one epoch")
    return [EpochSpec(network, share)] * count


@dataclass(frozen=True)
class LatticePmf:
    """Probability masses on the uniform lattice {0, step, 2*step, ...}.

    Truncated so the retained mass is within tail_tol of 1; immutable.
    """

    step: float
    masses: tuple
    tail_tol: float

    def __post_init__(self):
        _require(math.isfinite(self.step) and self.step > 0,
                 "lattice step must be positive")
        _require(len(self.masses) > 0, "pmf must carry at least one mass")
        _require(all(m >= 0 for m in self.masses), "masses must be nonnegative")
        _require(0 < self.tail_tol < 1, "tail_tol must lie in (0, 1)")
        total = math.fsum(self.masses)
        _require(1.0 - self.tail_tol <= total <= 1.0 + 1e-12,
                 f"total mass {total!r} outside [1 - tail_tol, 1]")

    def points(self) -> np.ndarray:
        return self.step * np.arange(len(self.masses))

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def mean(self) -> float:
        return math.fsum(m * j * self.step for j, m in enumerate(self.masses))

    def variance(self) -> float:
        mu = self.mean()
        second = math.fsum(m * (j * self.step) ** 2
                           for j, m in enumerate(self.masses))
        return second - mu * mu

    def to_json_dict(self) -> dict:
        return {"step": self.step, "masses": list(self.masses),
                "tail_tol": self.tail_tol}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticePmf":
        return cls(step=float(data["step"]),
                   masses=tuple(float(m) for m in data["masses"]),
                   tail_tol=float(data["tail_tol"]))

    def to_csv_text(self) -> str:
        lines = ["lattice_point,probability"]
        for j, m in enumerate(self.masses):
            lines.append(f"{j * self.step:.17g},{m:.17g}")
        return "\n".join(lines) + "\n"


def _poisson_pmf(v: int, mean: float) -> float:
    if mean == 0.0:
        return 1.0 if v == 0 else 0.0
    if v == 0:
        return math.exp(-mean)
    return math.exp(-mean + v * math.log(mean) - math.lgamma(v + 1))


def win_count_pmf_series(v: int, expected_blocks: float, win_probability: float,
                         term_tol: float = 1e-16) -> float:
    """P(miner wins v blocks in an epoch), by direct series summation.

    Sums Binomial(v; w, q) * Poisson(w; E) over w >= v, truncating once terms
    fall below term_tol times the running sum and w has cleared the Poisson
    bulk E + 10*sqrt(E).
    """
    _require(v >= 0, "win count must be nonnegative")
    _require(expected_blocks > 0, "expected_blocks must be positive")
    _require(0.0 <= win_probability <= 1.0, "win probability must lie in [0, 1]")
    _require(term_tol > 0, "term_tol must be positive")
    e, q = expected_blocks, win_probability
    if q == 0.0:
        return 1.0 if v == 0 else 0.0

    term = _first_series_term(v, e, q)
    total = term
    bulk = e + 10.0 * math.sqrt(e)
    w = v
    while True:
        # t_{w+1}/t_w = (1-q) E / (w+1-v)
        w += 1
        term *= (1.0 - q) * e / (w - v)
        total += term
        if term == 0.0 and w > bulk:
            break
        if term < term_tol * total and w > bulk:
            break
    return min(total, 1.0)


def _first_series_term(v: int, e: float, q: float) -> float:
    # Binomial(v; v, q) * Poisson(v; E) = q^v e^{-E} E^v / v!
    if v == 0:
        return math.exp(-e)
    log_t = -e + v * (math.log(e) + math.log(q)) - math.lgamma(v + 1)
    return math.exp(log_t)


def win_count_pmf_closed(v: int, expected_blocks: float,
                         win_probability: float) -> float:
    """P(miner wins v blocks in an epoch): Poisson thinning closed form.

    Keeping each of Poisson(E) blocks independently with probability q makes
    the win count Poisson(E*q); cross-checked against win_count_pmf_series.
    """
    _require(v >= 0, "win count must be nonnegative")
    _require(expected_blocks > 0, "expected_blocks must be positive")
    _require(0.0 <= win_probability <= 1.0, "win probability must lie in [0, 1]")
    return _poisson_pmf(v, expected_blocks * win_probability)


def epoch_reward_pmf(network: NetworkParams, share: MinerShare,
                     tail_tol: float = 1e-12) -> LatticePmf:
    """Reward distribution for one epoch on the lattice {0, M, 2M, ...}.

    For M = 0 every outcome pays nothing and the pmf degenerates to a unit
    mass at 0 (reported on a unit lattice since the step would vanish).
    """
    _require(0 < tail_tol < 1, "tail_tol must lie in (0, 1)")
    m = network.block_reward
    if m == 0.0:
        return LatticePmf(step=1.0, masses=(1.0,), tail_tol=tail_tol)
    e, q = network.expected_blocks, share.win_probability
    masses = []
    cumulative = 0.0
    j = 0
    while cumulative < 1.0 - tail_tol:
        mass = win_count_pmf_closed(j, e, q)
        masses.append(mass)
        cumulative += mass
        j += 1
        if j > 1_000_000:
            raise NumericalError("reward pmf failed to accumulate mass")
    return LatticePmf(step=m, masses=tuple(masses), tail_tol=tail_tol)


def total_reward_pmf(epochs: list, tail_tol: float = 1e-12) -> LatticePmf:
    """Distribution of the summed reward over a window, by lattice convolution.

    All epochs must share one block reward M so the per-epoch lattices line
    up; heterogeneous rewards have no common lattice here and are delegated
    to the Monte Carlo estimator in mcsim.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    _require(0 < tail_tol < 1, "tail_tol must lie in (0, 1)")
    rewards = {ep.network.block_reward for ep in epochs}
    if len(rewards) > 1:
        raise UnsupportedLatticeError(
            "epochs carry different block rewards and share no common "
            "lattice; use mcsim.simulate_epochs to estimate the total")
    # finer per-epoch truncation so the convolution keeps >= 1 - tail_tol
    per_tol = tail_tol / len(epochs)
    pmfs = [epoch_reward_pmf(ep.network, ep.share, per_tol) for ep in epochs]
    acc = np.asarray(pmfs[0].masses)
    for pmf in pmfs[1:]:
        acc = np.convolve(acc, np.asarray(pmf.masses))
    return LatticePmf(step=pmfs[0].step, masses=tuple(float(x) for x in acc),
                      tail_tol=tail_tol)


def expected_total_reward(epochs: list) -> float:
    """Expected window reward: sum over epochs of E * M * q."""
    _require(len(epochs) > 0, "window must contain at least one epoch")
    return math.fsum(ep.network.expected_blocks * ep.network.block_reward
                     * ep.share.win_probability for ep in epochs)


def variance_paper(epochs: list) -> float:
    """Window reward variance, closed form with the exponential integral.

    Evaluates, term by term,
        e^{-E} * E^2 * M^2 * [1 + q(1-q) * (Ei(E) - log(E) - gamma)],
    summed over the window. Dimensionally inconsistent with the thinning
    derivation (see variance_thinned); reported side by side so Monte Carlo
    can adjudicate, never silently corrected.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    total = 0.0
    for ep in epochs:
        e = ep.network.expected_blocks
        m = ep.network.block_reward
        q = ep.share.win_probability
        bracket = 1.0 + q * (1.0 - q) * (specfun.exp_integral_ei(e)
                                         - math.log(e)
                                         - specfun.EULER_MASCHERONI)
        total += math.exp(-e) * e * e * m * m * bracket
    return total


def variance_thinned(epochs: list) -> float:
    """Window reward variance via Poisson thinning: sum of M^2 * E * q.

    Independent oracle for variance_paper: per-epoch wins are Poisson(E*q),
    so rewards have variance M^2 E q per epoch, and independent epochs add.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    return math.fsum(ep.network.block_reward ** 2 * ep.network.expected_blocks
                     * ep.share.win_probability for ep in epochs)
