"""Distributions and moments of a miner's block wins and rewards.

Per-epoch win counts marginalize a Binomial over the Poisson block count,
which thins to Poisson(E*q). Rewards live on the lattice {0, M, 2M, ...};
independent Poisson win counts add up to one Poisson, so a whole window
on one lattice is a single Poisson pmf. Masses come from Loader's
saddle-point form (C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000), which keeps full relative accuracy at large means.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import UnsupportedLatticeError, ValidationError


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


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n), exact for n = 1..15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
# masses one lattice pmf may hold (80 MB as a float64 array)
_MAX_MASSES = 10 ** 7


def _stirlerr(n: np.ndarray) -> np.ndarray:
    # the table up to 15, the Stirling series 1/(12n) - 1/(360n^3) + ...
    # above, where its fifth term is below 1e-17 of the first
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn)
                                   / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.intp)],
                    series)


def _bd0(x: np.ndarray, mean: float) -> np.ndarray:
    # x log(x/mean) + mean - x for x > 0. The direct form cancels near
    # x = mean: switched at Loader's |v| = 0.1 it still costs up to 6e-12
    # relative in the pmf at mean ~ 3e4, so for 1/2 < x/mean < 2 it is
    # summed as d v + 2 x sum_j v^(2j+1)/(2j+1), v = d/(x + mean),
    # |v| < 1/3, where 18 terms reach 1e-18
    d = x - mean
    v = d / (x + mean)
    v2 = v * v
    tail = np.zeros_like(v)
    for j in range(18, 0, -1):
        tail = (tail + 1.0 / (2 * j + 1)) * v2
    series = d * v + 2.0 * x * v * tail
    direct = x * np.log1p(d / mean) - d
    return np.where(np.abs(v) < 1.0 / 3.0, series, direct)


def _poisson_pmf(k, mean: float) -> np.ndarray:
    """Poisson(mean) masses at the counts k (an int or an array of ints).

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, mean))/sqrt(2 pi k),
    with exp(-mean) at k = 0. Masses above 1e-290 agree with exact ones
    to 3e-13 relative for means 1e-3 to 1e6, where exp(-mean) mean^k / k!
    through lgamma loses digits as the mean grows.
    """
    k = np.asarray(k, dtype=float)
    if mean == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    pos = np.maximum(k, 1.0)
    masses = np.exp(-_stirlerr(pos) - _bd0(pos, mean)) \
        / np.sqrt(2.0 * math.pi * pos)
    return np.where(k == 0, math.exp(-mean), masses)


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
    return float(_poisson_pmf(v, expected_blocks * win_probability))


def epoch_reward_pmf(network: NetworkParams, share: MinerShare,
                     tail_tol: float = 1e-12) -> LatticePmf:
    """Reward distribution for one epoch on the lattice {0, M, 2M, ...}.

    The win count is Poisson(mu), mu = E*q. Masses are computed in one call
    for k = 0..floor(mu + 40 sqrt(mu) + 40), past which the tail is
    negligible, then cut where the omitted upper tail, summed from the top
    end, falls below 1e-3 * tail_tol; the lower tail is kept. A pmf that
    would need more than 10**7 masses is refused before any is computed.

    For M = 0 every outcome pays nothing and the pmf degenerates to a unit
    mass at 0 (reported on a unit lattice since the step would vanish).
    """
    _require(0 < tail_tol < 1, "tail_tol must lie in (0, 1)")
    m = network.block_reward
    if m == 0.0:
        return LatticePmf(step=1.0, masses=(1.0,), tail_tol=tail_tol)
    mean = network.expected_blocks * share.win_probability
    top = math.floor(mean + 40.0 * math.sqrt(mean) + 40.0)
    _require(top < _MAX_MASSES,
             f"reward pmf at win mean {mean:.6g} needs {top + 1} masses, "
             f"more than {_MAX_MASSES}")
    masses = _poisson_pmf(np.arange(top + 1), mean)
    # tails[k] = sum of masses[k:], accumulated from the smallest mass up
    tails = np.cumsum(masses[::-1])[::-1]
    below = tails < 1e-3 * tail_tol
    count = int(np.argmax(below)) if below[-1] else len(masses)
    return LatticePmf(step=m, masses=tuple(masses[:count].tolist()),
                      tail_tol=tail_tol)


def _runs(epochs: list) -> list:
    """(epoch, count) for each run of equal consecutive epochs."""
    return [(ep, len(list(group))) for ep, group in itertools.groupby(epochs)]


def total_reward_pmf(epochs: list, tail_tol: float = 1e-12) -> LatticePmf:
    """Distribution of the summed reward over a window, as one Poisson pmf.

    Epoch i wins Poisson(E_i q_i) blocks, independently, so the window wins
    Poisson(sum_i E_i q_i): the pmf of one pooled epoch with sum_i E_i blocks
    and the block-weighted share, whose win mean is that sum. All epochs
    must share one block reward M so their lattices line up; heterogeneous
    rewards have no common lattice here and are delegated to the Monte
    Carlo estimator in mcsim.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    _require(0 < tail_tol < 1, "tail_tol must lie in (0, 1)")
    runs = _runs(epochs)
    rewards = {ep.network.block_reward for ep, _ in runs}
    if len(rewards) > 1:
        raise UnsupportedLatticeError(
            "epochs carry different block rewards and share no common "
            "lattice; use mcsim.simulate_epochs to estimate the total")
    blocks = math.fsum(n * ep.network.expected_blocks for ep, n in runs)
    wins = math.fsum(n * (ep.network.expected_blocks
                          * ep.share.win_probability) for ep, n in runs)
    pooled = NetworkParams(expected_blocks=blocks,
                           block_reward=rewards.pop(), power=1.0)
    share = MinerShare.from_probability(wins / blocks, pooled.power)
    return epoch_reward_pmf(pooled, share, tail_tol)


def expected_total_reward(epochs: list) -> float:
    """Expected window reward: sum over epochs of E * M * q."""
    _require(len(epochs) > 0, "window must contain at least one epoch")
    return math.fsum(n * (ep.network.expected_blocks * ep.network.block_reward
                          * ep.share.win_probability)
                     for ep, n in _runs(epochs))


def variance_paper(epochs: list) -> float:
    """Window reward variance, closed form with the exponential integral.

    Evaluates, for each run of n equal epochs,
        n * e^{-E} * E^2 * M^2 * [1 + q(1-q) * (Ei(E) - log(E) - gamma)],
    summed over the window, so a window of identical epochs costs one Ei.
    Dimensionally inconsistent with the thinning derivation (see
    variance_thinned); reported side by side so Monte Carlo can adjudicate,
    never silently corrected.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    terms = []
    for ep, n in _runs(epochs):
        e = ep.network.expected_blocks
        m = ep.network.block_reward
        q = ep.share.win_probability
        bracket = 1.0 + q * (1.0 - q) * (specfun.exp_integral_ei(e)
                                         - math.log(e)
                                         - specfun.EULER_MASCHERONI)
        terms.append(n * (math.exp(-e) * e * e * m * m * bracket))
    return math.fsum(terms)


def variance_thinned(epochs: list) -> float:
    """Window reward variance via Poisson thinning: sum of M^2 * E * q.

    Independent oracle for variance_paper: per-epoch wins are Poisson(E*q),
    so rewards have variance M^2 E q per epoch, and independent epochs add;
    each run of n equal epochs contributes n times its term.
    """
    _require(len(epochs) > 0, "window must contain at least one epoch")
    return math.fsum(n * (ep.network.block_reward ** 2
                          * ep.network.expected_blocks
                          * ep.share.win_probability)
                     for ep, n in _runs(epochs))
