"""Distributions and moments of a miner's block wins and rewards.

Per-epoch win counts marginalize a Binomial over the Poisson block count,
which thins to Poisson(E*q). Rewards live on the lattice {0, M, 2M, ...}.
A window is N identical epochs, given by one epoch's network and share and
the count N. Independent Poisson win counts add up to one Poisson, so the
window's reward is the pmf of one epoch with N*E blocks, and each moment is
N times its one-epoch term. Masses come from Loader's saddle-point form
(C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
2000), which keeps full relative accuracy at large means.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .errors import require


@dataclass(frozen=True)
class NetworkParams:
    """Chain-level constants: blocks/epoch E, block reward M, and power P0.

    power is P0, the competing power before the miner joins; a miner of
    power p then wins each block with probability q = p/(P0 + p)
    (growth.win_probability).
    """

    expected_blocks: float
    block_reward: float
    power: float

    def __post_init__(self):
        require(math.isfinite(self.expected_blocks) and self.expected_blocks > 0,
                "expected_blocks must be positive and finite")
        require(math.isfinite(self.block_reward) and self.block_reward >= 0,
                "block_reward must be nonnegative and finite")
        require(math.isfinite(self.power) and self.power > 0,
                "network power must be positive and finite")


@dataclass(frozen=True)
class MinerShare:
    """A miner's per-block win probability q."""

    win_probability: float

    def __post_init__(self):
        require(0.0 <= self.win_probability <= 1.0,
                "win probability must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class LatticePmf:
    """Probability masses on the uniform lattice {0, step, 2*step, ...}.

    Truncated so the retained mass is within tail_tol of 1; immutable, with
    the masses held as a read-only float array (a writeable one is copied).
    """

    step: float
    masses: np.ndarray
    tail_tol: float

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.flags.writeable:
            masses = masses.copy()
            masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        require(math.isfinite(self.step) and self.step > 0,
                "lattice step must be positive")
        require(masses.ndim == 1 and masses.size > 0,
                "pmf must carry at least one mass")
        require(bool(np.all(masses >= 0)), "masses must be nonnegative")
        require(0 < self.tail_tol < 1, "tail_tol must lie in (0, 1)")
        object.__setattr__(self, "_total", _exact_sum(masses))
        require(1.0 - self.tail_tol <= self._total <= 1.0 + 1e-12,
                f"total mass {self._total!r} outside [1 - tail_tol, 1]")

    def points(self) -> np.ndarray:
        return self.step * np.arange(len(self.masses))

    def total_mass(self) -> float:
        return self._total

    def mean(self) -> float:
        # (m j) step, not m (j step): the last bits of pmf_mean depend on it
        if "_mean" not in vars(self):
            terms = self.masses * np.arange(len(self.masses)) * self.step
            object.__setattr__(self, "_mean", _exact_sum(terms))
        return self._mean

    def variance(self) -> float:
        mu = self.mean()
        points = self.points()
        return _exact_sum(self.masses * (points * points)) - mu * mu


def _exact_sum(values: np.ndarray) -> float:
    # fsum rounds correctly in any order; largest first keeps partials few
    return math.fsum(np.sort(values)[::-1].tolist())


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n), exact for n = 1..15
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
# masses one lattice pmf may hold (80 MB as a float64 array)
_MAX_MASSES = 10 ** 7
# win_count_pmf_series stops once a term falls below this share of the sum
_TERM_TOL = 1e-16


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


def win_count_pmf_series(v: int, network: NetworkParams,
                         share: MinerShare) -> float:
    """P(miner wins v blocks in an epoch), by direct series summation.

    Sums Binomial(v; w, q) * Poisson(w; E) over w >= v, truncating once terms
    fall below _TERM_TOL times the running sum and w has cleared the Poisson
    bulk E + 10*sqrt(E).
    """
    require(v >= 0, "win count must be nonnegative")
    e, q = network.expected_blocks, share.win_probability
    if q == 0.0:
        return 1.0 if v == 0 else 0.0

    # the w = v term, Binomial(v; v, q) Poisson(v; E) = q^v e^{-E} E^v / v!
    term = math.exp(-e) if v == 0 else math.exp(
        -e + v * (math.log(e) + math.log(q)) - math.lgamma(v + 1))
    total = term
    bulk = e + 10.0 * math.sqrt(e)
    w = v
    while True:
        # t_{w+1}/t_w = (1-q) E / (w+1-v)
        w += 1
        term *= (1.0 - q) * e / (w - v)
        total += term
        if w > bulk and (term == 0.0 or term < _TERM_TOL * total):
            break
    return min(total, 1.0)


def win_count_pmf_closed(v: int, network: NetworkParams,
                         share: MinerShare) -> float:
    """P(miner wins v blocks in an epoch): Poisson thinning closed form.

    Keeping each of Poisson(E) blocks independently with probability q makes
    the win count Poisson(E*q); cross-checked against win_count_pmf_series.
    """
    require(v >= 0, "win count must be nonnegative")
    return float(_poisson_pmf(v, network.expected_blocks
                              * share.win_probability))


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
    require(0 < tail_tol < 1, "tail_tol must lie in (0, 1)")
    m = network.block_reward
    if m == 0.0:
        return LatticePmf(step=1.0, masses=np.ones(1), tail_tol=tail_tol)
    mean = network.expected_blocks * share.win_probability
    top = math.floor(mean + 40.0 * math.sqrt(mean) + 40.0)
    require(top < _MAX_MASSES,
            f"reward pmf at win mean {mean:.6g} needs {top + 1} masses, "
            f"more than {_MAX_MASSES}")
    masses = _poisson_pmf(np.arange(top + 1), mean)
    # tails[k] = sum of masses[k:], accumulated from the smallest mass up
    tails = np.cumsum(masses[::-1])[::-1]
    below = tails < 1e-3 * tail_tol
    count = int(np.argmax(below)) if below[-1] else len(masses)
    masses.flags.writeable = False
    return LatticePmf(step=m, masses=masses[:count], tail_tol=tail_tol)


def total_reward_pmf(network: NetworkParams, share: MinerShare,
                     epochs: int) -> LatticePmf:
    """Distribution of the summed reward over a window of identical epochs.

    Each epoch wins Poisson(E q) blocks independently, so the window wins
    Poisson(epochs * E * q): the reward pmf of one epoch with epochs * E
    expected blocks, on the same lattice {0, M, 2M, ...}.
    """
    require(epochs >= 1, "window must contain at least one epoch")
    pooled = replace(network,
                     expected_blocks=epochs * network.expected_blocks)
    return epoch_reward_pmf(pooled, share)


def expected_total_reward(network: NetworkParams, share: MinerShare,
                          epochs: int) -> float:
    """Expected window reward: epochs * E * M * q."""
    require(epochs >= 1, "window must contain at least one epoch")
    return epochs * (network.expected_blocks * network.block_reward
                     * share.win_probability)


def variance_paper(network: NetworkParams, share: MinerShare,
                   epochs: int) -> float:
    """Window reward variance, closed form with the exponential integral.

    Evaluates
        epochs * e^{-E} * E^2 * M^2 * [1 + q(1-q) * (Ei(E) - log(E) - gamma)]
    as epochs * E^2 * M^2 * [e^{-E} + q(1-q) * (e^{-E} Ei(E)
    - e^{-E} (log(E) + gamma))], so a window costs one scaled Ei, finite at
    every E > 0. Dimensionally inconsistent with the thinning
    derivation (see variance_thinned); reported side by side so Monte Carlo
    can adjudicate, never silently corrected.
    """
    require(epochs >= 1, "window must contain at least one epoch")
    e = network.expected_blocks
    m = network.block_reward
    q = share.win_probability
    decay = math.exp(-e)
    bracket = decay + q * (1.0 - q) * (
        specfun.exp_integral_ei(e, scaled=True)
        - decay * (math.log(e) + specfun.EULER_MASCHERONI))
    return epochs * (e * e * m * m * bracket)


def variance_thinned(network: NetworkParams, share: MinerShare,
                     epochs: int) -> float:
    """Window reward variance via Poisson thinning: epochs * M^2 * E * q.

    Independent oracle for variance_paper: per-epoch wins are Poisson(E*q),
    so rewards have variance M^2 E q per epoch, and independent epochs add.
    """
    require(epochs >= 1, "window must contain at least one epoch")
    return epochs * (network.block_reward ** 2 * network.expected_blocks
                     * share.win_probability)



