"""Seeded Monte Carlo oracles that independently check the closed forms.

All randomness flows from numpy's Philox-4x64-10 counter-based generator,
keyed by (seed, stream_id); identical configs reproduce bit-identical
streams on any platform. The Poisson, Binomial, Exponential and Gamma
samplers are built here directly on the uniform bitstream (inversion
against cached cdf tables for the Poisson at every mean and for the
Binomial, Marsaglia-Tsang with Box-Muller normals for the Gamma), so the
closed forms under test never feed their own verification. Every cdf table
spans mean -+ (60 sd + 200), clipped to its support, and sums log mass
ratios outward from the mode, so none starts from a mass that underflows.
One guided inversion serves both samplers: a Chen-Asau guide table settles
most draws, and the rest are bisected between their bucket's bounds.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import growth
from .errors import require
from .rewarddist import MinerShare, NetworkParams


# longest mean first-win wait, in epochs, the simulation takes. It bounds
# the ECDF table, one row per epoch up to the longest wait, about
# mean * ln(trials) rows: 1.5e6 rows for 10^6 trials at E q = 1.01e-5
_MAX_MEAN_WAIT = 10 ** 5
# largest Poisson mean sampled: its table holds 380k entries at 10^7
_MAX_POISSON_MEAN = 10 ** 7
# cdf entries the tables of one binomial_sample call may hold over their
# spans (80 MB as float64, as much again concatenated); 9.9e6 entries at
# E = 10^7, q = 1/2 peak at 237 MB RSS, building included, with glibc's
# default allocator settings or the CLI's (tables that size are mmapped
# either way). The tables _guided caches hold at most as many, and at most
# _MAX_TABLES tables (4,096 guides of 1,026 int32s: 16.8 MB)
_MAX_TABLE_ENTRIES = 10 ** 7
_MAX_TABLES = 4096
_BLOCK = 1 << 16
# guide[b] is the draw of key _GUIDE_EDGES[b], key u's bucket floor(u 2^10):
# edges b / 2^10, then the last double below 1 (putting a table's tail of
# entries equal to 1 past every key below 1), then 1
_GUIDE_BITS = 10
_GUIDE_EDGES = np.append(np.arange(1 << _GUIDE_BITS) / (1 << _GUIDE_BITS),
                         [np.nextafter(1.0, 0.0), 1.0])
# epochs one wealth path may hold (a few float64 arrays of 80 MB)
_MAX_HORIZON = 10 ** 7


@dataclass(frozen=True)
class SimConfig:
    """Run descriptor: seed, sample count, and a substream selector."""

    seed: int
    sample_count: int
    stream_id: int = 0

    def __post_init__(self):
        require(0 <= self.seed < 2 ** 64, "seed must fit in 64 unsigned bits")
        require(self.sample_count >= 1, "sample_count must be at least 1")
        require(0 <= self.stream_id < 2 ** 64,
                "stream_id must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimReport:
    """Point estimate with its plain-sample-variance standard error."""

    estimate: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        require(self.samples >= 2, "a report needs at least 2 samples")
        require(self.std_error >= 0, "standard error cannot be negative")


@dataclass(frozen=True)
class FirstWinResult:
    """First-win waiting times: summary stats plus the empirical CDF.

    empirical_cdf[k] is the fraction of trials whose first win came in
    epochs 1..grid[k]. Every trial runs to its first win, so censored is
    always 0; it stays for the callers that report it.
    """

    report: SimReport
    grid: np.ndarray
    empirical_cdf: np.ndarray
    censored: int


@dataclass(frozen=True)
class WealthPath:
    """One simulated wealth trajectory, truncated at the ruin epoch.

    wealth[k] is equipment value plus liquid reserve after epoch k + 1
    settles; wins[k] is that epoch's block count.
    """

    wealth: np.ndarray
    wins: np.ndarray
    bankrupt: bool
    bankrupt_epoch: Optional[int]


def _generator(config: SimConfig) -> np.random.Generator:
    key = np.array([config.seed, config.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mean_report(values: np.ndarray, seed: int, scale: float = 1.0) -> SimReport:
    n = int(values.size)
    require(n >= 2, "need at least 2 samples to estimate a standard error")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    return SimReport(estimate=scale * mean,
                     std_error=scale * sd / math.sqrt(n),
                     samples=n, seed=seed)


_cached_entries = 0  # cdf entries of the tables _guided caches


@lru_cache(maxsize=None)
def _guided(build, *args) -> tuple:
    # (first, cdf, guide) for (first, cdf) = build(*args), where cdf[k] is
    # P(X <= first + k)
    global _cached_entries
    first, cdf = build(*args)
    _make_room(1, cdf.size)
    _cached_entries += cdf.size
    guide = np.searchsorted(cdf, _GUIDE_EDGES, side="right")
    guide = first + np.minimum(guide, cdf.size - 1)
    return first, cdf, _read_only(guide.astype(np.int32))


def _make_room(tables: int, entries: int) -> None:
    # drop every table _guided caches if `tables` more tables holding
    # `entries` cdf entries would take the cache past _MAX_TABLES or
    # _MAX_TABLE_ENTRIES; the count restarts after any clear
    global _cached_entries
    held = _guided.cache_info().currsize
    if held == 0:
        _cached_entries = 0
    elif (held + tables > _MAX_TABLES
          or _cached_entries + entries > _MAX_TABLE_ENTRIES):
        _guided.cache_clear()
        _cached_entries = 0


def _invert(tables: dict, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    # draw i is first + searchsorted(cdf, u[i], "right"), capped at the last
    # count, for (first, cdf, guide) = tables[index[i]] and u[i] in [0, 1]: it
    # lies between guide[b] and guide[b + 1], b = u[i]'s bucket, bisected
    keys = np.fromiter(tables, dtype=np.intp)
    firsts, cdfs, guides = zip(*tables.values())
    table, guide = np.concatenate(cdfs), np.concatenate(guides)
    # table[base[j] + d] is the cdf entry of draw d in the j-th table
    base = np.cumsum([0, *map(len, cdfs[:-1])]) - firsts
    # cell[w - w0] is where the guide of tables[w] starts
    w0 = keys.min()
    cell = np.zeros(keys.max() - w0 + 1, dtype=np.intp)
    cell[keys - w0] = np.arange(keys.size) * _GUIDE_EDGES.size
    out = np.empty(u.size, dtype=np.int64)
    for lo in range(0, u.size, _BLOCK):  # bounds the temporaries
        x = u[lo:lo + _BLOCK]
        c = (x * (1 << _GUIDE_BITS)).astype(np.intp)
        if keys.size > 1:  # one table's guide starts at 0
            c += cell[index[lo:lo + _BLOCK] - w0]
        found = guide[c]
        miss = np.flatnonzero(found != guide[1:][c])
        b, x = base[c[miss] // _GUIDE_EDGES.size], x[miss]
        low, high = found[miss] + b, guide[1:][c[miss]] + b
        for _ in range(int(np.max(high - low, initial=0)).bit_length()):
            mid = (low + high) >> 1
            right = table[mid] <= x
            low = np.where(right, mid + 1, low)
            high = np.where(right, high, mid)
        found[miss] = np.minimum(low, high) - b  # key 1 ends past high
        out[lo:lo + _BLOCK] = found
    return out


def _span(mean, sd, top) -> tuple:
    # first and last count of cdf tables: mean -+ (60 sd + 200) within
    # [0, top]; every mass outside, below e^-1000 of the mode's, underflows
    half = 60.0 * sd + 200.0
    return (np.maximum(mean - half, 0.0).astype(np.int64),
            np.minimum(mean + half, top).astype(np.int64))


def _poisson_cdf_table(mean: float) -> tuple:
    # first count and cumulative Poisson probabilities over its span, from
    # the steps log(mean/j); built here, not read from rewarddist, whose
    # pmfs verify checks against these draws
    require(mean <= _MAX_POISSON_MEAN,
            f"Poisson mean {mean:.6g} exceeds the sampler's limit of "
            f"{_MAX_POISSON_MEAN}")
    first, last = _span(mean, math.sqrt(mean), math.inf)
    step = np.log(mean / np.arange(first + 1, last + 1))
    return first, _cdf_from_steps(step, int(mean) - first)


def _binomial_cdf_table(trials: int, q: float) -> tuple:
    # first count and cumulative Binomial(trials, q) probabilities over its
    # span, from the steps log((w - j + 1)/j) + log q - log1p(-q)
    mean = trials * q
    first, last = _span(mean, np.sqrt(mean * (1.0 - q)), trials)
    if q in (0.0, 1.0):  # the log of q or of 1 - q is -inf
        return first, _read_only(np.append(np.full(last - first, 1 - q), 1.0))
    step = np.arange(trials - first, trials - last, -1.0)
    step /= np.arange(first + 1.0, last + 1)
    np.log(step, out=step)
    step += math.log(q) - math.log1p(-q)
    mode = min(math.floor((trials + 1) * q), trials)
    return first, _cdf_from_steps(step, mode - first)


def _cdf_from_steps(step: np.ndarray, mode: int) -> np.ndarray:
    # cdf of the counts first + k, k = 0..step.size, from step[k - 1] =
    # log p(k)/p(k-1), in one array: log p(k)/p(mode) sums the steps outward
    # from the mode (no first mass to underflow); masses divide by their sum
    cdf = np.empty(step.size + 1)
    below = cdf[:mode][::-1]
    np.add.accumulate(step[:mode][::-1], out=below)
    np.negative(below, out=below)
    cdf[mode] = 0.0
    np.add.accumulate(step[mode:], out=cdf[mode + 1:])
    np.exp(cdf, out=cdf)
    np.add.accumulate(cdf, out=cdf)
    return _read_only(np.divide(cdf, cdf[-1], out=cdf))


def _read_only(table: np.ndarray) -> np.ndarray:
    # cached tables are shared by every later draw: refuse in-place edits
    table.flags.writeable = False
    return table


def poisson_sample(rng: np.random.Generator, mean: float,
                   size: int) -> np.ndarray:
    """Poisson draws by inversion against the mean's cached cdf table.

    One uniform per draw; the table spans mean -+ (60 sd + 200), so a mean
    past 10^7, whose table would pass 380k entries, is refused.
    """
    require(mean >= 0 and math.isfinite(mean),
            "Poisson mean must be nonnegative and finite")
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    return _invert({0: _guided(_poisson_cdf_table, mean)},
                   np.broadcast_to(0, size), rng.random(size))


def binomial_sample(rng: np.random.Generator, trials: np.ndarray,
                    q: float) -> np.ndarray:
    """Binomial(trials[i], q) draws, one uniform per entry.

    Each entry is inverted against its trial count's cached cdf table,
    which spans w q -+ (60 sd + 200), clipped to 0..w, with sd =
    sqrt(w q (1 - q)). Drawing order and uniform consumption depend only on
    the length of `trials`, keeping streams reproducible. Counts whose
    spans hold more than 10^7 entries in all are refused before any table
    is built.
    """
    require(0.0 <= q <= 1.0, "success probability must lie in [0, 1]")
    u = rng.random(trials.size)
    if not trials.size:
        return np.empty(0, dtype=np.int64)
    counts = np.flatnonzero(np.bincount(trials))
    mean = counts * q
    first, last = _span(mean, np.sqrt(mean * (1.0 - q)), counts)
    entries = int((last - first).sum()) + counts.size
    require(entries <= _MAX_TABLE_ENTRIES,
            f"{counts.size} distinct block counts up to {counts[-1]} need "
            f"{entries} Binomial table entries, more than "
            f"{_MAX_TABLE_ENTRIES}")
    _make_room(counts.size, entries)
    return _invert({w: _guided(_binomial_cdf_table, int(w), q)
                    for w in counts}, trials, u)


def exponential_sample(rng: np.random.Generator, rate: float,
                       size: int) -> np.ndarray:
    """Exponential draws by inversion, -log1p(-u)/rate."""
    require(rate > 0 and math.isfinite(rate), "rate must be positive and finite")
    return -np.log1p(-rng.random(size)) / rate


def gamma_sample(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    """Gamma(shape[i], 1) draws for shapes >= 1, by Marsaglia & Tsang.

    Each round gives every pending entry a normal x, using both Box-Muller
    normals of each uniform pair, and one uniform u. With d = shape - 1/3
    and v = (1 + x / sqrt(9 d))^3, it accepts d v when v > 0 and
    log(1 - u) < x^2/2 + d (1 - v + log v); the rest draw again.
    """
    out = np.empty(shape.size)
    for lo in range(0, shape.size, _BLOCK):  # bounds the temporaries
        d = shape[lo:lo + _BLOCK] - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        pending = np.arange(d.size)
        while pending.size:
            m = pending.size
            radius = np.sqrt(-2.0 * np.log1p(-rng.random((m + 1) // 2)))
            angle = 2.0 * math.pi * rng.random((m + 1) // 2)
            x = np.concatenate((radius * np.cos(angle),
                                radius * np.sin(angle)))[:m]
            u = rng.random(m)
            dp, v = d[pending], (1.0 + c[pending] * x) ** 3
            live = np.flatnonzero(v > 0.0)
            taken = live[np.log1p(-u[live]) < 0.5 * x[live] ** 2
                         + dp[live] * (1.0 - v[live] + np.log(v[live]))]
            out[lo + pending[taken]] = dp[taken] * v[taken]
            pending = np.delete(pending, taken)
    return out


def _first_won_block(u: np.ndarray, q: float) -> np.ndarray:
    # K ~ Geometric(q) by inversion, K = ceil(log1p(-u) / log1p(-q)) >= 1:
    # P(K > k) = P(1 - u < (1 - q)^k) = (1 - q)^k
    if q == 1.0:
        return np.ones(u.size)
    return np.maximum(1.0, np.ceil(np.log1p(-u) / math.log1p(-q)))


def _win_given_w(w: np.ndarray, q: float) -> np.ndarray:
    # P(any win | w) = 1 - (1-q)^w, once per count in [w.min(), w.max()]
    lo = w.min()
    return -np.expm1(np.log1p(-q) * np.arange(lo, w.max() + 1))[w - lo]


@dataclass(frozen=True)
class EpochBatch:
    """Simulated epochs: per-epoch block totals, blocks won and rewards."""

    blocks_total: np.ndarray
    blocks_won: np.ndarray
    rewards: np.ndarray

    def __len__(self):
        return len(self.blocks_total)


def simulate_epochs(network: NetworkParams, share: MinerShare,
                    config: SimConfig) -> EpochBatch:
    """Protocol-level epoch simulation: w ~ Poisson(E), v ~ Binomial(w, q)."""
    rng = _generator(config)
    n = config.sample_count
    w = poisson_sample(rng, network.expected_blocks, n)
    v = binomial_sample(rng, w, share.win_probability)
    return EpochBatch(blocks_total=w, blocks_won=v,
                      rewards=network.block_reward * v.astype(float))


def estimate_first_win_time(network: NetworkParams, share: MinerShare,
                            config: SimConfig) -> FirstWinResult:
    """Epochs until the first won block, over config.sample_count trials.

    Epoch 1 is swept: each trial draws its block count w, then one uniform
    against P(any win | w) = 1 - (1-q)^w, which marginalizes the Binomial
    exactly. Blocks arrive as a Poisson process of rate E per epoch, which
    restarts at the epoch boundary, so each survivor's first won block is
    the K-th after it, K ~ Geometric(q), and arrives G/E epochs later with
    G ~ Gamma(K, 1) (gamma_sample): the win lands in epoch 1 + ceil(G/E).
    Wins land at the epoch midpoint k - 1/2, the natural continuous-time
    reading of "during epoch k"; the empirical CDF is reported on the
    integer epoch grid, where the midpoint convention drops back out. The
    route never reads the closed form p0 = 1 - e^{-Eq}. A win rate E q
    below 10^-5 per epoch (zero included), a mean wait past 10^5 epochs,
    is refused.
    """
    e = network.expected_blocks
    q = share.win_probability
    # E q sizes the ECDF table only; the estimate never reads it
    require(e * q * _MAX_MEAN_WAIT >= 1.0,
            f"win rate E q = {e * q:.6g} per epoch puts the mean first win "
            f"past {_MAX_MEAN_WAIT} epochs")
    rng = _generator(config)
    n = config.sample_count

    w = poisson_sample(rng, e, n)
    win_given_w = _win_given_w(w, q) if q < 1.0 else w > 0
    won = rng.random(n) < win_given_w
    lost = np.flatnonzero(~won)
    blocks = gamma_sample(rng, _first_won_block(rng.random(lost.size), q))
    epochs = np.ones(n, dtype=np.int64)
    epochs[lost] += np.ceil(blocks / e).astype(np.int64)
    report = _mean_report(epochs - 0.5, config.seed)

    ecdf = np.cumsum(np.bincount(epochs)) / n
    return FirstWinResult(report=report, grid=np.arange(ecdf.size),
                          empirical_cdf=ecdf, censored=0)


def _positive_poisson(rng: np.random.Generator, mean: float,
                      size: int) -> np.ndarray:
    # Poisson(mean) conditioned on >= 1: keys in [cdf[0], 1] skip count 0
    # (a table starting past 0 has cdf[0] = 0)
    table = _guided(_poisson_cdf_table, mean)
    u = table[1][0] + rng.random(size) * (1.0 - table[1][0])
    return _invert({0: table}, np.broadcast_to(0, size), u)


def round_payoffs(plan: growth.MinerPlan, network: NetworkParams,
                  config: SimConfig,
                  reward_mode: str = "conditional_mean") -> np.ndarray:
    """Per-trial log payoffs behind round_oracle (without the lambda factor).

    Each trial draws the first-win wait t ~ Exponential(lambda). Wins
    (t <= t_max) pay log((W(1 - t gamma c_e c_r) + R)/W) with R either the
    conditional mean reward or a sampled M*v, v ~ Poisson(Eq) given v >= 1;
    losses pay log(gamma).
    """
    require(reward_mode in ("conditional_mean", "sampled"),
            f"unknown reward mode {reward_mode!r}")
    rng = _generator(config)
    n = config.sample_count
    t = exponential_sample(rng, growth.win_rate_lambda(plan, network), n)
    win = t <= growth.t_max(plan)
    payoff = np.full(n, math.log(plan.split))
    if reward_mode == "conditional_mean":
        rho = growth.conditional_reward(plan, network) / plan.wealth
    else:
        q = growth.win_probability(plan, network)
        v = _positive_poisson(rng, network.expected_blocks * q,
                              int(win.sum()))
        rho = network.block_reward * v.astype(float) / plan.wealth
    payoff[win] = np.log(1.0 - plan.drain_rate * t[win] + rho)
    return payoff


def round_oracle(plan: growth.MinerPlan, network: NetworkParams,
                 config: SimConfig,
                 reward_mode: str = "conditional_mean") -> SimReport:
    """Formula-faithful game simulation of the stochastic growth rate.

    Averages round_payoffs; the estimate and its standard error carry the
    formula's leading factor lambda, matching the closed-form construction.
    """
    payoff = round_payoffs(plan, network, config, reward_mode)
    lam = growth.win_rate_lambda(plan, network)
    return _mean_report(payoff, config.seed, scale=lam)


def simulate_wealth_path(plan: growth.MinerPlan, network: NetworkParams,
                         horizon: int, config: SimConfig) -> WealthPath:
    """One wealth trajectory under fixed equipment and per-epoch costs.

    Settlement convention: each epoch the reserve pays the running cost
    gamma W c_e c_r, then collects M*v with v ~ Poisson(Eq); the miner is
    bankrupt at the first epoch whose settled reserve is <= 0, and mines
    through that epoch. Equipment is never sold, so reported wealth is
    gamma W plus the reserve. A horizon past 10^7 epochs is refused.
    """
    require(1 <= horizon <= _MAX_HORIZON,
            f"a wealth path of {horizon} epochs is outside [1, "
            f"{_MAX_HORIZON}]")
    rng = _generator(config)
    q = growth.win_probability(plan, network)
    v = poisson_sample(rng, network.expected_blocks * q, horizon)
    cost = plan.run_cost_per_epoch
    reserve = (plan.reserve - cost * np.arange(1, horizon + 1)
               + network.block_reward * np.cumsum(v))
    equipment = plan.split * plan.wealth

    ruined = np.nonzero(reserve <= 0.0)[0]
    if ruined.size:
        stop = int(ruined[0])
        return WealthPath(wealth=equipment + reserve[:stop + 1],
                          wins=v[:stop + 1], bankrupt=True,
                          bankrupt_epoch=stop + 1)
    return WealthPath(wealth=equipment + reserve, wins=v,
                      bankrupt=False, bankrupt_epoch=None)
