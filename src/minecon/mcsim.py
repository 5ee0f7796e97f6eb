"""Seeded Monte Carlo oracles that independently check the closed forms.

All randomness flows from numpy's Philox-4x64-10 counter-based generator,
keyed by (seed, stream_id); identical configs reproduce bit-identical
streams on any platform. The Poisson, Binomial, Exponential and Gamma
samplers are built here directly on the uniform bitstream (inversion
against cdf tables for the Poisson at every mean and for the Binomial,
Marsaglia-Tsang with Box-Muller normals for the Gamma), so the closed forms
under test never feed their own verification. Every cdf table spans mean
-+ (60 sd + 200), clipped to its support, and sums log mass ratios outward
from the mode, so none starts from a mass that underflows. One store holds
every table once, with its Chen-Asau guide, for both samplers' inversion:
the guide settles most draws, the rest are bisected within their bucket.
Stage k of a simulator starts at uniform k n of its stream, n being its
draw count. Philox is counter-based, so each stage can have its own cursor:
the round, epoch, first-win and window simulators draw their stages in
blocks. A window path of N epochs draws its total in one go where that
takes fewer uniforms than its 2 N epoch draws: W ~ Poisson(N E) from
uniform 0, then Binomial(W, q) as the sum of Binomial(2^b, q) over W's
binary digits, a fixed `bits` draws a path from uniform n (the paths), so
its binomial tables are those of 0 and of the powers of two. One fold
merges the blocks' integer histograms of blocks won per epoch, per window
path and of first-win epochs, so none of these holds an array as long as
its sample.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import growth
from .errors import require
from .rewarddist import MinerShare, NetworkParams


# longest mean first-win wait, in epochs, the simulation takes: epochs stay
# exact integers in the midpoints k - 1/2 only up to 2^52, and P(wait > k)
# = e^{-k E q}, so at E q >= 2^-46 any of 10^7 trials passes 2^52 epochs
# with probability 10^7 e^-64 < 2e-21
_MAX_MEAN_WAIT = 2 ** 46
# largest Poisson mean sampled: its table holds 380k entries at 10^7
_MAX_POISSON_MEAN = 10 ** 7
# cdf entries the tables of one binomial_sample call may hold over their
# spans (80 MB as float64); 9.9e6 entries at E = 10^7, q = 1/2 (52 epochs)
# peak at 200 MB RSS, building included, through the CLI, and at 237 MB
# under glibc's default allocator settings. The table store keeps as many
# beyond one call's own, a guide counting as _GUIDE_ENTRIES
_MAX_TABLE_ENTRIES = 10 ** 7
_BLOCK = 1 << 16
# guide[b] is the draw of key _GUIDE_EDGES[b], key u's bucket floor(u 2^10):
# edges b / 2^10, then the last double below 1 (putting a table's tail of
# entries equal to 1 past every key below 1), then 1
_GUIDE_BITS = 10
_GUIDE_EDGES = np.append(np.arange(1 << _GUIDE_BITS) / (1 << _GUIDE_BITS),
                         [np.nextafter(1.0, 0.0), 1.0])
_GUIDE_ENTRIES = _GUIDE_EDGES.size // 2  # a guide's 4.1 kB, in cdf entries
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
    """First-win waiting times: summary stats plus their histogram.

    count[k] > 0 trials first won in epoch won[k] (1, 2, ...), won rising;
    every trial runs to its first win, so the counts sum to the trials.
    """

    report: SimReport
    won: np.ndarray
    count: np.ndarray


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


def _cursor(config: SimConfig, offset: int) -> np.random.Generator:
    # the generator whose first uniform is the offset-th of (seed,
    # stream_id): Philox makes four 64-bit words per counter step, and
    # random() takes one word per double
    rng = _generator(config)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


def _mean_report(values: np.ndarray, seed: int, scale: float = 1.0) -> SimReport:
    n = int(values.size)
    require(n >= 2, "need at least 2 samples to estimate a standard error")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    return SimReport(estimate=scale * mean,
                     std_error=scale * sd / math.sqrt(n),
                     samples=n, seed=seed)


class _Store:
    """Every cdf table the samplers draw from, held once with its guide and
    concatenated for the search: slots maps (build, args) to j, and table j
    starts at table[start[j]], its guide at guide[j * _GUIDE_EDGES.size];
    table[base[j] + d] is the cdf entry of its draw d, stamped last[j] by
    the latest call to draw from it.

    A call appends the tables it needs and the store does not hold, in one
    batch, into spare room: a buffer that must grow takes room for twice
    what it then holds, so the blocks of one simulation, which keep
    bringing a few new counts, seldom copy what is already there. Beside a
    call's tables it keeps others up to _MAX_TABLE_ENTRIES, guides counted,
    latest drawn from first, moved down in place, so no held table is built
    again. _Store.cache_clear(), named as functools' caches name theirs,
    empties it where memo tables are cleared.
    """

    @classmethod
    def cache_clear(cls) -> None:
        cls.slots = {}
        cls.entries = 0
        cls.table = np.empty(0)
        cls.guide = np.empty(0, dtype=np.int32)
        cls.start = cls.base = cls.last = np.empty(0, dtype=np.int64)

    @classmethod
    def held(cls, build, args: list) -> np.ndarray:
        # slot j of the table build(*a) for each of the distinct a in args,
        # where build returns (first, cdf) with cdf[k] = P(X <= first + k)
        keys = [(build, a) for a in args]
        new = [key for key in keys if key not in cls.slots]
        if new:
            cls._add(new, set(keys))
        slots = np.array([cls.slots[key] for key in keys])
        cls.last[slots] = cls.last.max(initial=0) + 1
        return slots

    @classmethod
    def _add(cls, new: list, used: set) -> None:
        # append the tables of the keys `new`, keeping those of `used`
        firsts, cdfs = zip(*(build(*args) for build, args in new))
        sizes = np.fromiter(map(len, cdfs), dtype=np.int64, count=len(cdfs))
        cls._keep(np.array([key in used for key in cls.slots], bool))
        end = cls.entries + int(sizes.sum())
        cls.table = _grown(cls.table, cls.entries, end)
        np.concatenate(cdfs, out=cls.table[cls.entries:end])
        edges = _GUIDE_EDGES.size
        lo, hi = len(cls.slots) * edges, (len(cls.slots) + len(new)) * edges
        cls.guide = _grown(cls.guide, lo, hi)
        for guide, first, cdf in zip(cls.guide[lo:hi].reshape(-1, edges),
                                     firsts, cdfs):
            guide[:] = first + np.minimum(
                np.searchsorted(cdf, _GUIDE_EDGES, side="right"), cdf.size - 1)
        start = cls.entries + np.cumsum(sizes) - sizes
        cls.start = np.append(cls.start, start)
        cls.base = np.append(cls.base, start - np.array(firsts))
        cls.last = np.append(cls.last, np.zeros(len(new), dtype=np.int64))
        cls.entries = end
        cls.slots.update((key, j) for j, key in enumerate(new, len(cls.slots)))

    @classmethod
    def _keep(cls, keep: np.ndarray) -> None:
        # keep the tables j with keep[j], then, latest first, others that
        # fit in _MAX_TABLE_ENTRIES: they move down in place, one run at a time
        edges = _GUIDE_EDGES.size
        end = np.append(cls.start[1:], cls.entries)
        charge = end - cls.start + _GUIDE_ENTRIES
        order = np.lexsort((-cls.last, ~keep))
        room = charge[keep].sum() + _MAX_TABLE_ENTRIES
        keep[order[np.cumsum(charge[order]) <= room]] = True
        if keep.all():
            return
        runs = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        at = held = 0
        for lo, hi in runs.reshape(-1, 2).tolist():
            size = int(end[hi - 1] - cls.start[lo])
            cls.table[at:at + size] = cls.table[cls.start[lo]:end[hi - 1]]
            cls.guide[held * edges:(held + hi - lo) * edges] = \
                cls.guide[lo * edges:hi * edges]
            at, held = at + size, held + hi - lo
        sizes = (end - cls.start)[keep]
        start = np.cumsum(sizes) - sizes
        cls.base = cls.base[keep] + start - cls.start[keep]
        cls.start, cls.last, cls.entries = start, cls.last[keep], at
        kept = [key for key, k in zip(cls.slots, keep.tolist()) if k]
        cls.slots = {key: j for j, key in enumerate(kept)}

    @classmethod
    def search(cls, u: np.ndarray, cell, index=None) -> np.ndarray:
        # draw i is first + searchsorted(cdf, u[i], "right"), capped at the
        # last count, for u[i] in [0, 1] and (first, cdf) the table whose
        # guide starts at guide[cell] (guide[cell[index[i]]] given index): it
        # lies between guide[b] and guide[b + 1], b = u[i]'s bucket, bisected
        table, guide, base = cls.table, cls.guide, cls.base
        out = np.empty(u.size, dtype=np.int64)
        for lo in range(0, u.size, _BLOCK):  # bounds the temporaries
            x = u[lo:lo + _BLOCK]
            c = (x * (1 << _GUIDE_BITS)).astype(np.intp)
            c += cell if index is None else cell[index[lo:lo + _BLOCK]]
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


_Store.cache_clear()


def _grown(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    # buffer with room for `need` entries, its first `used` kept: when it
    # must grow, it takes room for 2 need, but past 2 _MAX_TABLE_ENTRIES
    # only for need, so the few tables later blocks bring fit without a copy
    if need <= buffer.size:
        return buffer
    grown = np.empty(max(need, min(2 * need, 2 * _MAX_TABLE_ENTRIES)),
                     dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


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
        return first, np.append(np.full(last - first, 1 - q), 1.0)
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
    return np.divide(cdf, cdf[-1], out=cdf)


def poisson_sample(rng: np.random.Generator, mean: float,
                   size: int) -> np.ndarray:
    """Poisson draws by inversion against the mean's held cdf table.

    One uniform per draw; the table spans mean -+ (60 sd + 200), so a mean
    past 10^7, whose table would pass 380k entries, is refused.
    """
    require(mean >= 0 and math.isfinite(mean),
            "Poisson mean must be nonnegative and finite")
    if mean == 0.0:
        return np.zeros(size, dtype=np.int64)
    j, = _Store.held(_poisson_cdf_table, [(mean,)])
    return _Store.search(rng.random(size), j * _GUIDE_EDGES.size)


def binomial_sample(rng: np.random.Generator, trials: np.ndarray,
                    q: float) -> np.ndarray:
    """Binomial(trials[i], q) draws, one uniform per entry.

    Each entry is inverted against its trial count's held cdf table,
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
    least = int(trials.min())
    index = trials - least
    counts = least + np.flatnonzero(np.bincount(index))
    mean = counts * q
    first, last = _span(mean, np.sqrt(mean * (1.0 - q)), counts)
    entries = int((last - first + 1).sum())
    require(entries <= _MAX_TABLE_ENTRIES,
            f"{counts.size} distinct block counts up to {counts[-1]} need "
            f"{entries} Binomial table entries, more than "
            f"{_MAX_TABLE_ENTRIES}")
    cell = np.zeros(counts[-1] - least + 1, dtype=np.intp)
    cell[counts - least] = _GUIDE_EDGES.size * _Store.held(
        _binomial_cdf_table, [(w, q) for w in counts.tolist()])
    return _Store.search(u, cell, index)


def exponential_sample(rng: np.random.Generator, rate: float,
                       size: int) -> np.ndarray:
    """Exponential draws by inversion, -log1p(-u)/rate."""
    require(rate > 0 and math.isfinite(rate), "rate must be positive and finite")
    t = rng.random(size)
    np.negative(t, out=t)
    np.log1p(t, out=t)
    np.negative(t, out=t)
    t /= rate
    return t


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
class EpochCounts:
    """Simulated epochs folded into counts.

    blocks_total and blocks_won sum the epochs' block totals w and blocks
    won v; count[k] > 0 epochs won won[k] blocks, won rising.
    """

    epochs: int
    blocks_total: int
    blocks_won: int
    won: np.ndarray
    count: np.ndarray

    def report(self, seed: int, scale: float = 1.0) -> SimReport:
        """Mean blocks won per epoch times scale, M for the mean reward
        per epoch, with its standard error."""
        return _histogram_report(self.won, self.count, seed, scale)


def _epoch_blocks(network: NetworkParams, share: MinerShare,
                  config: SimConfig, path: int = 1):
    # (w, v) blocks of the n = config.sample_count x path epochs, w ~
    # Poisson(E) from uniform 0 of the stream and v ~ Binomial(w, q) from
    # uniform n, as one whole-array draw puts them. Each block holds whole
    # paths of `path` epochs, about 2^16 epochs; a block builds only its
    # new counts' tables, so blocks this small cost no more than one call
    n = config.sample_count * path
    counts, wins = _cursor(config, 0), _cursor(config, n)
    step = max(1, _BLOCK // path) * path
    for lo in range(0, n, step):
        w = poisson_sample(counts, network.expected_blocks, min(step, n - lo))
        yield w, binomial_sample(wins, w, share.win_probability)


def _epoch_counts(blocks) -> EpochCounts:
    # EpochCounts of (w, v) blocks
    total = 0

    def runs():
        nonlocal total
        for w, v in blocks:
            total += int(w.sum())
            yield np.unique(v, return_counts=True)
    won, count = _fold(runs())
    return EpochCounts(epochs=int(count.sum()), blocks_total=total,
                       blocks_won=int(won @ count), won=won, count=count)


def _fold(runs) -> tuple:
    # one histogram of sorted (value, count) runs, as np.unique(x,
    # return_counts=True) gives them: held runs merge at the end and once
    # they outnumber the first's 2^16-entry blocks, O(h log h) for h values
    held = []

    def merged():
        value, count = (np.concatenate(column) for column in zip(*held))
        held.clear()  # frees the runs before the sort
        order = np.argsort(value, kind="stable")  # merges the sorted runs
        value, count = value[order], count[order]
        first = np.flatnonzero(np.diff(value, prepend=value[:1] - 1))
        return [(value[first], np.add.reduceat(count, first))]
    for run in runs:
        held.append(run)
        if len(held) > 1 + held[0][0].size // _BLOCK:
            held = merged()
    return (merged() if len(held) > 1 else held)[0]


def simulate_epochs(network: NetworkParams, share: MinerShare,
                    config: SimConfig) -> EpochCounts:
    """Protocol-level epoch simulation: w ~ Poisson(E), v ~ Binomial(w, q).

    The Poisson counts read the stream's first n uniforms and the binomial
    draws the next n, n = config.sample_count; they are drawn in blocks of
    2^16 epochs and folded into counts, so the memory a run takes does not
    grow with n.
    """
    return _epoch_counts(_epoch_blocks(network, share, config))


def _moments(values: np.ndarray, counts: np.ndarray) -> tuple:
    # n, S1 = sum x and S2 = sum x^2 of counts[i] copies of each nonnegative
    # integer values[i], as exact Python ints. x splits into limbs x_a of
    # `width` bits, (63 - bit length of n) // 2, so every int64 sum of
    # k x_a x_b, below n 2^(2 width), stays under 2^63 (width 18 at verify's
    # 10^8 window paths at N = 1); the limb sums of each 2^16 entries join
    # as Python ints
    n = int(counts.sum())
    require(n >= 2, "need at least 2 samples to estimate a standard error")
    width = (63 - n.bit_length()) // 2
    shifts = range(0, int(values.max()).bit_length(), width)
    s1 = s2 = 0
    for lo in range(0, values.size, _BLOCK):
        k = counts[lo:lo + _BLOCK]
        limbs = [values[lo:lo + _BLOCK] >> s & (1 << width) - 1
                 for s in shifts]
        for a, (s, x) in enumerate(zip(shifts, limbs)):
            kx = k * x
            s1 += int(kx.sum()) << s
            s2 += int(kx @ x) << 2 * s
            s2 += sum(int(kx @ y) << s + t + 1
                      for t, y in zip(shifts[a + 1:], limbs[a + 1:]))
    return n, s1, s2


def _histogram_report(values: np.ndarray, counts: np.ndarray, seed: int,
                      scale: float = 1.0) -> SimReport:
    # scale times the mean S1/n of counts[i] copies of each integer values[i]
    # and times its standard error, the root of (n S2 - S1^2)/(n^2 (n - 1))
    # from an integer root of 64 bits or more rounded to odd: each rounded once
    n, s1, s2 = _moments(values, counts)
    num, den = n * s2 - s1 * s1, n * n * (n - 1)
    k = max(0, 65 + (den.bit_length() - num.bit_length()) // 2)
    root = math.isqrt((num << 2 * k) // den)
    root |= root * root * den != num << 2 * k
    return SimReport(estimate=scale * (s1 / n),
                     std_error=scale * (root / (1 << k)),
                     samples=n, seed=seed)


def _window_totals(network: NetworkParams, share: MinerShare, epochs: int,
                   config: SimConfig) -> tuple:
    # (won, paths): paths[k] > 0 of the n = config.sample_count paths of
    # `epochs` epochs won won[k] blocks in all. Each path draws its total in
    # one go: its blocks W ~ Poisson(epochs E), since independent Poisson
    # counts add, then its wins Binomial(W, q), the sum of Binomial(2^b, q)
    # over W's set binary digits b, since independent binomials of one q
    # add. Only these two additivities are used, never the thinning identity
    # (nor rewarddist) that the window rows test. The totals read the stream
    # from uniform 0 and the `bits` digit draws of each path, zero digits
    # included, from n, bits being the bit length of the Poisson table's
    # last count; blocks of _BLOCK // bits paths put every uniform where a
    # whole-array draw does. Where that takes as many uniforms as the
    # paths' epochs, 2 epochs <= bits + 1, or the mean passes the Poisson
    # sampler's limit, the epochs are drawn (_epoch_blocks) and summed
    n, mean = config.sample_count, epochs * network.expected_blocks
    bits = int(_span(mean, math.sqrt(mean), math.inf)[1]).bit_length()

    def digit_draws():
        totals, digits = _cursor(config, 0), _cursor(config, n)
        step = max(1, _BLOCK // bits)
        for lo in range(0, n, step):
            w = poisson_sample(totals, mean, min(step, n - lo))
            yield binomial_sample(digits, (w[:, None] & 1 << np.arange(bits))
                                  .ravel(), share.win_probability)
    if 2 * epochs <= bits + 1 or mean > _MAX_POISSON_MEAN:
        draws = (v for _, v in _epoch_blocks(network, share, config, epochs))
        per_path = epochs
    else:
        draws, per_path = digit_draws(), bits
    return _fold(np.unique(v.reshape(-1, per_path).sum(axis=1),
                           return_counts=True) for v in draws)


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
    reading of "during epoch k": the midpoints (2k - 1)/2 have the mean
    (2 S1 - n)/(2n), S1 the exact sum of the histogram's integer epochs.
    The route never reads the closed form p0 = 1 - e^{-Eq}. A win rate E q
    below 2^-46 per epoch (zero included), a mean wait past 2^46, is refused.

    With n = config.sample_count, the block counts read the stream from
    uniform 0, the sweep from n, and K then the Gamma draws from 2n; each
    stage is drawn in blocks of 2^16 trials folded into the histogram, whose
    entry per distinct epoch is all that can grow with the sample.
    """
    e = network.expected_blocks
    q = share.win_probability
    # E q bounds the epoch numbers only; the estimate never reads it
    require(e * q * _MAX_MEAN_WAIT >= 1.0,
            f"win rate E q = {e * q:.6g} per epoch puts the mean first win "
            f"past {_MAX_MEAN_WAIT} epochs")
    n = config.sample_count
    counts, sweep = _cursor(config, 0), _cursor(config, n)
    lost = 0
    for lo in range(0, n, _BLOCK):
        w = poisson_sample(counts, e, min(_BLOCK, n - lo))
        win_given_w = _win_given_w(w, q) if q < 1.0 else w > 0
        lost += int(np.count_nonzero(sweep.random(w.size) >= win_given_w))
    # K of each lost trial from offset 2n, then the Gamma draws in one order,
    # in gamma_sample's own blocks, each block's epochs folded in
    first_won, gammas = _cursor(config, 2 * n), _cursor(config, 2 * n + lost)

    def runs():
        if lost < n:
            yield np.array([1]), np.array([n - lost])
        for lo in range(0, lost, _BLOCK):
            blocks = gamma_sample(gammas, _first_won_block(
                first_won.random(min(_BLOCK, lost - lo)), q))
            yield np.unique(1 + np.ceil(blocks / e).astype(np.int64),
                            return_counts=True)
    won, count = _fold(runs())
    return FirstWinResult(_histogram_report(2 * won - 1, count, config.seed,
                                            0.5), won, count)


def _positive_poisson(rng: np.random.Generator, mean: float,
                      size: int) -> np.ndarray:
    # Poisson(mean) conditioned on >= 1: keys in [cdf[0], 1] skip count 0
    # (a table starting past 0 has cdf[0] = 0)
    j, = _Store.held(_poisson_cdf_table, [(mean,)])
    low = _Store.table[_Store.start[j]]
    u = low + rng.random(size) * (1.0 - low)
    return _Store.search(u, j * _GUIDE_EDGES.size)


def round_payoffs(plan: growth.MinerPlan, network: NetworkParams,
                  config: SimConfig,
                  reward_mode: str = "conditional_mean") -> np.ndarray:
    """Per-trial log payoffs behind round_oracle (without the lambda factor).

    Each trial draws the first-win wait t ~ Exponential(lambda). Wins
    (t <= t_max) pay log((W(1 - t gamma c_e c_r) + R)/W) with R either the
    conditional mean reward or a sampled M*v, v ~ Poisson(Eq) given v >= 1;
    losses pay log(gamma).

    The waits read the stream from uniform 0 and the sampled rewards, one
    per win in trial order, from n = config.sample_count; both are drawn in
    blocks of 2^16 trials written into the returned payoffs.
    """
    require(reward_mode in ("conditional_mean", "sampled"),
            f"unknown reward mode {reward_mode!r}")
    n = config.sample_count
    rate = growth.win_rate_lambda(plan, network)
    horizon = growth.t_max(plan)
    if reward_mode == "conditional_mean":
        rho = growth.conditional_reward(plan, network) / plan.wealth
    else:
        mean = network.expected_blocks * growth.win_probability(plan, network)
    waits, rewards = _cursor(config, 0), _cursor(config, n)
    payoff = np.full(n, math.log(plan.split))
    for lo in range(0, n, _BLOCK):
        t = exponential_sample(waits, rate, min(_BLOCK, n - lo))
        win = t <= horizon
        block = payoff[lo:lo + t.size]
        if reward_mode == "sampled":
            v = _positive_poisson(rewards, mean, int(win.sum()))
            rho = network.block_reward * v.astype(float) / plan.wealth
        block[win] = np.log(1.0 - plan.drain_rate * t[win] + rho)
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
