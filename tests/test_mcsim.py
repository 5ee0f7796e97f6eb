"""Seeded simulators against closed forms and scipy distributions."""

import decimal
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from minecon import mcsim
from minecon.errors import ValidationError
from minecon.growth import (MinerPlan, conditional_reward, t_max,
                            win_probability, win_rate_lambda)
from conftest import epochs_whole_array, first_win_epochs_whole_array
from minecon.mcsim import (SimConfig, _binomial_cdf_table, _cdf_from_steps,
                           _cursor, _epoch_blocks, _first_won_block,
                           _generator, _histogram_report,
                           _poisson_cdf_table, _positive_poisson, _span,
                           _win_given_w, _window_totals, binomial_sample,
                           estimate_first_win_time, exponential_sample,
                           gamma_sample, poisson_sample, round_oracle,
                           round_payoffs, simulate_epochs,
                           simulate_wealth_path)
from minecon.rewarddist import (MinerShare, NetworkParams,
                                win_count_pmf_closed)


def network(e=10.0, m=1.0, p=1000.0):
    return NetworkParams(expected_blocks=e, block_reward=m, power=p)


def binomial_sample_per_count(rng, trials, q):
    """The per-count loop binomial_sample replaced, kept as its oracle: one
    float search of each count's own cdf table, offset by its first
    count."""
    u = rng.random(trials.size)
    out = np.zeros(trials.size, dtype=np.int64)
    for w in np.unique(trials):
        if w == 0:
            continue
        mask = trials == w
        first, cdf = _binomial_cdf_table(int(w), q)
        out[mask] = first + np.searchsorted(cdf, u[mask], side="right")
    return out


def record_builds(monkeypatch):
    """Wrap both table builds: built[key] lists the sizes of the tables
    built under key = (build, args), the key the table store holds them
    by."""
    built = {}

    def recording(build):
        def record(*args):
            first, cdf = build(*args)
            built.setdefault((record, args), []).append(cdf.size)
            return first, cdf
        return record

    for name in ("_poisson_cdf_table", "_binomial_cdf_table"):
        monkeypatch.setattr(mcsim, name, recording(getattr(mcsim, name)))
    return built


def charge(store, beside=()):
    """What the store holds against its limit, beside the tables of the
    keys `beside` (those the latest call drew from): each other table's cdf
    entries, its guide counting as _GUIDE_ENTRIES (513) more."""
    end = np.append(store.start[1:], store.entries)
    size = dict(zip(store.slots, (end - store.start).tolist()))
    return sum(size[key] + mcsim._GUIDE_ENTRIES for key in store.slots
               if key not in beside)


def binomial_cdf_table_full(trials, q):
    """The full-support binomial build that the span-cut table replaced,
    kept as its oracle: the cdf of every count 0..trials, for 0 < q < 1."""
    step = np.arange(trials, 0, -1.0)
    step /= np.arange(1.0, trials + 1)
    np.log(step, out=step)
    step += math.log(q) - math.log1p(-q)
    return _cdf_from_steps(step, min(math.floor((trials + 1) * q), trials))


def poisson_span(mean):
    return _span(mean, math.sqrt(mean), math.inf)


def poisson_cdf_table_concatenated(mean):
    """The Poisson table build that now runs in place through
    _cdf_from_steps, kept as its oracle: log masses relative to the mode's,
    concatenated, then exponentiated, summed and normalized."""
    first, last = poisson_span(mean)
    step = np.log(mean / np.arange(first + 1, last + 1))
    mode = int(mean) - first
    below = np.cumsum(-step[mode - 1::-1])[::-1] if mode else np.empty(0)
    log_mass = np.concatenate((below, [0.0], np.cumsum(step[mode:])))
    cdf = np.cumsum(np.exp(log_mass))
    return cdf / cdf[-1]


def first_win_sweep(network, share, config):
    """The epoch-by-epoch sweep estimate_first_win_time replaced, kept as its
    oracle: every live trial draws each epoch's block count, then one uniform
    against P(any win | w), until all have won. Returns each trial's
    midpoint-recorded wait."""
    e = network.expected_blocks
    q = share.win_probability
    rng = _generator(config)
    n = config.sample_count

    times = np.full(n, np.inf)
    active = np.arange(n)
    epoch = 0
    while active.size:
        epoch += 1
        m = active.size
        w = poisson_sample(rng, e, m)
        win_given_w = -np.expm1(np.log1p(-q) * w) if q < 1.0 else w > 0
        won = rng.random(m) < win_given_w
        times[active[won]] = epoch - 0.5
        active = active[~won]
    return times


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            SimConfig(seed=-1, sample_count=10)
        with pytest.raises(ValidationError):
            SimConfig(seed=1, sample_count=0)
        with pytest.raises(ValidationError):
            SimConfig(seed=1, sample_count=10, stream_id=2**64)


class TestSamplers:
    @pytest.mark.parametrize("mean", [0.1, 1.0, 10.0, 50.0])
    def test_poisson_moments(self, mean):
        rng = _generator(SimConfig(seed=11, sample_count=1))
        draws = poisson_sample(rng, mean, 200_000)
        se = math.sqrt(mean / draws.size)
        assert abs(float(draws.mean()) - mean) <= 4 * se
        assert float(draws.var()) == pytest.approx(mean, rel=0.02)

    @pytest.mark.parametrize("mean", [0.7, 50.0, 200.0, 1e4])
    def test_poisson_distribution_shape(self, mean):
        # from a table starting at 0 to one starting at 3,800; counts are
        # pooled in bins of floor(sd) // 10 (one count below mean 400),
        # which keeps the sampling noise in the total variation below the
        # bound
        rng = _generator(SimConfig(seed=23, sample_count=1))
        n = 400_000
        width = max(1, math.isqrt(int(mean)) // 10)
        draws = poisson_sample(rng, mean, n)
        emp = np.bincount(draws // width) / n
        ref = stats.poisson(mean).pmf(np.arange(emp.size * width))
        ref = ref.reshape(-1, width).sum(axis=1)
        tv = 0.5 * (np.abs(emp - ref).sum() + max(0.0, 1.0 - ref.sum()))
        assert tv <= 0.01

    @pytest.mark.parametrize("mean", [1e-3, 0.476, 10.0, 30.0, 200.0, 1e4,
                                      1e6, 1e7])
    def test_poisson_table_matches_mpmath(self, mean):
        # P(X <= k) = Q(k + 1, mean), the regularized upper incomplete
        # gamma, at the mode and 1, 3 and 8 sd either side of the mean
        first, cdf = _poisson_cdf_table(mean)
        assert (first, first + cdf.size - 1) == poisson_span(mean)
        assert (np.diff(cdf) >= 0).all() and cdf[-1] == 1.0
        sd = math.sqrt(mean)
        for z in (-8, -3, -1, 0, 1, 3, 8):
            k = max(0, int(mean + z * sd))
            with mpmath.workdps(30):
                want = mpmath.gammainc(k + 1, mean, mpmath.inf,
                                       regularized=True)
            assert abs(cdf[k - first] - float(want)) <= 1e-13, k

    @pytest.mark.parametrize(
        "mean", np.geomspace(1e-3, 30.0, 23).tolist() + [200.0, 1e4, 1e6,
                                                         1e7])
    def test_poisson_table_matches_concatenated_build(self, mean):
        # the in-place build keeps every Poisson table, and so every draw
        got = [x.hex() for x in _poisson_cdf_table(mean)[1].tolist()]
        want = [x.hex() for x in poisson_cdf_table_concatenated(mean).tolist()]
        assert got == want

    def test_poisson_zero_mean(self):
        rng = _generator(SimConfig(seed=5, sample_count=1))
        assert not poisson_sample(rng, 0.0, 100).any()

    @pytest.mark.parametrize("mean", [1e7 + 1.0, 1e300])
    def test_poisson_mean_past_the_table_limit_is_refused(self, mean):
        # the table would span mean -+ (60 sd + 200): 380k entries at 10^7
        rng = _generator(SimConfig(seed=5, sample_count=1))
        with pytest.raises(ValidationError, match="Poisson mean"):
            poisson_sample(rng, mean, 10)

    def test_binomial_matches_scipy(self):
        rng = _generator(SimConfig(seed=31, sample_count=1))
        trials = np.full(300_000, 12)
        draws = binomial_sample(rng, trials, 0.3)
        emp = np.bincount(draws, minlength=13) / draws.size
        ref = stats.binom(12, 0.3).pmf(np.arange(13))
        assert 0.5 * np.abs(emp - ref).sum() <= 0.01

    def test_binomial_mixed_trial_counts(self):
        rng = _generator(SimConfig(seed=37, sample_count=1))
        trials = np.repeat([0, 3, 40], 100_000)
        draws = binomial_sample(rng, trials, 0.25)
        assert not draws[trials == 0].any()
        got = draws[trials == 3].mean()
        assert got == pytest.approx(0.75, abs=0.01)
        assert draws[trials == 40].mean() == pytest.approx(10.0, abs=0.05)

    def test_binomial_edge_probabilities(self):
        rng = _generator(SimConfig(seed=41, sample_count=1))
        trials = np.full(1000, 7)
        assert not binomial_sample(rng, trials, 0.0).any()
        assert (binomial_sample(rng, trials, 1.0) == 7).all()

    @pytest.mark.parametrize("q", [0.0, 1.0, 0.3, 1.0 / 21.0, 1e-3])
    def test_binomial_matches_per_count_oracle(self, q):
        # fuzzed trial arrays: empty, zeros, E = 10 and E = 200 Poisson
        # counts, 1,200 distinct counts, and 50 counts near 10^4, whose
        # spans cut the support at the top (and at the bottom for q = 0.3
        # and q = 1)
        fuzz = np.random.default_rng(2024)
        cases = [np.zeros(0, dtype=np.int64), np.zeros(50, dtype=np.int64),
                 fuzz.poisson(10.0, 20_000),
                 fuzz.poisson(200.0, 20_000),
                 fuzz.permutation(np.repeat(np.arange(1200), 5)),
                 np.concatenate([fuzz.poisson(0.5, 5_000),
                                 fuzz.integers(0, 700, 5_000)]),
                 fuzz.integers(10 ** 4, 10 ** 4 + 50, 5_000)]
        for k, trials in enumerate(cases):
            config = SimConfig(seed=53, sample_count=1, stream_id=k)
            got = binomial_sample(_generator(config), trials, q)
            want = binomial_sample_per_count(_generator(config), trials, q)
            np.testing.assert_array_equal(got, want)

    def test_binomial_ties_match_per_count_oracle(self):
        # uniforms are k / 2^53: put them on and beside every cdf entry, so
        # ties and near-misses resolve as in the float search of one table
        q = 0.3
        trials, u = [], []
        for w in range(1, 60):
            for c in _binomial_cdf_table(w, q)[1][:-1]:
                k0 = math.floor(c * 2.0 ** 53)
                for k in range(k0 - 1, k0 + 3):
                    if 0 <= k < 2 ** 53:
                        trials.append(w)
                        u.append(k / 2.0 ** 53)

        class Fixed:
            def random(self, size):
                return np.array(u[:size])

        trials = np.array(trials)
        np.testing.assert_array_equal(
            binomial_sample(Fixed(), trials, q),
            binomial_sample_per_count(Fixed(), trials, q))

    @pytest.mark.parametrize("trials, q", [
        (10, 0.3), (60, 1e-3), (200, 1.0 / 21.0), (400, 0.5), (155, 0.99),
        (400, 0.99), (2000, 1.0 / 21.0)])
    def test_binomial_table_matches_mpmath(self, trials, q):
        # every entry of the span; at q = 0.99 past w = 154 the first mass,
        # (1 - q)^w, is below the smallest normal double. Outside the span
        # (cut at (400, 0.99) and (2000, 1/21)) the cdf is 0 or 1
        first, cdf = _binomial_cdf_table(trials, q)
        with mpmath.workdps(40):
            p = mpmath.mpf(q)
            want = np.array([float(x) for x in np.cumsum(
                [mpmath.binomial(trials, k) * p ** k * (1 - p) ** (trials - k)
                 for k in range(trials + 1)])])
        last = first + cdf.size - 1
        assert np.max(np.abs(cdf - want[first:last + 1])) <= 1e-14
        assert np.max(want[:first], initial=0.0) <= 1e-14
        assert np.min(want[last:]) >= 1.0 - 1e-14

    @pytest.mark.parametrize("trials, q", [
        (10, 0.3), (60, 1e-3), (200, 1.0 / 21.0), (400, 0.5), (155, 0.99),
        (400, 0.99), (2000, 1.0 / 21.0), (10 ** 5, 1e-12),
        (10 ** 5, 1.0 - 1e-9), (10 ** 5, 0.3), (10 ** 5, 0.5)])
    def test_binomial_table_matches_full_support_build(self, trials, q):
        # the span keeps every entry of the full-support table; the entries
        # it cuts are exactly 0 below and 1 above, so every draw stays
        first, cdf = _binomial_cdf_table(trials, q)
        mean = trials * q
        span = _span(mean, math.sqrt(mean * (1.0 - q)), trials)
        assert (first, first + cdf.size - 1) == span
        full = binomial_cdf_table_full(trials, q)
        got = [x.hex() for x in cdf.tolist()]
        want = [x.hex() for x in full[first:first + cdf.size].tolist()]
        assert got == want
        assert not full[:first].any()
        assert (full[first + cdf.size - 1:] == 1.0).all()
        if trials == 10 ** 5 and q in (0.3, 0.5):
            assert 0 < first and cdf.size < 20_000

    @pytest.mark.parametrize("trials", [155, 400])
    def test_binomial_draws_for_a_dominant_share(self, trials):
        # q = 0.99, where (1 - q)^w underflows: the draws still follow the
        # Binomial; 200,000 draws put the total variation's sampling noise
        # near 0.002
        rng = _generator(SimConfig(seed=47, sample_count=1))
        n, q = 200_000, 0.99
        draws = binomial_sample(rng, np.full(n, trials), q)
        se = math.sqrt(trials * q * (1.0 - q) / n)
        assert abs(float(draws.mean()) - trials * q) <= 5 * se
        emp = np.bincount(draws, minlength=trials + 1) / n
        ref = stats.binom(trials, q).pmf(np.arange(trials + 1))
        assert 0.5 * np.abs(emp - ref).sum() <= 0.01

    def test_binomial_refuses_oversized_tables_before_building(
            self, monkeypatch, fresh_store):
        # at most 10^7 span entries in all: at q = 1/2 each count w spans
        # w/2 -+ (30 sqrt(w) + 200), about 60,400 entries near w = 10^6, so
        # 166 counts from 10^6 pass the limit; no table is built, and the
        # store is left as it was
        rng = _generator(SimConfig(seed=47, sample_count=1))
        poisson_sample(rng, 3.0, 10)
        before = dict(fresh_store.slots), fresh_store.entries
        built = record_builds(monkeypatch)
        trials = np.arange(10 ** 6, 10 ** 6 + 166)
        half = [30.0 * math.sqrt(w) + 200.0 for w in trials.tolist()]
        want = sum(int(w / 2 + h) - int(w / 2 - h) + 1
                   for w, h in zip(trials.tolist(), half))
        assert want == 10026976
        with pytest.raises(ValidationError, match=f"{want} Binomial table "
                                                  "entries"):
            binomial_sample(rng, trials, 0.5)
        assert not built
        assert (fresh_store.slots, fresh_store.entries) == before

    def test_table_cache_stays_within_the_entry_limit(self, monkeypatch,
                                                      fresh_store):
        # with the limit at 40,000 entries, guides counted, the rounds'
        # Binomial(~50) and Poisson(~1,000) tables pass it together: held
        # tables are dropped, and the tables held after each call, whose
        # entries the store counts, never hold more than the limit
        monkeypatch.setattr(mcsim, "_MAX_TABLE_ENTRIES", 40_000)
        built = record_builds(monkeypatch)
        rng = _generator(SimConfig(seed=48, sample_count=1))
        for q in (0.5, 0.49, 0.48, 0.3):
            trials = poisson_sample(rng, 50.0, 2000)
            draws = binomial_sample(rng, trials, q)
            assert (draws <= trials).all()
            poisson_sample(rng, 2000.0 * q, 100)
            held = sum(built[key][-1] for key in fresh_store.slots)
            assert held == fresh_store.entries
            drawn = {(mcsim._poisson_cdf_table, (2000.0 * q,))}
            assert charge(fresh_store, drawn) <= 40_000
        assert len(fresh_store.slots) < len(built)

    def test_cached_tables_leave_room_for_the_next_call(self, monkeypatch,
                                                        fresh_store):
        # a second call on the same counts, whose tables hold more than
        # half the limit, builds nothing: the blocks of one window
        # simulation share their tables
        monkeypatch.setattr(mcsim, "_MAX_TABLE_ENTRIES", 40_000)
        built = record_builds(monkeypatch)
        rng = _generator(SimConfig(seed=49, sample_count=1))
        trials = poisson_sample(rng, 60.0, 2000)
        binomial_sample(rng, trials, 0.5)
        assert charge(fresh_store) > 20_000
        builds = sum(map(len, built.values()))
        binomial_sample(rng, trials, 0.5)
        assert sum(map(len, built.values())) == builds

    @pytest.mark.parametrize("draw", [
        lambda rng: poisson_sample(rng, 30.0, 5000),
        lambda rng: _positive_poisson(rng, 0.2, 5000),
        lambda rng: binomial_sample(rng, poisson_sample(rng, 80.0, 5000),
                                    0.3)])
    def test_held_tables_are_not_built_again(self, monkeypatch, fresh_store,
                                             draw):
        # a second call on the keys the store holds builds nothing and
        # leaves the store as it was: the same buffers, entries and slots
        built = record_builds(monkeypatch)
        draw(_generator(SimConfig(seed=54, sample_count=1)))
        assert built
        before = (dict(fresh_store.slots), fresh_store.entries,
                  fresh_store.table, fresh_store.guide, fresh_store.start,
                  fresh_store.base)
        contents = [a.copy() for a in before[2:]]
        builds = sum(map(len, built.values()))
        draw(_generator(SimConfig(seed=54, sample_count=1)))
        assert sum(map(len, built.values())) == builds
        after = (fresh_store.slots, fresh_store.entries, fresh_store.table,
                 fresh_store.guide, fresh_store.start, fresh_store.base)
        assert after[:2] == before[:2]
        for old, new, content in zip(before[2:], after[2:], contents):
            assert new is old
            np.testing.assert_array_equal(new, content)

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0 / 21.0, 1e-3])
    def test_binomial_tables_are_sorted(self, q):
        # cumulative masses divided by their sum, the last, stay sorted and
        # end at 1.0, so the guide and the bisection search sorted tables
        for w in range(400):
            cdf = _binomial_cdf_table(w, q)[1]
            assert (np.diff(cdf) >= 0).all(), w
            assert cdf[-1] == 1.0

    def test_exponential_moments(self):
        rng = _generator(SimConfig(seed=43, sample_count=1))
        draws = exponential_sample(rng, 0.25, 400_000)
        assert float(draws.mean()) == pytest.approx(4.0, rel=0.02)
        assert float(draws.var()) == pytest.approx(16.0, rel=0.05)
        assert float(draws.min()) > 0.0

    @pytest.mark.parametrize("shape", [1.0, 2.0, 21.0, 1e3, 1e6])
    def test_gamma_moments(self, shape):
        # Gamma(a, 1): mean a, variance a, excess kurtosis 6/a
        n = 200_000
        rng = _generator(SimConfig(seed=44, sample_count=1))
        draws = gamma_sample(rng, np.full(n, shape))
        assert np.isfinite(draws).all()
        assert float(draws.min()) > 0.0
        # no normal is used twice: continuous draws repeat no value
        assert np.unique(draws).size == n
        assert abs(float(draws.mean()) - shape) <= 5 * math.sqrt(shape / n)
        var_se = shape * math.sqrt((2.0 + 6.0 / shape) / n)
        assert abs(float(draws.var(ddof=1)) - shape) <= 5 * var_se

    def test_gamma_mixed_shapes_match_scipy(self):
        # 90,000 draws span two of the sampler's 65,536-entry blocks
        shapes = np.tile([1.0, 3.0, 40.0], 30_000)
        rng = _generator(SimConfig(seed=45, sample_count=1))
        draws = gamma_sample(rng, shapes)
        for a in (1.0, 3.0, 40.0):
            assert stats.kstest(draws[shapes == a],
                                stats.gamma(a).cdf).pvalue > 1e-3

    def test_gamma_same_seed_same_draws(self):
        shapes = np.array([1.0, 2.5, 21.0, 1e6] * 1000)
        a = gamma_sample(_generator(SimConfig(seed=46, sample_count=1)),
                         shapes)
        b = gamma_sample(_generator(SimConfig(seed=46, sample_count=1)),
                         shapes)
        np.testing.assert_array_equal(a, b)
        assert gamma_sample(_generator(SimConfig(seed=46, sample_count=1)),
                            np.empty(0)).size == 0

    @pytest.mark.parametrize("q", [0.05, 1.0 / 21.0, 0.3])
    def test_first_won_block_is_geometric(self, q):
        n = 200_000
        rng = _generator(SimConfig(seed=47, sample_count=1))
        k = _first_won_block(rng.random(n), q)
        assert (k >= 1).all() and (k == np.floor(k)).all()
        mean, var = 1.0 / q, (1.0 - q) / q ** 2
        assert abs(float(k.mean()) - mean) <= 5 * math.sqrt(var / n)
        for j in (1, 2, 5):
            tail = (1.0 - q) ** j
            assert abs(float(np.mean(k > j)) - tail) \
                <= 5 * math.sqrt(tail * (1.0 - tail) / n)

    def test_first_won_block_edges(self):
        u = np.array([0.0, 0.5, 1.0 - 2.0 ** -53])
        np.testing.assert_array_equal(_first_won_block(u, 1.0), 1.0)
        # E <= 1e7 and E q >= 1e-5 keep q >= 1e-12
        for q in (0.3, 1e-3, 1e-8, 1e-12):
            k = _first_won_block(u, q)
            assert np.isfinite(k).all() and (k >= 1).all()
            assert k[0] == 1.0
        assert _first_won_block(u, 1e-12)[-1] \
            == pytest.approx(53 * math.log(2) / 1e-12, rel=1e-6)


class FixedUniforms:
    """A generator stand-in whose random(size) returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u[:size]


def edge_uniforms(cdf):
    """Uniforms k / 2^53 on and just below every guide bucket edge b / 2^10,
    and on and beside every cdf entry."""
    edges = np.arange(1 << 10) * 2.0 ** 43
    near = np.floor(cdf * 2.0 ** 53)[:, None] + np.arange(-1.0, 3.0)
    keys = np.concatenate([edges, edges - 1.0, near.ravel()])
    keys = np.unique(keys[(keys >= 0) & (keys < 2.0 ** 53)])
    return keys / 2.0 ** 53


class TestGuideTables:
    """Guided inversion against the plain searchsorted it replaces."""

    @pytest.mark.parametrize(
        "mean", np.geomspace(1e-3, 30.0, 23).tolist() + [200.0, 1e4, 1e6])
    def test_poisson_matches_plain_search(self, mean):
        # a draw is the table's first count, above 0 past mean 3,990, plus
        # the capped plain search
        first, cdf = _poisson_cdf_table(mean)
        u = np.concatenate([edge_uniforms(cdf),
                            np.random.default_rng(7).random(20_000)])
        want = first + np.minimum(np.searchsorted(cdf, u, side="right"),
                                  cdf.size - 1)
        # the whole key set and two short prefixes
        for size in (u.size, 1024, 1023):
            np.testing.assert_array_equal(
                poisson_sample(FixedUniforms(u), mean, size), want[:size])
        # the conditioned draw maps uniforms into [cdf[0], 1], 1 included
        x = np.concatenate([cdf[0] + u * (1.0 - cdf[0]), [1.0]])
        want = np.searchsorted(cdf, x, side="right")
        j, = mcsim._Store.held(_poisson_cdf_table, [(mean,)])
        np.testing.assert_array_equal(
            mcsim._Store.search(x, j * 1026),
            first + np.minimum(want, cdf.size - 1))

    @pytest.mark.parametrize("q", [0.0, 1.0, 0.3, 1.0 / 21.0, 1e-3, 0.5])
    def test_binomial_matches_plain_search(self, q):
        # 520 distinct counts, and 3 near 10^4 whose spans cut the support,
        # shuffled so neighbouring draws use different tables
        trials, u, want = [], [], []
        for w in [*range(520), 10 ** 4, 10 ** 4 + 1, 2 * 10 ** 4]:
            first, cdf = _binomial_cdf_table(w, q)
            edges = edge_uniforms(cdf)
            trials.append(np.full(edges.size, w))
            u.append(edges)
            want.append(first + np.searchsorted(cdf, edges, side="right"))
        order = np.random.default_rng(11).permutation(
            sum(t.size for t in trials))
        trials, u, want = (np.concatenate(a)[order]
                           for a in (trials, u, want))
        np.testing.assert_array_equal(
            binomial_sample(FixedUniforms(u), trials, q), want)

    @pytest.mark.parametrize("trials", [np.zeros(0, dtype=np.int64),
                                        np.zeros(5000, dtype=np.int64)])
    def test_binomial_empty_and_zero_trials(self, trials):
        u = np.random.default_rng(3).random(trials.size)
        draws = binomial_sample(FixedUniforms(u), trials, 0.3)
        np.testing.assert_array_equal(draws,
                                      np.zeros(trials.size, dtype=np.int64))

    @pytest.mark.parametrize("build, args", [
        (_poisson_cdf_table, (3.0,)), (_poisson_cdf_table, (1e-3,)),
        (_poisson_cdf_table, (1e4,)), (_binomial_cdf_table, (5, 0.2)),
        (_binomial_cdf_table, (0, 0.2)), (_binomial_cdf_table, (5, 0.0)),
        (_binomial_cdf_table, (5, 1.0)), (_binomial_cdf_table, (300, 1.0))])
    def test_held_guides_count_entries(self, build, args, fresh_store):
        # guide[b] is the capped draw of key b / 1024, then of the last
        # double below 1, then of 1; the store holds the cdf as built,
        # table[base[j] + d] being the entry of draw d
        poisson_sample(_generator(SimConfig(seed=55, sample_count=1)), 7.0,
                       10)
        j, = fresh_store.held(build, [args])
        first, cdf = build(*args)
        guide = fresh_store.guide[j * 1026:(j + 1) * 1026]
        edges = np.append(np.arange(1024) / 1024, [1.0 - 2.0 ** -53, 1.0])
        np.testing.assert_array_equal(
            guide, first + np.minimum(np.searchsorted(cdf, edges, "right"),
                                      cdf.size - 1))
        start = fresh_store.start[j]
        assert fresh_store.base[j] == start - first
        assert fresh_store.entries == start + cdf.size
        np.testing.assert_array_equal(
            fresh_store.table[start:start + cdf.size], cdf)


def epoch_arrays(network, share, config):
    """The per-epoch block totals and wins of simulate_epochs' draws, its
    blocks concatenated as simulate --per-trial concatenates them."""
    w, v = zip(*_epoch_blocks(network, share, config))
    return np.concatenate(w), np.concatenate(v)


class TestDeterminism:
    def test_same_config_same_draws(self):
        a = simulate_epochs(network(), MinerShare(0.01),
                            SimConfig(seed=9, sample_count=5000))
        b = simulate_epochs(network(), MinerShare(0.01),
                            SimConfig(seed=9, sample_count=5000))
        assert (a.epochs, a.blocks_total, a.blocks_won) \
            == (b.epochs, b.blocks_total, b.blocks_won)
        np.testing.assert_array_equal(a.won, b.won)
        np.testing.assert_array_equal(a.count, b.count)

    def test_streams_are_distinct_and_uncorrelated(self):
        share = MinerShare(0.01)
        a, _ = epoch_arrays(network(), share,
                            SimConfig(seed=9, sample_count=100_000,
                                      stream_id=0))
        b, _ = epoch_arrays(network(), share,
                            SimConfig(seed=9, sample_count=100_000,
                                      stream_id=1))
        assert (a != b).any()
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) <= 0.01


class TestSimulateEpochs:
    def test_zero_share_never_wins(self):
        batch = simulate_epochs(network(), MinerShare(0.0),
                                SimConfig(seed=2, sample_count=20_000))
        assert batch.blocks_won == 0
        assert batch.won.tolist() == [0] and batch.count.tolist() == [20_000]
        assert batch.report(2, 1.0).estimate == 0.0

    def test_block_mean(self):
        batch = simulate_epochs(network(e=4.0),
                                MinerShare(0.01),
                                SimConfig(seed=3, sample_count=250_000))
        se = math.sqrt(4.0 / batch.epochs)
        assert abs(batch.blocks_total / batch.epochs - 4.0) <= 3 * se

    def test_win_count_distribution(self):
        share = MinerShare(0.005)
        batch = simulate_epochs(network(), share,
                                SimConfig(seed=4, sample_count=400_000))
        emp = np.bincount(batch.won, weights=batch.count) / batch.epochs
        ref = np.array([win_count_pmf_closed(v, network(), share)
                        for v in range(emp.size)])
        assert 0.5 * np.abs(emp - ref).sum() <= 0.005

    def test_wins_bounded_by_blocks_and_rewards_match(self):
        share = MinerShare(0.2)
        config = SimConfig(seed=6, sample_count=50_000)
        w, v = epoch_arrays(network(m=2.5), share, config)
        assert (v <= w).all()
        report = simulate_epochs(network(m=2.5), share, config).report(6, 2.5)
        assert report.estimate == pytest.approx(float(np.mean(2.5 * v)))


class TestFirstWinTime:
    def test_mean_against_waiting_model(self):
        share = MinerShare(0.001)
        result = estimate_first_win_time(network(), share,
                                         SimConfig(seed=12,
                                                   sample_count=100_000))
        p0 = -math.expm1(-0.01)
        want = 1.0 / p0 - 0.5
        assert abs(result.report.estimate - want) <= \
            3 * result.report.std_error
        assert result.won.dtype == result.count.dtype == np.int64
        assert result.count.sum() == 100_000

    def test_ecdf_is_a_cdf_on_integer_grid(self):
        # the step ECDF simulate writes: epoch 0, then each win epoch
        share = MinerShare(0.005)
        result = estimate_first_win_time(network(), share,
                                         SimConfig(seed=13,
                                                   sample_count=20_000))
        won, count = result.won, result.count
        cdf = np.append(0.0, np.cumsum(count) / 20_000)
        assert won[0] >= 1
        assert (np.diff(cdf) > 0).all()
        assert cdf[-1] == 1.0

    def test_near_certain_winner_stops_immediately(self):
        share = MinerShare(999.0 / 1000.0)
        result = estimate_first_win_time(network(e=50.0), share,
                                         SimConfig(seed=14,
                                                   sample_count=5_000))
        # every trial wins in epoch 1 and is recorded at the midpoint
        assert result.report.estimate == 0.5
        assert result.report.std_error == 0.0

    @pytest.mark.parametrize("e", [10.0, 200.0, 1e6])
    @pytest.mark.parametrize("q", [1e-3, 0.05, 0.5, 0.999])
    def test_win_table_equals_per_draw_expression(self, e, q):
        # one entry per count in [w.min(), w.max()], read by index, gives
        # the floats 1 - (1-q)^w evaluated draw by draw
        w = poisson_sample(_generator(SimConfig(seed=19, sample_count=1)),
                           e, 100_000)
        got = _win_given_w(w, q)
        want = -np.expm1(np.log1p(-q) * w)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    SWEEP_CASES = [(10.0, 0.05), (10.0, 0.3), (10.0, 1.0),
                   (200.0, 1.0 / 21.0), (0.5, 0.3)]

    @pytest.mark.parametrize("e, q", SWEEP_CASES)
    def test_matches_the_sweep_oracle(self, e, q):
        # two-sample Kolmogorov-Smirnov bound at level 1e-3, conservative
        # for these integer waits: c(1e-3) sqrt(2 / n) with c = 1.95
        n = 20_000
        result = estimate_first_win_time(network(e=e), MinerShare(q),
                                         SimConfig(seed=21, sample_count=n))
        sweep = first_win_sweep(network(e=e), MinerShare(q),
                                SimConfig(seed=22, sample_count=n))
        grid = np.arange(int(max(result.won[-1], sweep.max() + 0.5)) + 1)
        ours = np.append(0, np.cumsum(result.count))[
            np.searchsorted(result.won, grid, side="right")] / n
        theirs = np.searchsorted(np.sort(sweep), grid, side="right") / n
        assert float(np.max(np.abs(ours - theirs))) <= 1.95 * math.sqrt(2 / n)

    @pytest.mark.parametrize("e, q", SWEEP_CASES)
    def test_epoch_one_is_the_sweep_bit_for_bit(self, e, q):
        config = SimConfig(seed=23, sample_count=20_000)
        result = estimate_first_win_time(network(e=e), MinerShare(q), config)
        sweep = first_win_sweep(network(e=e), MinerShare(q), config)
        assert result.count[result.won == 1].sum() / 20_000 \
            == np.mean(sweep == 0.5)

    @pytest.mark.parametrize("e, q", [(10.0, 0.05), (0.5, 0.3)])
    def test_tail_is_exactly_exponential_in_epochs(self, e, q):
        # P(wait > k) = e^{-k E q}; epochs past 1 come from the Gamma route
        n = 200_000
        result = estimate_first_win_time(network(e=e), MinerShare(q),
                                         SimConfig(seed=24, sample_count=n))
        for k in (1, 2, 5):
            tail = math.exp(-k * e * q)
            assert abs(result.count[result.won > k].sum() / n - tail) \
                <= 4 * math.sqrt(tail * (1.0 - tail) / n)

    def test_same_config_same_result(self):
        config = SimConfig(seed=25, sample_count=5_000)
        a = estimate_first_win_time(network(), MinerShare(0.01), config)
        b = estimate_first_win_time(network(), MinerShare(0.01), config)
        assert a.report == b.report
        np.testing.assert_array_equal(a.won, b.won)
        np.testing.assert_array_equal(a.count, b.count)

    @pytest.mark.parametrize("q", [1e-3, 1e-7])
    def test_largest_mean_is_drawn_from_its_table(self, q, fresh_store):
        # E = 10^7, the sampler's limit: one table of under 400k entries
        e, n = 1e7, 2_000
        result = estimate_first_win_time(network(e=e), MinerShare(q),
                                         SimConfig(seed=26, sample_count=n))
        report = result.report
        assert math.isfinite(report.estimate)
        want = 1.0 / -math.expm1(-e * q) - 0.5
        assert abs(report.estimate - want) <= 5 * report.std_error
        assert list(fresh_store.slots) == [(_poisson_cdf_table, (e,))]
        assert fresh_store.entries < 400_000

    def test_memory_follows_the_distinct_epochs(self):
        # E q = 10^-4: 4 x 10^6 trials spread over some 65,000 epochs, about
        # 30,000 distinct in each block of 2^16 trials; the block histograms
        # merge as they come, so the run peaks near 13 MB of sampler
        # temporaries, where holding all 62 until the last block took 57 MB
        share = MinerShare(1e-5)
        estimate_first_win_time(network(), share,
                                SimConfig(seed=36, sample_count=10))
        tracemalloc.start()
        try:
            result = estimate_first_win_time(
                network(), share, SimConfig(seed=36, sample_count=4 * 10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.won.size > 50_000
        assert peak < 24 * 2 ** 20

    def test_mean_wait_past_exact_epochs_is_refused(self, monkeypatch):
        # E q just under 2^-46: epochs past 2^52 would lose their midpoints'
        # exactness; refused before any draw
        monkeypatch.setattr("minecon.mcsim.poisson_sample", None)
        q = np.nextafter(2.0 ** -46 / 10.0, 0.0)
        assert 10.0 * q < 2.0 ** -46
        with pytest.raises(ValidationError, match="mean first win"):
            estimate_first_win_time(network(), MinerShare(q),
                                    SimConfig(seed=1, sample_count=10))

    def test_zero_share_rejected(self):
        with pytest.raises(ValidationError):
            estimate_first_win_time(network(),
                                    MinerShare(0.0),
                                    SimConfig(seed=1, sample_count=10))


class TestRoundSimulation:
    def plan(self):
        return MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)

    def test_single_branch_regime(self):
        # horizon far beyond any plausible wait, rewards dwarf the drain
        plan = MinerPlan(wealth=10.0, split=0.5, equipment_rate=1.0,
                         running_rate=1e-9)
        net = network(e=10.0, m=50.0, p=10.0)
        config = SimConfig(seed=17, sample_count=40_000)
        report = round_oracle(plan, net, config)
        lam = win_rate_lambda(plan, net)
        reward = conditional_reward(plan, net)
        want = lam * math.log((10.0 + reward) / 10.0)
        assert report.estimate == pytest.approx(want, rel=1e-4)
        assert report.estimate > 0.0

    def test_report_metadata(self):
        config = SimConfig(seed=19, sample_count=5000)
        report = round_oracle(self.plan(), network(), config)
        assert report.samples == 5000
        assert report.seed == 19
        assert report.std_error > 0.0

    def test_sampled_mode_sits_below_conditional_mean(self):
        # The sampled reward M*v (v drawn from a positive Poisson with mean
        # E*q) averages M*E*q/(1 - e^{-Eq}), which is E times the fixed reward
        # used by conditional_mean mode.  For E <= 1 the sampled mean sits at
        # or below the fixed reward, so Jensen (log of the mean beats the mean
        # of logs) pushes the sampled estimate below the conditional one.
        scenarios = [
            (MinerPlan(100.0, 0.5, 1.0, 0.001), network(e=1.0)),
            (MinerPlan(50.0, 0.3, 2.0, 0.002), network(e=0.5, m=2.0)),
            (MinerPlan(200.0, 0.7, 1.0, 0.0005), network(e=1.0, p=500.0)),
            (MinerPlan(100.0, 0.5, 1.0, 0.001), network(e=0.25, m=3.0,
                                                        p=500.0)),
            (MinerPlan(80.0, 0.4, 1.5, 0.001), network(e=0.8, p=2000.0)),
        ]
        for k, (plan, net) in enumerate(scenarios):
            config = SimConfig(seed=100 + k, sample_count=150_000)
            sampled = round_oracle(plan, net, config, reward_mode="sampled")
            smooth = round_oracle(plan, net, config,
                                  reward_mode="conditional_mean")
            margin = 3 * math.hypot(sampled.std_error, smooth.std_error)
            assert sampled.estimate <= smooth.estimate + margin

    def test_sampled_mode_exceeds_conditional_mean_for_many_blocks(self):
        # Above one expected block per epoch the ordering flips: the sampled
        # reward mean E*q*M/(1 - e^{-Eq}) outgrows the fixed reward
        # q*M/(1 - e^{-Eq}) by the factor E, and that gap dwarfs the Jensen
        # penalty.  Pin the reversal so nobody "fixes" it into a one-sided
        # bound that silently constrains E.
        plan = MinerPlan(100.0, 0.5, 1.0, 0.001)
        net = network(e=10.0)
        config = SimConfig(seed=107, sample_count=150_000)
        sampled = round_oracle(plan, net, config, reward_mode="sampled")
        smooth = round_oracle(plan, net, config,
                              reward_mode="conditional_mean")
        margin = 3 * math.hypot(sampled.std_error, smooth.std_error)
        assert sampled.estimate > smooth.estimate + margin

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            round_payoffs(self.plan(), network(),
                          SimConfig(seed=1, sample_count=10),
                          reward_mode="exact")

    def test_payoffs_fall_in_two_branches(self):
        plan = self.plan()
        payoffs = round_payoffs(plan, network(),
                                SimConfig(seed=21, sample_count=5000))
        bust = math.log(plan.split)
        horizon_payoff = payoffs[payoffs != bust]
        assert horizon_payoff.size > 0
        assert (horizon_payoff > bust).all()


class TestWealthPath:
    def test_pure_drain_hits_exact_epoch(self):
        # dyadic parameters keep every reserve update exact in binary
        plan = MinerPlan(wealth=128.0, split=0.5, equipment_rate=1.0,
                         running_rate=1.0 / 1024.0)
        net = network(m=0.0)
        path = simulate_wealth_path(plan, net, 5000,
                                    SimConfig(seed=25, sample_count=1))
        assert path.bankrupt
        assert path.bankrupt_epoch == 1024
        assert len(path.wealth) == 1024
        assert path.wealth[-1] == pytest.approx(plan.split * plan.wealth,
                                                abs=1e-9)

    def test_never_bankrupt_with_overwhelming_rewards(self):
        plan = MinerPlan(wealth=10.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.01)
        net = network(e=10.0, m=100.0, p=0.001)
        for k in range(200):
            path = simulate_wealth_path(plan, net, 50,
                                        SimConfig(seed=27, sample_count=1,
                                                  stream_id=k))
            assert not path.bankrupt
            assert path.bankrupt_epoch is None

    def test_wealth_tracks_wins_and_costs(self):
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        path = simulate_wealth_path(plan, network(), 100,
                                    SimConfig(seed=29, sample_count=1))
        cost = plan.run_cost_per_epoch
        reserve = plan.reserve
        for k in range(len(path.wealth)):
            reserve = reserve - cost + path.wins[k] * 1.0
            assert path.wealth[k] == pytest.approx(
                plan.split * plan.wealth + reserve, rel=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValidationError):
            simulate_wealth_path(self_plan(), network(), 0,
                                 SimConfig(seed=1, sample_count=1))


def self_plan():
    return MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                     running_rate=0.001)


def round_payoffs_whole_array(plan, network, config, reward_mode):
    """round_payoffs as it drew each stage in one array, kept as its oracle:
    every exponential wait, then one positive Poisson reward per win."""
    rng = _generator(config)
    n = config.sample_count
    t = -np.log1p(-rng.random(n)) / win_rate_lambda(plan, network)
    win = t <= t_max(plan)
    payoff = np.full(n, math.log(plan.split))
    if reward_mode == "conditional_mean":
        rho = conditional_reward(plan, network) / plan.wealth
    else:
        mean = network.expected_blocks * win_probability(plan, network)
        v = _positive_poisson(rng, mean, int(win.sum()))
        rho = network.block_reward * v.astype(float) / plan.wealth
    payoff[win] = np.log(1.0 - plan.drain_rate * t[win] + rho)
    return payoff


def window_totals_whole_array(network, share, epochs, config):
    """verify's window totals as it drew them, kept as _window_totals'
    oracle: one epoch batch of paths x epochs draws, each path's blocks
    won summed."""
    paths = config.sample_count
    _, v = epochs_whole_array(network, share,
                              SimConfig(config.seed, paths * epochs,
                                        config.stream_id))
    return v.reshape(paths, epochs).sum(axis=1)


class TestBlockedStages:
    """Each stage drawn in blocks from its own cursor gives the bits of the
    whole-array route, across the block edges at multiples of 2^16."""

    SIZES = [2, 3, 65_535, 65_536, 65_537, 3 * 2 ** 16 + 5]

    @pytest.mark.parametrize("offset", list(range(8))
                             + [65_535, 65_536, 65_537, 3 * 2 ** 16 + 5])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 3])
    @pytest.mark.parametrize("stream_id", [0, 7])
    def test_cursor_starts_at_offset(self, offset, seed, stream_id):
        config = SimConfig(seed=seed, sample_count=1, stream_id=stream_id)
        want = _generator(config).random(offset + 1000)[offset:]
        assert _cursor(config, offset).random(1000).tobytes() \
            == want.tobytes()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("e", [10.0, 200.0])
    @pytest.mark.parametrize("p0", [49_950.0, 1000.0])  # q = 1e-3, 1/21
    @pytest.mark.parametrize("mode", ["conditional_mean", "sampled"])
    def test_round_payoffs(self, n, e, p0, mode):
        # t_max = 100 epochs: wins and losses at either rate
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.01)
        config = SimConfig(seed=31, sample_count=n, stream_id=3)
        got = round_payoffs(plan, network(e=e, p=p0), config, mode)
        want = round_payoffs_whole_array(plan, network(e=e, p=p0), config,
                                         mode)
        assert got.tobytes() == want.tobytes()

    # at q = 2^-40 / 10, E q is near 2^-40: nearly every trial waits to an
    # epoch of its own, and past two blocks the block histograms merge
    # before the last block as well as at it
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("e", [10.0, 200.0])
    @pytest.mark.parametrize("q", [1e-3, 1.0 / 21.0, 1.0, 2.0 ** -40 / 10.0])
    def test_first_win_epochs(self, n, e, q):
        config = SimConfig(seed=32, sample_count=n, stream_id=2)
        got = estimate_first_win_time(network(e=e), MinerShare(q), config)
        won, count = np.unique(first_win_epochs_whole_array(
            network(e=e), MinerShare(q), config), return_counts=True)
        assert got.won.tobytes() == won.tobytes()
        assert got.count.tobytes() == count.tobytes()

    # (paths, epochs): 2^14 paths of 4 epochs fill a block of 2^16 epochs;
    # a window past 2^16 epochs takes a block of its own
    @pytest.mark.parametrize("paths, epochs", [
        (2, 1), (3, 1), (65_535, 4), (65_536, 4), (65_537, 4),
        (2 ** 14 + 1, 4), (3 * 2 ** 16 + 5, 1), (5, 100_003),
        (3, 2 ** 18 + 3)])
    @pytest.mark.parametrize("e", [10.0, 200.0])
    @pytest.mark.parametrize("q", [1e-3, 1.0 / 21.0, 1.0])
    def test_window_totals(self, paths, epochs, e, q):
        config = SimConfig(seed=33, sample_count=paths, stream_id=4)
        won, paths_won = _window_totals(network(e=e, m=2.5), MinerShare(q),
                                        epochs, config)
        want = np.unique(window_totals_whole_array(
            network(e=e, m=2.5), MinerShare(q), epochs, config),
            return_counts=True)
        assert won.tobytes() == want[0].tobytes()
        assert paths_won.tobytes() == want[1].tobytes()


class TestFold:
    """_fold merges sorted (value, count) runs into one histogram."""

    # (values drawn, their range, cut points): runs that merge as they come,
    # a first run of 4 x 2^16 distinct values that holds five more before
    # they merge, nearly distinct values in runs of 2^16, and empty runs
    @pytest.mark.parametrize("size, high, cuts", [
        (1, 5, []), (1000, 50, [3, 3, 400, 401, 999]),
        (300_000, 2 ** 40, [2 ** 18] + list(range(2 ** 18 + 7, 300_000,
                                                  5003))),
        (400_000, 2 ** 40, list(range(0, 400_000, 2 ** 16))),
        (50_000, 10 ** 6, [0, 0, 17, 50_000, 50_000])])
    def test_fold_equals_unique_of_the_concatenation(self, size, high, cuts):
        x = np.random.default_rng(size).integers(0, high, size)
        runs = (np.unique(part, return_counts=True)
                for part in np.split(x, cuts))
        won, count = mcsim._fold(runs)
        want = np.unique(x, return_counts=True)
        assert won.tobytes() == want[0].tobytes()
        assert count.tobytes() == want[1].tobytes()


class TestEpochCounts:
    """simulate_epochs' blocks folded into counts, and their report."""

    @pytest.mark.parametrize("e", [10.0, 200.0])
    @pytest.mark.parametrize("q", [1e-3, 1.0 / 21.0])
    def test_counts_match_whole_array(self, e, q):
        config = SimConfig(seed=34, sample_count=3 * 2 ** 16 + 5,
                           stream_id=1)
        w, v = epochs_whole_array(network(e=e), MinerShare(q), config)
        got = simulate_epochs(network(e=e), MinerShare(q), config)
        assert got.epochs == w.size
        assert (got.blocks_total, got.blocks_won) == (w.sum(), v.sum())
        won, count = np.unique(v, return_counts=True)
        assert got.won.tobytes() == won.tobytes()
        assert got.count.tobytes() == count.tobytes()

    @pytest.mark.parametrize("least, counts", [
        (0, [1, 1]), (0, [5, 0, 0, 2]), (3, [0, 7, 1, 0, 4]),
        (10 ** 7, [1, 0, 2]), (0, [2 * 10 ** 6] + [0] * 99 + [10 ** 6]),
        # sum x^2 = 9.8e20 and n S2 = 5.9e27 pass 2^63
        (10 ** 7 - 3, [3 * 10 ** 6, 0, 0, 0, 0, 0, 6 * 10 ** 6]),
        # its standard error's 65-bit root truncates onto a rounding midpoint
        (0, [18, 18, 23])])
    @pytest.mark.parametrize("scale", [1.0, 2.5, 1e-3])
    def test_histogram_report_matches_fractions(self, least, counts, scale):
        # the moments as Fractions over the centred sum of squares, a
        # different route to the same exact values; the standard error is
        # the double nearest a 60-digit Decimal root of variance/n
        report = _histogram_report(least + np.arange(len(counts)),
                                   np.array(counts), 8, scale)
        n = sum(counts)
        mean = sum(Fraction(k * (least + j)) for j, k in enumerate(counts))
        mean /= n
        variance = sum(k * (least + j - mean) ** 2
                       for j, k in enumerate(counts)) / (n - 1)
        assert report.estimate == scale * float(mean)
        context = decimal.Context(prec=60)
        ratio = variance / n
        root = context.divide(ratio.numerator, ratio.denominator).sqrt(context)
        assert report.std_error == scale * float(root)
        assert (report.samples, report.seed) == (n, 8)

    def test_histogram_report_agrees_with_the_float_moments(self):
        v = np.random.default_rng(12).poisson(3.0, 10_001)
        counts = np.bincount(v)
        report = _histogram_report(np.arange(counts.size), counts, 1)
        assert report.estimate == pytest.approx(float(np.mean(v)),
                                                rel=1e-15)
        assert report.std_error == pytest.approx(
            float(np.std(v, ddof=1)) / math.sqrt(v.size), rel=1e-12)

    def test_histogram_report_needs_two_samples(self):
        with pytest.raises(ValidationError):
            _histogram_report(np.array([4, 5]), np.array([0, 1]), 1)

    def test_memory_does_not_grow_with_the_sample(self):
        # 10^6 epochs in blocks of 2^16: the block arrays and the sampler's
        # temporaries, a few MB, where three n-sized arrays held 24 MB
        share, config = MinerShare(1.0 / 21.0), SimConfig(seed=35,
                                                          sample_count=10)
        simulate_epochs(network(), share, config)  # builds the tables
        tracemalloc.start()
        try:
            simulate_epochs(network(), share,
                            SimConfig(seed=35, sample_count=10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_shared_tables_stay_within_the_entry_limit(self, monkeypatch,
                                                       fresh_store):
        # with the limit at 15,000 entries, guides counted, a block that
        # would leave more than that beside its own tables drops tables it
        # does not use, which a switch between E = 60 and E = 150 does each
        # time; the draws stay those of separate calls
        monkeypatch.setattr(mcsim, "_MAX_TABLE_ENTRIES", 15_000)
        restarts = 0
        for k, (e, size) in enumerate([(60.0, 3000), (60.0, 3000),
                                       (150.0, 3000), (60.0, 3000)]):
            trials = poisson_sample(_generator(SimConfig(50, 1, k)), e, size)
            config = SimConfig(seed=51, sample_count=1, stream_id=k)
            held = set(fresh_store.slots)
            got = binomial_sample(_generator(config), trials, 0.5)
            want = binomial_sample_per_count(_generator(config), trials, 0.5)
            assert got.tobytes() == want.tobytes()
            drawn = {(_binomial_cdf_table, (w, 0.5))
                     for w in np.unique(trials).tolist()}
            assert charge(fresh_store, drawn) <= 15_000
            assert set(fresh_store.slots) >= drawn
            restarts += not held <= set(fresh_store.slots)
        assert restarts == 2

    def test_blocks_past_the_limit_build_each_table_once(self, monkeypatch,
                                                         fresh_store):
        # with the limit at 30,000 entries, guides counted, the binomial
        # tables of each 2^16-epoch block at E = 60, q = 1/2 charge more
        # than it, as at E = 6e4, q = 1/21 with the real limit: the store
        # keeps the other blocks' tables and the Poisson table beside each
        # block's own, so one simulation builds every table once, and its
        # draws stay the whole-array draws
        monkeypatch.setattr(mcsim, "_MAX_TABLE_ENTRIES", 30_000)
        built = record_builds(monkeypatch)
        share, config = MinerShare(0.5), SimConfig(seed=59, sample_count=3
                                                   * 2 ** 16 + 5, stream_id=1)
        w, v = epoch_arrays(network(e=60.0), share, config)
        assert charge(fresh_store) > 30_000
        assert len(built) > 50 and all(len(n) == 1 for n in built.values())
        fresh_store.cache_clear()
        want = epochs_whole_array(network(e=60.0), share, config)
        assert (w.tobytes(), v.tobytes()) == tuple(a.tobytes() for a in want)

    def test_shared_tables_keep_their_entries_as_they_grow(self,
                                                           fresh_store):
        # the E = 40 block's tables outgrow the room the E = 10 block's
        # left, so the buffers are replaced; the last block draws from the
        # E = 10 tables the new buffers carried over
        for k, e in enumerate([10.0, 40.0, 10.0]):
            room = fresh_store.table.size
            trials = poisson_sample(_generator(SimConfig(52, 1, k)), e, 3000)
            config = SimConfig(seed=53, sample_count=1, stream_id=k)
            got = binomial_sample(_generator(config), trials, 0.3)
            want = binomial_sample_per_count(_generator(config), trials, 0.3)
            assert got.tobytes() == want.tobytes()
            assert (fresh_store.table.size > room) == (k < 2)

    def test_blocks_past_the_limit_build_only_absent_tables(self,
                                                            monkeypatch,
                                                            fresh_store):
        # with the limit at 25,000 entries, guides counted, blocks of 1,000
        # epochs at E from 40 to 140, q = 1/2, each fit beside the last
        # while together they pass it: a block builds only the tables the
        # store does not hold, a restart keeps every table of the block
        # that caused it and drops only tables drawn from no later than
        # those it keeps, so the block's Poisson table stays, and the draws
        # stay those of separate calls
        monkeypatch.setattr(mcsim, "_MAX_TABLE_ENTRIES", 25_000)
        built = record_builds(monkeypatch)
        binomial = mcsim._binomial_cdf_table
        restarts = requested = 0
        for k, e in enumerate([40.0, 90.0, 140.0, 40.0, 90.0, 140.0, 40.0]):
            trials = poisson_sample(_generator(SimConfig(56, 1, k)), e, 1000)
            keys = {(binomial, (w, 0.5)) for w in np.unique(trials).tolist()}
            requested += len(keys)
            held = set(fresh_store.slots)
            last = {key: fresh_store.last[j]
                    for key, j in fresh_store.slots.items()}
            before = {key: len(n) for key, n in built.items()}
            config = SimConfig(seed=57, sample_count=1, stream_id=k)
            got = binomial_sample(_generator(config), trials, 0.5)
            want = binomial_sample_per_count(_generator(config), trials, 0.5)
            assert got.tobytes() == want.tobytes()
            new = {key for key, n in built.items()
                   if len(n) != before.get(key, 0)}
            assert new == keys - held
            dropped = held - set(fresh_store.slots)
            if dropped:
                restarts += 1
                kept = held - dropped - keys
                assert all(last[gone] <= last[key]
                           for gone in dropped for key in kept)
            assert keys <= set(fresh_store.slots)
            assert (mcsim._poisson_cdf_table, (e,)) in fresh_store.slots
            assert charge(fresh_store, keys) <= 25_000
        assert restarts >= 2
        assert sum(len(n) for (build, _), n in built.items()
                   if build is binomial) < requested
        # a Poisson table that does not fit beside them drops only the
        # tables drawn from before the last block's
        held = set(fresh_store.slots)
        poisson_sample(_generator(SimConfig(58, 1)), 3000.0, 10)
        assert not held <= set(fresh_store.slots)
        assert keys <= set(fresh_store.slots)
        assert charge(fresh_store, {(mcsim._poisson_cdf_table,
                                     (3000.0,))}) <= 25_000
