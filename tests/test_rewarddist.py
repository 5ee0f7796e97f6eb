"""Win-count and reward distributions against series, scipy, and moments."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from minecon import rewarddist, specfun
from minecon.errors import ValidationError
from minecon.rewarddist import (LatticePmf, MinerShare, NetworkParams,
                                epoch_reward_pmf, expected_total_reward,
                                total_reward_pmf, variance_paper,
                                variance_thinned, win_count_pmf_closed,
                                win_count_pmf_series)

E_GRID = [0.1, 1.0, 10.0]
Q_GRID = [1e-4, 1e-3, 0.05, 0.5]


def make_epoch(e, q, m, count=1):
    """(network, share, count): a window of `count` epochs."""
    network = NetworkParams(expected_blocks=e, block_reward=m, power=1000.0)
    share = MinerShare(q)
    return network, share, count


def epoch(e, q):
    """(network, share) of one epoch with E = e and win probability q."""
    return make_epoch(e, q, 1.0)[:2]


def convolved_window_pmf(network, share, count, tail_tol=1e-12):
    """The window pmf by count - 1 lattice convolutions of one-epoch pmfs.

    Oracle for total_reward_pmf: each epoch is truncated at tail_tol /
    count, so the convolution keeps at least 1 - tail_tol of the mass.
    """
    epoch = epoch_reward_pmf(network, share, tail_tol / count)
    acc = np.array([1.0])
    for _ in range(count):
        acc = np.convolve(acc, epoch.masses)
    return acc


def padded_gap(a, b):
    """Largest absolute difference of two mass arrays, the shorter padded."""
    n = max(len(a), len(b))
    return float(np.max(np.abs(np.pad(a, (0, n - len(a)))
                               - np.pad(b, (0, n - len(b))))))


class TestWinCountPmf:
    def test_zero_share_never_wins(self):
        assert win_count_pmf_series(0, *epoch(5.0, 0.0)) == 1.0
        assert win_count_pmf_closed(0, *epoch(5.0, 0.0)) == 1.0
        assert win_count_pmf_series(3, *epoch(5.0, 0.0)) == 0.0

    def test_tiny_share_no_win_mass(self):
        # exp(-E q) at E=0.1, q=0.001
        want = 0.9999000049998333
        assert win_count_pmf_series(0, *epoch(0.1, 0.001)) == pytest.approx(
            want, abs=1e-15)
        assert win_count_pmf_closed(0, *epoch(0.1, 0.001)) == pytest.approx(
            want, abs=1e-15)

    def test_two_win_value(self):
        # Poisson pmf at 2 with mean 0.05
        want = 0.0011890367806258926
        assert win_count_pmf_series(2, *epoch(10.0, 0.005)) == pytest.approx(
            want, rel=1e-13)

    @pytest.mark.parametrize("e", E_GRID)
    @pytest.mark.parametrize("q", Q_GRID)
    def test_series_equals_closed_form(self, e, q):
        for v in range(0, 51):
            series = win_count_pmf_series(v, *epoch(e, q))
            closed = win_count_pmf_closed(v, *epoch(e, q))
            assert abs(series - closed) <= 1e-12

    @pytest.mark.parametrize("e,q", [(0.1, 0.5), (1.0, 0.05), (10.0, 0.005)])
    def test_matches_scipy_poisson(self, e, q):
        dist = stats.poisson(e * q)
        for v in range(0, 30):
            assert win_count_pmf_closed(v, *epoch(e, q)) == pytest.approx(
                float(dist.pmf(v)), rel=1e-12, abs=1e-300)

    def test_series_sums_to_one(self):
        total = math.fsum(win_count_pmf_series(v, *epoch(10.0, 0.5))
                          for v in range(0, 80))
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            win_count_pmf_series(-1, *epoch(1.0, 0.5))
        with pytest.raises(ValidationError):
            win_count_pmf_series(0, *epoch(-1.0, 0.5))
        with pytest.raises(ValidationError):
            win_count_pmf_closed(0, *epoch(1.0, 1.5))


class TestSaddlePointPmf:
    # plus the worst means of a denser scan: 27756.375 with bd0's series
    # switched at Loader's |v| = 0.1, 2894.266 with it at 1/3
    @pytest.mark.parametrize("mean", np.geomspace(1e-3, 1e6, 19).tolist()
                             + [27756.375, 2894.266])
    def test_matches_mpmath(self, mean):
        # the bulk, both tails out to 40 sd, and the first 30 counts
        spread = 40.0 * math.sqrt(mean) + 40.0
        ks = np.unique(np.concatenate([
            np.arange(30),
            np.linspace(max(0.0, mean - spread), mean + spread,
                        300).astype(int)]))
        got = rewarddist._poisson_pmf(ks, mean)
        with mpmath.workdps(40):
            mu = mpmath.mpf(mean)
            for k, mass in zip(ks.tolist(), got.tolist()):
                want = mpmath.exp(-mu + k * mpmath.log(mu)
                                  - mpmath.loggamma(k + 1))
                if want > mpmath.mpf("1e-290"):
                    assert abs(mass - want) <= 1e-12 * want, (mean, k)

    def test_scalar_count(self):
        assert rewarddist._poisson_pmf(0, 2.0) == math.exp(-2.0)
        assert rewarddist._poisson_pmf(3, 0.0) == 0.0


class TestEpochRewardPmf:
    def test_zero_share_is_unit_mass_at_zero(self):
        network, share, _ = make_epoch(10.0, 0.0, 2.0)
        pmf = epoch_reward_pmf(network, share)
        np.testing.assert_array_equal(pmf.masses, [1.0])
        assert pmf.mean() == 0.0

    def test_lattice_masses(self):
        network, share, _ = make_epoch(10.0, 0.005, 2.0)
        pmf = epoch_reward_pmf(network, share)
        assert pmf.step == 2.0
        assert pmf.masses[0] == pytest.approx(0.951229424500714, abs=1e-15)
        assert pmf.masses[1] == pytest.approx(0.0475614712250357, abs=1e-15)
        assert pmf.points()[1] == 2.0

    def test_total_mass_tolerance(self):
        for e, q in [(0.1, 1e-4), (1.0, 0.05), (10.0, 0.5)]:
            network, share, _ = make_epoch(e, q, 1.0)
            pmf = epoch_reward_pmf(network, share)
            assert 1.0 - 1e-12 <= pmf.total_mass() <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(mean=st.floats(1e-3, 1e5), step=st.floats(1e-3, 1e3))
    def test_lattice_pmf_properties(self, mean, step):
        network = NetworkParams(expected_blocks=mean, block_reward=step,
                                power=1.0)
        pmf = epoch_reward_pmf(network, MinerShare(1.0))
        assert 1.0 - 1e-12 <= pmf.total_mass() <= 1.0 + 1e-13
        assert pmf.mean() == pytest.approx(mean * step, rel=1e-9)
        assert pmf.variance() == pytest.approx(mean * step * step, rel=1e-6)

    def test_upper_tail_cut_below_budget(self):
        network, share, _ = make_epoch(200.0, 0.05, 1.0)
        pmf = epoch_reward_pmf(network, share, tail_tol=1e-6)
        omitted = stats.poisson(10.0).sf(len(pmf.masses) - 1)
        assert omitted < 1e-9
        assert stats.poisson(10.0).sf(len(pmf.masses) - 2) >= 1e-9

    def test_oversized_pmf_refused(self):
        network = NetworkParams(expected_blocks=2e7, block_reward=1.0,
                                power=1.0)
        with pytest.raises(ValidationError, match="masses"):
            epoch_reward_pmf(network, MinerShare(0.5))


class TestTotalRewardPmf:
    def test_single_epoch_matches_epoch_pmf(self):
        network, share, _ = make_epoch(1.0, 0.05, 3.0)
        single = total_reward_pmf(network, share, 1)
        direct = epoch_reward_pmf(network, share, tail_tol=1e-12)
        assert single.step == direct.step
        np.testing.assert_allclose(single.masses, direct.masses, atol=1e-15)

    def test_three_epochs_collapse_to_poisson(self):
        # three thinned epochs add up to Poisson(0.03) on the reward lattice
        pmf = total_reward_pmf(*make_epoch(10.0, 0.001, 1.0, 3))
        for k, mass in enumerate(pmf.masses):
            want = math.exp(-0.03) * 0.03**k / math.factorial(k)
            # truncated per-epoch tails cost at most the 1e-12 mass budget
            assert mass == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_mean_matches_expected_total(self):
        window = make_epoch(10.0, 0.05, 2.5, 40)
        pmf = total_reward_pmf(*window)
        assert pmf.mean() == pytest.approx(expected_total_reward(*window),
                                           rel=1e-9)

    def test_variance_matches_thinned(self):
        window = make_epoch(5.0, 0.02, 1.5, 25)
        pmf = total_reward_pmf(*window)
        assert pmf.variance() == pytest.approx(variance_thinned(*window),
                                               rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_convolution_oracle(self, seed):
        # a random identical window, and the same window at q = 0
        rng = np.random.default_rng(seed)
        e, q = float(rng.uniform(0.1, 30.0)), float(rng.uniform(0.0, 0.5))
        count = int(rng.integers(2, 21))
        for window in (make_epoch(e, q, 2.5, count),
                       make_epoch(e, 0.0, 2.5, count)):
            pooled = total_reward_pmf(*window)
            assert pooled.step == 2.5
            assert padded_gap(pooled.masses,
                              convolved_window_pmf(*window)) <= 1e-14

    def test_identical_epochs_match_convolution_oracle(self):
        window = make_epoch(10.0, 0.05, 1.0, 20)
        assert padded_gap(total_reward_pmf(*window).masses,
                          convolved_window_pmf(*window)) <= 1e-14

    def test_one_pmf_per_window(self, monkeypatch):
        calls = []
        real = rewarddist.epoch_reward_pmf

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rewarddist, "epoch_reward_pmf", counting)
        pmf = total_reward_pmf(*make_epoch(10.0, 0.05, 1.0, 5000))
        assert len(calls) == 1
        assert pmf.mean() == pytest.approx(2500.0, rel=1e-9)

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            total_reward_pmf(*make_epoch(1.0, 0.05, 1.0, 0))


class TestMoments:
    def test_expected_total_reward_direct(self):
        window = make_epoch(0.1, 0.01, 6.25)
        assert expected_total_reward(*window) == pytest.approx(0.00625,
                                                               rel=1e-14)

    def test_expected_total_reward_zero_share(self):
        assert expected_total_reward(*make_epoch(2.0, 0.0, 4.0, 7)) == 0.0

    def test_variance_thinned_single_epoch(self):
        assert variance_thinned(*make_epoch(10.0, 0.001, 1.0)) == (
            pytest.approx(0.01, rel=1e-14))
        assert variance_thinned(*make_epoch(10.0, 0.0, 1.0)) == 0.0

    def test_variance_paper_zero_share(self):
        # bracket collapses to 1, leaving e^{-E} E^2 M^2
        for e, m in [(1.0, 1.0), (2.0, 3.0)]:
            want = math.exp(-e) * e * e * m * m
            assert variance_paper(*make_epoch(e, 0.0, m)) == pytest.approx(
                want, rel=1e-14)

    def test_variance_paper_half_share(self):
        # e^{-1} (1 + 0.25 (Ei(1) - ln 1 - gamma)) at E=1, M=1, q=0.5
        got = variance_paper(*make_epoch(1.0, 0.5, 1.0))
        assert got == pytest.approx(0.48908671792036423, rel=1e-13)


    @pytest.mark.parametrize("e", [1.0, 10.0, 700.0, 800.0, 1e4])
    def test_variance_paper_matches_mpmath(self, e):
        # past E = 709.7 Ei(E) overflows, e^{-E} Ei(E) does not
        q, m, epochs = 1.0 / 21.0, 1.0, 100
        with mpmath.workdps(50):
            want = epochs * mpmath.mpf(e) ** 2 * m * m * mpmath.exp(-e) * (
                1 + q * (1 - q) * (mpmath.ei(e) - mpmath.log(e)
                                   - mpmath.euler))
        got = variance_paper(*make_epoch(e, q, m, epochs))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_identical_window_costs_one_ei(self, monkeypatch):
        calls = []
        real = specfun.exp_integral_ei

        def counting(x, **kwargs):
            calls.append(x)
            return real(x, **kwargs)

        monkeypatch.setattr(specfun, "exp_integral_ei", counting)
        got = variance_paper(*make_epoch(1.0, 0.5, 1.0, 1000))
        assert calls == [1.0]
        assert got == pytest.approx(1000 * 0.48908671792036423, rel=1e-13)


class TestLatticePmf:
    def test_masses_are_read_only(self):
        pmf = total_reward_pmf(*make_epoch(10.0, 0.05, 1.0, 20))
        with pytest.raises(ValueError):
            pmf.masses[0] = 0.5
        given = np.array([0.25, 0.75])
        pmf = LatticePmf(step=1.0, masses=given, tail_tol=1e-12)
        given[0] = 0.5
        assert pmf.masses[0] == 0.25

    def test_rejects_leaky_mass(self):
        with pytest.raises(ValidationError):
            LatticePmf(step=1.0, masses=(0.5, 0.4), tail_tol=1e-12)

    @pytest.mark.parametrize("m", [1.0, 0.37, 3.3871])
    def test_moments_match_python_loops(self, m):
        # the scalar loops as reference: the mean keeps its product order
        # and is exact; the second moment squares with x * x where the
        # loop used libm pow, so it may move by rounding only
        pmf = total_reward_pmf(*make_epoch(10.0, 0.05, m, 400))
        terms = list(enumerate(pmf.masses.tolist()))
        mean = math.fsum(p * j * pmf.step for j, p in terms)
        second = math.fsum(p * (j * pmf.step) ** 2 for j, p in terms)
        assert pmf.mean() == mean
        assert pmf.variance() == pytest.approx(second - mean * mean,
                                               rel=1e-13)

    @pytest.mark.parametrize("m", [1.0, 0.37, 3.3871])
    @pytest.mark.parametrize("mean", [1e-3, 1.0, 476.0, 9524.0, 1e5])
    def test_sums_equal_index_order_fsum(self, mean, m):
        # the masses, the mean's terms and the second moment's terms are
        # summed largest first; fsum is correctly rounded, so the floats
        # are the ones an index-order fsum gives
        pmf = total_reward_pmf(*make_epoch(mean, 0.5, m, 2))
        masses, points = pmf.masses, pmf.points()
        mu = math.fsum((masses * np.arange(len(masses)) * m).tolist())
        second = math.fsum((masses * (points * points)).tolist())
        assert pmf.total_mass().hex() == math.fsum(masses.tolist()).hex()
        assert pmf.mean().hex() == mu.hex()
        assert pmf.variance().hex() == (second - mu * mu).hex()

    def test_exact_sum_ignores_order_over_mixed_magnitudes(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            size = int(rng.integers(1, 5000))
            values = rng.random(size) * 10.0 ** rng.uniform(-300, 0, size)
            rng.shuffle(values)
            assert rewarddist._exact_sum(values).hex() == \
                math.fsum(values.tolist()).hex()


class TestShareValidation:
    def test_share_cannot_exceed_network(self):
        with pytest.raises(ValidationError):
            MinerShare(2000.0 / 1050.0)

    @pytest.mark.parametrize("q", [1.5, -0.1, math.nan])
    def test_probability_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValidationError):
            MinerShare(q)

    def test_share_holds_only_the_win_probability(self):
        assert [f.name for f in dataclasses.fields(MinerShare)] == [
            "win_probability"]
