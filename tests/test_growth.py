"""Growth rates: finite games, the continuous-time model, and optimizers."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize as scipy_optimize

from minecon import growth
from minecon.errors import (CertainRuinError, ConvergenceError, MineconError,
                            NoRootError, NumericalError, ValidationError)
from minecon.growth import (FeeBound, GameRound, MinerPlan,
                            conditional_reward, max_pool_fee,
                            min_viable_wealth, optimize_gamma,
                            smooth_growth_rate, smooth_optimal_gamma,
                            stochastic_growth_rate, t_max, tane_growth_rate,
                            tane_growth_upper_bound, wealth_trajectory,
                            win_rate_lambda)
from minecon.rewarddist import (MinerShare, NetworkParams,
                                win_count_pmf_series)

REF_PLAN = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                     running_rate=0.001)
REF_NET = NetworkParams(expected_blocks=10.0, block_reward=1.0, power=1000.0)


def random_rounds(rng, count):
    # probabilities on a simplex; costs kept below wealth so logs stay finite
    raw = rng.uniform(0.05, 1.0, size=count)
    probs = raw / raw.sum()
    rounds = []
    for k in range(count):
        cost = float(rng.uniform(0.0, 40.0))
        reward = float(rng.uniform(0.0, 120.0))
        rounds.append(GameRound(probability=float(probs[k]), cost=cost,
                                reward=reward))
    return rounds


class TestTaneGrowth:
    def test_break_even_rounds(self):
        rounds = [GameRound(probability=0.25, cost=c, reward=c)
                  for c in (0.0, 5.0, 10.0, 20.0)]
        assert tane_growth_rate(rounds, 100.0) == 0.0
        assert tane_growth_upper_bound(rounds, 100.0) == 0.0

    def test_sure_double(self):
        rounds = [GameRound(probability=1.0, cost=0.0, reward=100.0)]
        assert tane_growth_rate(rounds, 100.0) == pytest.approx(math.log(2.0),
                                                                rel=1e-15)

    def test_truncated_saint_petersburg(self):
        # doubling payoffs, entry cost 10; the last round absorbs the
        # leftover probability so the distribution is exact
        rounds = [GameRound(probability=2.0**-k, cost=10.0, reward=2.0**k)
                  for k in range(1, 20)]
        rounds.append(GameRound(probability=2.0**-19, cost=10.0,
                                reward=2.0**19))
        got = tane_growth_rate(rounds, 100.0)
        oracle = sum(r.probability
                     * math.log((100.0 - r.cost + r.reward) / 100.0)
                     for r in rounds)
        assert abs(got - oracle) <= 1e-12

    def test_certain_ruin(self):
        rounds = [GameRound(probability=1.0, cost=100.0, reward=0.0)]
        with pytest.raises(CertainRuinError):
            tane_growth_rate(rounds, 100.0)

    def test_probabilities_must_sum_to_one(self):
        rounds = [GameRound(probability=0.5, cost=0.0, reward=1.0)]
        with pytest.raises(ValidationError):
            tane_growth_rate(rounds, 100.0)


class TestTaneUpperBound:
    def test_jensen_on_random_games(self):
        rng = np.random.default_rng(7011)
        for _ in range(1000):
            rounds = random_rounds(rng, int(rng.integers(1, 12)))
            w0 = float(rng.uniform(50.0, 400.0))
            g = tane_growth_rate(rounds, w0)
            bound = tane_growth_upper_bound(rounds, w0)
            assert g <= bound + 1e-12

    def test_negative_drift_means_negative_bound(self):
        rounds = [GameRound(probability=0.5, cost=10.0, reward=2.0),
                  GameRound(probability=0.5, cost=8.0, reward=1.0)]
        bound = tane_growth_upper_bound(rounds, 100.0)
        assert bound < 0.0
        assert tane_growth_rate(rounds, 100.0) < 0.0

    def test_ruinous_average_rejected(self):
        rounds = [GameRound(probability=1.0, cost=150.0, reward=0.0)]
        with pytest.raises(ValidationError):
            tane_growth_upper_bound(rounds, 100.0)


class TestWealthTrajectory:
    def test_time_zero(self):
        assert wealth_trajectory(55.0, 0.3, 0.0) == 55.0

    def test_zero_growth(self):
        assert wealth_trajectory(55.0, 0.0, 1e6) == 55.0

    def test_unit_exponent(self):
        assert wealth_trajectory(1.0, 0.1, 10.0) == pytest.approx(math.e,
                                                                  rel=1e-15)


class TestHorizonAndRate:
    def test_t_max_unit_case(self):
        plan = MinerPlan(wealth=10.0, split=0.5, equipment_rate=1.0,
                         running_rate=1.0)
        assert t_max(plan) == pytest.approx(1.0, rel=1e-15)

    def test_t_max_worked_example(self):
        plan = MinerPlan(wealth=10.0, split=0.2, equipment_rate=2.0,
                         running_rate=0.1)
        assert t_max(plan) == pytest.approx(20.0, rel=1e-14)

    def test_t_max_decreases_with_split(self):
        splits = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        values = [t_max(MinerPlan(10.0, s, 1.0, 0.01)) for s in splits]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_lambda_equal_split(self):
        plan = MinerPlan(wealth=20.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.01)
        net = NetworkParams(expected_blocks=8.0, block_reward=1.0,
                            power=plan.power)
        assert win_rate_lambda(plan, net) == pytest.approx(4.0, rel=1e-15)

    def test_lambda_worked_example(self):
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        net = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=950.0)
        assert win_rate_lambda(plan, net) == pytest.approx(0.5, rel=1e-15)

    def test_lambda_vanishes_with_wealth(self):
        net = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=1000.0)
        lam = win_rate_lambda(MinerPlan(1e-9, 0.5, 1.0, 0.001), net)
        assert 0.0 < lam < 1e-11


class TestConditionalReward:
    def test_near_certain_winner(self):
        # q close to 1 with large E: the winner collects about M per win
        plan = MinerPlan(wealth=2e9, split=0.5, equipment_rate=1.0,
                         running_rate=1e-6)
        net = NetworkParams(expected_blocks=50.0, block_reward=3.0,
                            power=1.0)
        got = conditional_reward(plan, net)
        assert got == pytest.approx(3.0, rel=1e-6)

    def test_small_share_value(self):
        # q = 1/1000 exactly: M q / (1 - e^{-0.01})
        plan = MinerPlan(wealth=2.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        net = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=999.0)
        got = conditional_reward(plan, net)
        assert got == pytest.approx(0.10050083333194444, rel=1e-13)

    @pytest.mark.parametrize("e", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("q", [1e-4, 1e-3, 0.05, 0.5])
    def test_series_check_passes_across_grid(self, e, q):
        power = 1000.0 * q / (1.0 - q)
        plan = MinerPlan(wealth=2.0 * power, split=0.5,
                         equipment_rate=1.0, running_rate=1e-4)
        net = NetworkParams(expected_blocks=e, block_reward=2.0,
                            power=1000.0)
        want = 2.0 * q / -math.expm1(-e * q)
        assert conditional_reward(plan, net) == pytest.approx(want,
                                                              rel=1e-12)


class TestStochasticGrowthRate:
    def test_reference_breakdown_invariants(self):
        b = stochastic_growth_rate(REF_PLAN, REF_NET)
        assert b.growth_rate == pytest.approx(
            b.win_rate * (b.win_term + b.bankrupt_term), rel=1e-14)
        assert b.t_max == pytest.approx(t_max(REF_PLAN), rel=1e-15)
        assert b.bankrupt_term == pytest.approx(
            math.log(REF_PLAN.split) * math.exp(-b.win_rate * b.t_max),
            rel=1e-13, abs=1e-300)

    def test_rich_slow_burn_is_profitable(self):
        # long horizon and rewards far above running costs
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=1e-6)
        net = NetworkParams(expected_blocks=10.0, block_reward=5.0,
                            power=100.0)
        assert stochastic_growth_rate(plan, net).growth_rate > 0.0

    def test_insufficient_wealth_loses(self):
        plan = MinerPlan(wealth=0.01, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        assert stochastic_growth_rate(plan, REF_NET).growth_rate < 0.0

    def test_quadrature_tolerance_stability(self):
        coarse = stochastic_growth_rate(REF_PLAN, REF_NET,
                                        quad_tol=1e-8).growth_rate
        fine = stochastic_growth_rate(REF_PLAN, REF_NET,
                                      quad_tol=1e-12).growth_rate
        assert abs(coarse - fine) <= 1e-7 * max(1.0, abs(fine))


    def test_overflowing_t_max_is_numerical_error(self):
        # gamma c_e c_r = 5e-321, so (1 - gamma)/(gamma c_e c_r) is inf:
        # the error names t_max, not the log argument it would drive to -inf
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1e-20,
                         running_rate=1e-300)
        with warnings.catch_warnings(), \
                pytest.raises(NumericalError) as info:
            warnings.simplefilter("error")  # the error comes first
            stochastic_growth_rate(plan, REF_NET)
        assert str(info.value) == (
            "gamma*c_e*c_r = 5e-321 is beyond double precision: the "
            "reserve's run time t_max = (1 - gamma)/(gamma*c_e*c_r) rounds "
            "to inf")

    def test_zero_width_win_branch_passes_the_log_guard(self):
        # gamma c_e c_r overflows to inf, so t_max is 0 and the win branch
        # has no node; its log argument at t_max, 1 - inf*0 + rho, is nan,
        # and the guard skips it as the quadrature does
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=10.0,
                         running_rate=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf * 0 is computed quietly
            b = stochastic_growth_rate(plan, REF_NET)
        assert (b.t_max, b.win_term) == (0.0, 0.0)
        assert b.growth_rate == b.win_rate * math.log(0.5)

class TestSmoothGrowth:
    def test_optimal_gamma_unit_product(self):
        assert smooth_optimal_gamma(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_optimal_gamma_worked_example(self):
        assert smooth_optimal_gamma(1.0, 2.0, 0.25) == pytest.approx(
            2.0 / 3.0, rel=1e-15)

    def test_optimal_gamma_small_period_limit(self):
        assert smooth_optimal_gamma(1e-9, 1.0, 1.0) == pytest.approx(
            1.0, abs=1e-8)

    def test_balance_identity_on_random_draws(self):
        rng = np.random.default_rng(3355)
        for _ in range(300):
            tau = float(rng.uniform(0.01, 100.0))
            ce = float(rng.uniform(0.01, 10.0))
            cr = float(rng.uniform(1e-5, 1.0))
            g = smooth_optimal_gamma(tau, ce, cr)
            assert abs(g / (1.0 - g) * tau * ce * cr - 1.0) <= 1e-14

    def test_pure_cost_game_loses(self):
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        net = NetworkParams(expected_blocks=10.0, block_reward=0.0,
                            power=1000.0)
        assert smooth_growth_rate(plan, net, 1.0) < 0.0

    def test_balanced_drift_second_order_loss(self):
        # reward tuned so the integrand is log(1 + eps(t)) with zero-mean
        # eps; concavity then forces a small strictly negative rate
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=0.001)
        tau = 1.0
        drain = plan.split * plan.equipment_rate * plan.running_rate
        m = (drain * tau / 2.0) * (1000.0 + plan.power) \
            / (plan.split * plan.equipment_rate)
        net = NetworkParams(expected_blocks=10.0, block_reward=m,
                            power=1000.0)
        g = smooth_growth_rate(plan, net, tau)
        assert g < 0.0
        assert abs(g) <= (drain * tau / 2.0) ** 2

    def test_wealth_drops_out_when_network_dominates(self):
        # with P0 >> gamma W c_e the rate depends on W only negligibly
        net = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=1e9)
        small = smooth_growth_rate(MinerPlan(100.0, 0.5, 1.0, 1e-4), net,
                                   1.0)
        large = smooth_growth_rate(MinerPlan(200.0, 0.5, 1.0, 1e-4), net,
                                   1.0)
        assert small == pytest.approx(large, rel=1e-6)

    def test_period_exhausting_costs_raise(self):
        plan = MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                         running_rate=3.0)
        with pytest.raises(CertainRuinError):
            smooth_growth_rate(plan, REF_NET, 1.0)


class TestOptimizeGamma:
    def test_deterministic_across_calls(self):
        first = optimize_gamma(100.0, 1.0, 0.001, REF_NET,
                               grid_size=128, quad_tol=1e-8)
        second = optimize_gamma(100.0, 1.0, 0.001, REF_NET,
                                grid_size=128, quad_tol=1e-8)
        assert first.split == second.split
        assert first.growth_rate == second.growth_rate

    def test_beats_random_probes(self):
        opt = optimize_gamma(100.0, 1.0, 0.001, REF_NET,
                             grid_size=192, quad_tol=1e-8)
        rng = np.random.default_rng(99)
        for gamma in rng.uniform(1e-4, 1.0 - 1e-4, size=100):
            plan = MinerPlan(100.0, float(gamma), 1.0, 0.001)
            probe = stochastic_growth_rate(plan, REF_NET,
                                           quad_tol=1e-8).growth_rate
            assert opt.growth_rate >= probe - 1e-9

    def test_matches_denser_grid(self):
        opt = optimize_gamma(100.0, 1.0, 0.001, REF_NET,
                             grid_size=128, quad_tol=1e-8)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 1280)
        values = [stochastic_growth_rate(MinerPlan(100.0, float(g), 1.0,
                                                   0.001),
                                         REF_NET, quad_tol=1e-8).growth_rate
                  for g in grid]
        dense_best = float(grid[int(np.argmax(values))])
        assert abs(opt.split - dense_best) <= 1e-3

    def test_edge_optimum_is_the_edge_split(self):
        opt = optimize_gamma(*EDGE_OPTIMUM)
        assert opt.split == 1e-6
        assert opt.growth_rate == pytest.approx(-8.648925567032565e-11,
                                                rel=1e-12, abs=0)

    def test_block_reward_monotonicity(self):
        rates = [optimize_gamma(100.0, 1.0, 0.001,
                                NetworkParams(expected_blocks=10.0,
                                              block_reward=m, power=1000.0),
                                grid_size=96, quad_tol=1e-8).growth_rate
                 for m in (0.5, 1.0, 2.0)]
        assert rates[0] <= rates[1] + 1e-12
        assert rates[1] <= rates[2] + 1e-12


def acceptance_draw(rng):
    # (wealth, c_e, c_r, network) from the acceptance-test ranges
    wealth = float(10.0 ** rng.uniform(1.0, 4.0))
    c_e = float(10.0 ** rng.uniform(-1.0, 1.0))
    c_r = float(10.0 ** rng.uniform(-4.0, -2.0))
    net = NetworkParams(
        expected_blocks=float(10.0 ** rng.uniform(math.log10(0.5),
                                                  math.log10(20.0))),
        block_reward=float(rng.uniform(0.5, 5.0)),
        power=float(10.0 ** rng.uniform(2.0, 5.0)))
    return wealth, c_e, c_r, net


# an acceptance-range draw whose best split is the grid's edge, 1e-6
EDGE_OPTIMUM = (66.48673598352909, 4.114944413413739, 0.000344136432248918,
                NetworkParams(expected_blocks=1.344072832389793,
                              block_reward=0.8189680290357055,
                              power=2521.3111330074507))
# 2^17 times its wealth, where the split 1e-6 cannot reach quadrature
# tolerance within 50 levels
STALLING = (EDGE_OPTIMUM[0] * 2.0 ** 17, *EDGE_OPTIMUM[1:])


class TestBatchedGrowth:
    GRID = np.linspace(1e-6, 1.0 - 1e-6, 1024)

    def test_batch_matches_single_splits_bit_for_bit(self):
        rng = np.random.default_rng(5151)
        cases = [(100.0, 1.0, 0.001, REF_NET)]
        cases += [acceptance_draw(rng) for _ in range(4)]
        splits = self.GRID[::16]
        for wealth, c_e, c_r, net in cases:
            batch = growth._growth_parts(MinerPlan(wealth, splits, c_e, c_r),
                                         net, 1e-10)
            for i, split in enumerate(splits):
                alone = stochastic_growth_rate(
                    MinerPlan(wealth, float(split), c_e, c_r), net)
                assert alone == growth.GrowthBreakdown(
                    *(float(part[i]) for part in batch))

    def test_log_argument_failure_in_one_split_propagates(self,
                                                          monkeypatch):
        # a reward of -W/2 for one split drives its log argument below
        # gamma at t_max; the batch raises that split's NumericalError
        target = float(self.GRID[5])
        real = growth.conditional_reward

        def broken(plan, network):
            return np.where(plan.split == target, -0.5 * plan.wealth,
                            real(plan, network))

        monkeypatch.setattr(growth, "conditional_reward", broken)
        batch = MinerPlan(100.0, self.GRID[:64], 1.0, 0.001)
        with pytest.raises(NumericalError, match="log argument"):
            growth._growth_parts(batch, REF_NET, 1e-10)

    def test_convergence_failure_in_one_split_propagates(self):
        wealth, c_e, c_r, net = STALLING
        with pytest.raises(ConvergenceError) as batch:
            growth._growth_parts(MinerPlan(wealth, self.GRID[:64], c_e, c_r),
                                 net, 1e-10)
        with pytest.raises(ConvergenceError) as alone:
            stochastic_growth_rate(MinerPlan(wealth, float(self.GRID[0]),
                                             c_e, c_r), net)
        assert str(batch.value).startswith(
            "adaptive Simpson did not reach tolerance within 50 "
            "refinement levels (achieved error ")
        assert str(batch.value) == str(alone.value)
        assert batch.value.best_estimate == alone.value.best_estimate
        assert batch.value.achieved_error == alone.value.achieved_error
        # the other 63 splits converge on their own
        growth._growth_parts(MinerPlan(wealth, self.GRID[1:64], c_e, c_r),
                             net, 1e-10)

    def test_optimizer_zooms_in_batched_levels(self, monkeypatch):
        calls = []
        real_parts = growth._growth_parts

        def counted_parts(plan, *args):
            parts = real_parts(plan, *args)
            calls.append((plan.split.copy(), parts[0]))
            return parts

        def no_single(*args, **kwargs):
            raise AssertionError("optimize_gamma made a one-split call")

        monkeypatch.setattr(growth, "_growth_parts", counted_parts)
        monkeypatch.setattr(growth, "stochastic_growth_rate", no_single)
        grid_size = 300
        opt = optimize_gamma(100.0, 1.0, 0.001, REF_NET,
                             grid_size=grid_size, quad_tol=1e-8)
        scan, levels, probes = calls[:2], calls[2:-1], calls[-1]
        assert [len(splits) for splits, _ in scan] == [256, 44]
        assert 1 <= len(levels) <= 8
        # each level spans a bracket inside the one before, around the best
        # split so far, the first around the best grid split
        grid = np.concatenate([splits for splits, _ in scan])
        values = np.concatenate([g for _, g in scan])
        k = int(np.argmax(values))
        best, best_g = grid[k], values[k]
        lo, hi = grid[k - 1], grid[k + 1]
        for splits, g in levels:
            assert len(splits) == growth._ZOOM_POINTS
            step = (splits[-1] - splits[0]) / (len(splits) - 1)
            assert np.allclose(np.diff(splits), step, rtol=1e-6, atol=0)
            assert np.isclose(splits[0] - step, lo, rtol=0, atol=1e-15)
            assert np.isclose(splits[-1] + step, hi, rtol=0, atol=1e-15)
            if g.max() > best_g:
                best, best_g = splits[int(np.argmax(g))], g.max()
            # the next bracket: the best split's neighbours
            nodes = np.concatenate([[splits[0] - step], splits,
                                    [splits[-1] + step]])
            lo = nodes[nodes < best].max(initial=nodes[0])
            hi = nodes[nodes > best].min(initial=nodes[-1])
        assert hi - lo <= 1e-9
        assert (opt.split, opt.growth_rate) == (best, best_g)
        # the two concavity probes at +-1e-4, in one call
        assert probes[0].tolist() == [opt.split - 1e-4, opt.split + 1e-4]
        assert max(g.max() for _, g in calls) <= opt.growth_rate

    @pytest.mark.parametrize("poisoned", [slice(None), slice(0, None, 2)],
                             ids=["whole-level", "every-other-split"])
    def test_refine_never_takes_a_nan_rate(self, monkeypatch, poisoned):
        real_parts = growth._growth_parts

        def nan_in_levels(plan, *args):
            g, *rest = real_parts(plan, *args)
            if len(plan.split) == growth._ZOOM_POINTS:
                g = g.copy()
                g[poisoned] = math.nan
            return (g, *rest)

        grid = np.linspace(1e-6, 1.0 - 1e-6, 200)
        clean = optimize_gamma(100.0, 1.0, 0.001, REF_NET, grid_size=200,
                               quad_tol=1e-8)
        monkeypatch.setattr(growth, "_growth_parts", nan_in_levels)
        opt = optimize_gamma(100.0, 1.0, 0.001, REF_NET, grid_size=200,
                             quad_tol=1e-8)
        assert not math.isnan(opt.growth_rate)
        if poisoned == slice(None):
            # no level counts: the best grid split stands
            assert opt.split in grid
        else:
            assert abs(opt.split - clean.split) <= 1e-8


def scalar_conditional_reward(plan, network):
    """conditional_reward as it was before batching, kept as its oracle:
    one split at a time through math.expm1, with the no-win series check."""
    p = plan.power
    q = p / (network.power + p)
    e = network.expected_blocks
    denom = -math.expm1(-e * q)
    denom_series = 1.0 - win_count_pmf_series(0, network, MinerShare(q))
    if abs(denom_series - denom) > 1e-12:
        raise MineconError(
            f"no-win mass series {1.0 - denom_series!r} disagrees with "
            f"closed form {1.0 - denom!r}")
    return network.block_reward * q / denom


class TestBatchedModel:
    GRID = np.linspace(1e-6, 1.0 - 1e-6, 1024)

    def test_rewards_match_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(6262)
        cases = [(100.0, 1.0, 0.001, REF_NET)]
        cases += [acceptance_draw(rng) for _ in range(4)]
        for wealth, c_e, c_r, net in cases:
            batch = conditional_reward(MinerPlan(wealth, self.GRID, c_e, c_r),
                                       net)
            oracle = [scalar_conditional_reward(
                MinerPlan(wealth, float(split), c_e, c_r), net)
                for split in self.GRID]
            assert batch.tolist() == oracle
            single = conditional_reward(MinerPlan(wealth, 0.5, c_e, c_r), net)
            assert single == scalar_conditional_reward(
                MinerPlan(wealth, 0.5, c_e, c_r), net)

    def test_batch_quantities_match_single_plans(self):
        batch = MinerPlan(100.0, self.GRID[::64], 1.0, 0.001)
        for i, split in enumerate(self.GRID[::64]):
            plan = MinerPlan(100.0, float(split), 1.0, 0.001)
            assert batch.power[i] == plan.power
            assert batch.drain_rate[i] == plan.drain_rate
            assert t_max(batch)[i] == t_max(plan)
            assert win_rate_lambda(batch, REF_NET)[i] == \
                win_rate_lambda(plan, REF_NET)
            assert growth.win_probability(batch, REF_NET)[i] == \
                plan.power / (REF_NET.power + plan.power)

    def test_one_reward_call_and_no_plan_per_batch(self, monkeypatch):
        batch = MinerPlan(100.0, self.GRID[:64], 1.0, 0.001)
        built, rewarded = [], []
        real_init = MinerPlan.__post_init__
        real_reward = growth.conditional_reward

        def counted_init(plan):
            built.append(plan.split)
            real_init(plan)

        def counted_reward(plan, network):
            rewarded.append(plan)
            return real_reward(plan, network)

        monkeypatch.setattr(MinerPlan, "__post_init__", counted_init)
        monkeypatch.setattr(growth, "conditional_reward", counted_reward)
        growth._growth_parts(batch, REF_NET, 1e-10)
        assert built == []
        assert rewarded == [batch]

    def test_optimizer_makes_one_reward_call_per_batch(self, monkeypatch):
        parts, rewarded = [], []
        real_parts = growth._growth_parts
        real_reward = growth.conditional_reward

        def counted_parts(plan, *args):
            parts.append(plan.split.size)
            return real_parts(plan, *args)

        def counted_reward(plan, network):
            rewarded.append(plan.split.size)
            return real_reward(plan, network)

        monkeypatch.setattr(growth, "_growth_parts", counted_parts)
        monkeypatch.setattr(growth, "conditional_reward", counted_reward)
        optimize_gamma(100.0, 1.0, 0.001, REF_NET, grid_size=300,
                       quad_tol=1e-8)
        assert parts[:2] == [256, 44]
        assert rewarded == parts


class TestShareGuard:
    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        # a library caller gets the NumericalError, with no numpy warning
        # before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    # P0 + p overflows: p = 0.9 * 1e308 * 1.5 against P0 = 1e308
    OVERFLOW = (MinerPlan(1e308, 0.9, 1.5, 0.001),
                NetworkParams(expected_blocks=10.0, block_reward=1.0,
                              power=1e308))
    # q underflows to 0: p = 5e-301 against P0 = 1e300
    UNDERFLOW = (MinerPlan(1.0, 0.5, 1e-300, 0.001),
                 NetworkParams(expected_blocks=10.0, block_reward=1.0,
                               power=1e300))
    # p = gamma W c_e itself underflows to 0, so q does too
    NO_POWER = (MinerPlan(1e-200, 0.5, 1e-200, 0.001),
                NetworkParams(expected_blocks=10.0, block_reward=1.0,
                              power=1.0))

    @pytest.mark.parametrize("case, match", [
        ("OVERFLOW", r"P0 \+ p overflows"), ("UNDERFLOW", "underflows to 0"),
        ("NO_POWER", "underflows to 0")])
    @pytest.mark.parametrize("quantity", [growth.win_probability,
                                          win_rate_lambda])
    @pytest.mark.parametrize("batch", [False, True])
    def test_lost_share_is_numerical_error(self, case, match, quantity,
                                           batch):
        plan, net = getattr(self, case)
        if batch:
            # one bad split is enough for the whole batch to fail
            plan = MinerPlan(plan.wealth, np.array([1e-9, plan.split]),
                             plan.equipment_rate, plan.running_rate)
        with pytest.raises(NumericalError, match=match):
            quantity(plan, net)

    @pytest.mark.parametrize("case", ["OVERFLOW", "UNDERFLOW"])
    def test_growth_names_the_share_not_the_log_argument(self, case):
        plan, net = getattr(self, case)
        with pytest.raises(NumericalError, match="P0 \\+ p"):
            stochastic_growth_rate(plan, net)
        with pytest.raises(NumericalError, match="P0 \\+ p"):
            optimize_gamma(plan.wealth, plan.equipment_rate,
                           plan.running_rate, net, grid_size=64)

    def test_smooth_split_rounding_to_one_is_numerical_error(self):
        # tau c_e c_r = 1e-300: 1/(1 + 1e-300) rounds to 1.0
        with pytest.raises(NumericalError, match=r"tau\*c_e\*c_r"):
            smooth_optimal_gamma(1.0, 1.0, 1e-300)
        with pytest.raises(NumericalError, match=r"tau\*c_e\*c_r"):
            max_pool_fee(100.0, 1.0, 1e-300, REF_NET, 1.0, grid_size=64)


class TestEntryValidation:
    BAD = [(0, 0.0), (0, -1.0), (0, math.inf), (0, math.nan),
           (1, 0.0), (1, -1.0), (1, math.inf), (1, math.nan),
           (2, 0.0), (2, -1e-3), (2, math.inf), (2, math.nan)]

    @pytest.mark.parametrize("entry", ["optimize", "wmin", "fee"])
    @pytest.mark.parametrize("position, value", BAD)
    def test_rejected_before_any_quadrature(self, monkeypatch, entry,
                                            position, value):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran on invalid input")

        monkeypatch.setattr(growth, "simpson_batch", no_quadrature)
        monkeypatch.setattr(growth, "adaptive_simpson", no_quadrature)
        budget = [100.0, 1.0, 0.001]  # wealth, c_e, c_r
        budget[position] = value
        with pytest.raises(ValidationError):
            if entry == "optimize":
                optimize_gamma(*budget, REF_NET, grid_size=64)
            elif entry == "wmin":
                min_viable_wealth(*budget, REF_NET, grid_size=64)
            else:
                max_pool_fee(*budget, REF_NET, 1.0, grid_size=64)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.5, math.nan,
                                     math.inf])
    def test_plan_rejects_any_split_outside_the_unit_interval(self, bad):
        splits = np.linspace(0.1, 0.9, 9)
        splits[4] = bad
        with pytest.raises(ValidationError, match="split"):
            MinerPlan(100.0, splits, 1.0, 0.001)

    def test_plan_rejects_a_split_matrix(self):
        with pytest.raises(ValidationError, match="1-D"):
            MinerPlan(100.0, np.full((2, 2), 0.5), 1.0, 0.001)


class TestMinViableWealth:
    def args(self, network=REF_NET, running_rate=0.001):
        return dict(equipment_rate=1.0, running_rate=running_rate,
                    network=network, grid_size=96, quad_tol=1e-8)

    def optimal_rate(self, wealth):
        return optimize_gamma(wealth, **self.args()).growth_rate

    def test_root_contract(self):
        wmin = min_viable_wealth(100.0, **self.args()).wealth
        delta = 1e-3 * wmin
        assert self.optimal_rate(wmin - delta) < 0.0
        assert self.optimal_rate(wmin + delta) > 0.0

    def test_matches_log_spaced_scan(self):
        wmin = min_viable_wealth(100.0, **self.args()).wealth
        grid = np.geomspace(0.5, 100.0, 120)
        signs = np.array([self.optimal_rate(float(w)) for w in grid])
        first_pos = int(np.argmax(signs > 0))
        assert grid[first_pos - 1] <= wmin <= grid[first_pos]

    def test_cheaper_running_cost_helps(self):
        # at higher running cost the breakeven wealth can stop existing
        # altogether, so compare two rates where both roots are real
        lo = min_viable_wealth(100.0, **self.args(running_rate=0.0005))
        hi = min_viable_wealth(100.0, **self.args(running_rate=0.001))
        assert lo.wealth <= hi.wealth + 1e-9

    def test_no_sign_change_raises(self):
        # with no block reward every split only drains wealth, so g* < 0
        # at every wealth the expansion tries
        dead = NetworkParams(expected_blocks=10.0, block_reward=0.0,
                             power=1000.0)
        with pytest.raises(NoRootError):
            min_viable_wealth(100.0, **self.args(network=dead))

    def test_each_wealth_is_optimized_once(self, monkeypatch):
        seen = []

        def counted(wealth, *args, **kwargs):
            seen.append(wealth)
            return optimize_gamma(wealth, *args, **kwargs)

        monkeypatch.setattr(growth, "optimize_gamma", counted)
        root = min_viable_wealth(100.0, **self.args())
        assert len(seen) == len(set(seen))
        assert root.bracket[0] <= root.wealth <= root.bracket[1]
        assert root.wealth in seen

    def test_tour_job_takes_at_most_20_runs(self, monkeypatch):
        seen = []

        def counted(wealth, *args, **kwargs):
            seen.append(wealth)
            return optimize_gamma(wealth, *args, **kwargs)

        monkeypatch.setattr(growth, "optimize_gamma", counted)
        root = min_viable_wealth(100.0, equipment_rate=1.0,
                                 running_rate=0.001, network=REF_NET,
                                 grid_size=8, quad_tol=1e-6)
        # halving 100 -> 3.125 takes 6 runs, the root 12 more
        assert len(seen) <= 20
        assert len(seen) == len(set(seen))
        lo, hi = root.bracket
        assert hi == 2.0 * lo
        assert lo < root.wealth < hi
        assert root.wealth == pytest.approx(3.5596630070358515, rel=1e-6)


def log_brent(f, lo, hi):
    """growth._log_brent on f over [lo, hi], checking every evaluation
    lies strictly inside the bracket the signs seen so far allow; returns
    the root and the wealths evaluated."""
    calls = []
    bracket = [lo, hi]
    rising = f(hi) > 0.0

    def checked(w):
        assert bracket[0] < w < bracket[1]
        calls.append(w)
        value = f(w)
        bracket[(value > 0.0) == rising] = w
        return value

    return growth._log_brent(checked, lo, hi, f(lo), f(hi)), calls


def flat_then_rising(w):
    # flat just below zero under the root, as g* is below W_min
    return max(-1e-12, math.log(w / 3.7))


def smooth(w):
    return w * w - 2.0


def cubic(w):
    return math.log(w) ** 3 - 0.001


class TestLogBrent:
    def test_flat_then_rising(self):
        root, calls = log_brent(flat_then_rising, 2.0, 4.0)
        assert root == pytest.approx(3.7, rel=1e-6)
        assert len(calls) <= 30

    def test_smooth_root(self):
        root, calls = log_brent(smooth, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-6)
        assert abs(smooth(root)) <= 1e-8
        assert len(calls) <= 8

    @pytest.mark.parametrize("lo, hi, expected", [(2.0, 4.0, 2.0),
                                                  (1.0, 2.0, 2.0)])
    def test_exact_zero_at_a_bracket_end(self, lo, hi, expected):
        root, calls = log_brent(lambda w: math.log(w / 2.0), lo, hi)
        assert (root, calls) == (expected, [])

    def test_interpolation_outside_the_bracket_is_not_taken(self):
        # the second to fourth inverse quadratic steps, through points on
        # the flat left and the steep right, land up to 3,000 bracket
        # widths outside the bracket; log_brent asserts none is taken
        def steep(w):
            return math.expm1(20.0 * (math.log(w) - 0.6))

        root, calls = log_brent(steep, 1.0, 2.0)
        assert root == pytest.approx(math.exp(0.6), rel=1e-6)
        assert abs(steep(root)) <= 1e-8
        assert len(calls) <= 25

    def test_unreachable_rate_tolerance_raises(self):
        # |rate| is still 0.06 a width of 1e-6 from the root, and 1e-8
        # only closer than double precision resolves
        def cusp(w):
            x = math.log(w) - 0.3
            return math.copysign(abs(x) ** 0.2, x)

        with pytest.raises(ConvergenceError,
                           match="minimum viable wealth stalled"):
            log_brent(cusp, 1.0, 2.0)

    @pytest.mark.parametrize("f, lo, hi", [(flat_then_rising, 2.0, 4.0),
                                           (smooth, 1.0, 2.0),
                                           (cubic, 0.5, 2.0)])
    def test_takes_scipy_brentq_steps(self, f, lo, hi):
        # where |f| is within tolerance once the bracket is, both stop on
        # the width alone and evaluate the same points
        x, info = scipy_optimize.brentq(lambda x: f(math.exp(x)),
                                        math.log(lo), math.log(hi),
                                        xtol=math.log1p(1e-6),
                                        full_output=True)
        root, calls = log_brent(f, lo, hi)
        assert len(calls) == info.function_calls - 2
        assert root == pytest.approx(math.exp(x), rel=1e-12)


class TestMaxPoolFee:
    def test_reference_recomputation(self):
        bound = max_pool_fee(100.0, 1.0, 0.001, REF_NET, 1.0,
                             grid_size=192, quad_tol=1e-9)
        assert isinstance(bound, FeeBound)
        assert bound.relative_bound == pytest.approx(
            bound.smooth_growth - bound.stochastic_growth, abs=1e-15)
        assert bound.profitability_bound == bound.smooth_growth
        gamma_s = smooth_optimal_gamma(1.0, 1.0, 0.001)
        assert bound.smooth_split == pytest.approx(gamma_s, abs=0.0)

    def test_fee_below_bound_wins_at_long_horizon(self):
        bound = max_pool_fee(100.0, 1.0, 0.001, REF_NET, 1.0,
                             grid_size=192, quad_tol=1e-9)
        t = 1000.0
        solo = wealth_trajectory(100.0, bound.stochastic_growth, t)
        under = wealth_trajectory(
            100.0, bound.smooth_growth - (bound.relative_bound - 1e-6), t)
        over = wealth_trajectory(
            100.0, bound.smooth_growth - (bound.relative_bound + 1e-6), t)
        assert under > solo
        assert over < solo
