"""End-to-end acceptance gate: eleven checks with stated tolerances.

Each check prints one ACCEPTANCE line directly to the terminal (bypassing
pytest's capture) and fails if its result or its runtime budget is missed.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from conftest import run_cli, write_scenario
from minecon.growth import (GameRound, MinerPlan, _smooth_growth_parts,
                            max_pool_fee, optimize_gamma, smooth_growth_rate,
                            smooth_optimal_gamma, stochastic_growth_rate,
                            t_max, tane_growth_rate, tane_growth_upper_bound,
                            wealth_trajectory, win_rate_lambda)
from minecon.mcsim import (SimConfig, _fold, _window_totals,
                           estimate_first_win_time, round_oracle,
                           simulate_wealth_path)
from minecon.rewarddist import (MinerShare, NetworkParams, variance_paper,
                                variance_thinned, win_count_pmf_closed,
                                win_count_pmf_series)
from minecon.waiting import (BankruptcyInputs, bankruptcy_probability,
                             waiting_cdf)


@contextlib.contextmanager
def criterion(capsys, number, label, budget):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed <= budget else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {number:02d} {label}: {status} "
                  f"({elapsed:.2f}s of {budget:.0f}s)")
    assert elapsed <= budget, \
        f"{label} took {elapsed:.2f}s, over the {budget:.0f}s budget"


def reference_network():
    return NetworkParams(expected_blocks=10.0, block_reward=1.0, power=1000.0)


def reference_plan():
    return MinerPlan(wealth=100.0, split=0.5, equipment_rate=1.0,
                     running_rate=0.001)


def draw_plan_and_network(rng):
    gamma = float(rng.uniform(0.1, 0.9))
    wealth = float(10.0 ** rng.uniform(1.0, 4.0))
    c_e = float(10.0 ** rng.uniform(-1.0, 1.0))
    c_r = float(10.0 ** rng.uniform(-4.0, -2.0))
    e_blocks = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(20.0)))
    m = float(rng.uniform(0.5, 5.0))
    p0 = float(10.0 ** rng.uniform(2.0, 5.0))
    plan = MinerPlan(wealth=wealth, split=gamma, equipment_rate=c_e,
                     running_rate=c_r)
    net = NetworkParams(expected_blocks=e_blocks, block_reward=m, power=p0)
    return plan, net


def test_01_win_count_routes_agree(capsys):
    with criterion(capsys, 1, "win-count series equals closed form", 1.0):
        for e in (0.1, 1.0, 10.0):
            net = NetworkParams(expected_blocks=e, block_reward=1.0,
                                power=1000.0)
            for q in (1e-4, 1e-3, 0.05, 0.5):
                share = MinerShare(q)
                for v in range(51):
                    series = win_count_pmf_series(v, net, share)
                    closed = win_count_pmf_closed(v, net, share)
                    assert abs(series - closed) <= 1e-12, (e, q, v)


def test_02_waiting_curves_from_the_cli(capsys, tmp_path):
    with criterion(capsys, 2, "waiting-time curves from the CLI", 1.0):
        spot = None
        for e in (0.1, 10.0):
            for p0, q in ((999.0, 0.001), (199.0, 0.005), (49.0, 0.02)):
                # gamma=0.5, W=2, c_e=1 buys power exactly 1, so the win
                # probability is exactly 1/(P0 + 1)
                path = write_scenario(tmp_path, name=f"wait_{e}_{p0}.txt",
                                      E=e, W=2, P0=p0)
                out = tmp_path / f"wait_{e}_{p0}"
                assert run_cli("wait", path, "--out", out) == 0
                table = np.loadtxt(out / "wait_grid.csv", delimiter=",",
                                   skiprows=1)
                assert table.shape == (1441, 3)
                xs, cdf = table[:, 0], table[:, 1]
                exact = -np.expm1(-(e * q) * xs)
                assert float(np.max(np.abs(cdf - exact))) <= 1e-12
                if e == 10.0 and q == 0.001:
                    assert xs[100] == 100.0
                    spot = float(cdf[100])
        assert abs(spot - 0.6321205588285577) <= 1e-12


def test_03_first_win_times_match_the_waiting_law(capsys):
    with criterion(capsys, 3, "first-win sampling matches the waiting law",
                   120.0):
        net = reference_network()
        share = MinerShare(0.001)
        config = SimConfig(seed=303, sample_count=1_000_000)
        result = estimate_first_win_time(net, share, config)
        # the empirical CDF at every epoch from 0 to the longest wait
        ecdf = np.cumsum(np.bincount(result.won, weights=result.count)) \
            / result.count.sum()
        exact = np.array([waiting_cdf(float(x), net, share)
                          for x in range(ecdf.size)])
        sup_distance = float(np.max(np.abs(ecdf - exact)))
        assert sup_distance <= 0.01
        assert abs(result.report.estimate - 100.0) \
            <= 3.0 * result.report.std_error


def test_04_window_moments_with_both_variances(capsys):
    with criterion(capsys, 4, "window reward moments, both variances", 120.0):
        net = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=200.0)
        share = MinerShare(1.0 / 200.0)
        n_paths, window, chunk = 1_000_000, 100, 40_000
        # each path's total blocks won, and the share of paths winning it
        totals, paths = _fold(
            _window_totals(net, share, window,
                           SimConfig(seed=404, sample_count=chunk,
                                     stream_id=k))
            for k in range(n_paths // chunk))
        weight = paths / n_paths

        v_thinned = variance_thinned(net, share, window)
        v_paper = variance_paper(net, share, window)
        assert v_thinned == pytest.approx(5.0, rel=1e-12)

        mean = float(totals @ weight)
        centered = totals - mean
        m2 = float(centered ** 2 @ weight)
        m4 = float(centered ** 4 @ weight)
        sample_var = m2 * n_paths / (n_paths - 1)
        se_mean = math.sqrt(sample_var / n_paths)
        assert abs(mean - 5.0) <= 3.0 * se_mean

        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / n_paths)
        assert abs(sample_var - v_thinned) <= 3.0 * se_var

        with capsys.disabled():
            print(f"\nACCEPTANCE 04 note: mc variance {sample_var:.6f}, "
                  f"variance_thinned {v_thinned:.6f}, variance_paper "
                  f"{v_paper:.6f} (reported, not asserted)", end="")


def test_05_ruin_epoch_and_bankruptcy_bound(capsys):
    with criterion(capsys, 5, "drain-to-ruin epoch and bankruptcy bound",
                   60.0):
        rng = np.random.default_rng(505)
        dead_net = NetworkParams(expected_blocks=10.0, block_reward=0.0,
                                 power=1000.0)
        checked = 0
        while checked < 20:
            gamma = float(rng.uniform(0.1, 0.9))
            c_e = float(10.0 ** rng.uniform(-1.0, 1.0))
            c_r = float(10.0 ** rng.uniform(-3.5, -1.0))
            ratio = (1.0 - gamma) / (gamma * c_e * c_r)
            if ratio > 20_000.0:
                continue
            wealth = float(10.0 ** rng.uniform(0.0, 3.0))
            plan = MinerPlan(wealth=wealth, split=gamma, equipment_rate=c_e,
                             running_rate=c_r)
            config = SimConfig(seed=505, sample_count=1, stream_id=checked)
            path = simulate_wealth_path(plan, dead_net,
                                        int(math.ceil(ratio)) + 5, config)
            assert path.bankrupt
            assert path.bankrupt_epoch == math.ceil(ratio)
            checked += 1

        # no-win frequency over 1e5 trials against the closed-form bound
        share = MinerShare(0.001)
        inputs = BankruptcyInputs(initial_wealth=50.0, epoch_cost=0.5)
        bound = bankruptcy_probability(inputs, reference_network(), share)
        trials = 100_000
        result = estimate_first_win_time(reference_network(), share,
                                         SimConfig(seed=515,
                                                   sample_count=trials))
        horizon = 100  # ceil(50 / 0.5)
        assert result.count.sum() == trials
        frequency = result.count[result.won > horizon].sum() / trials
        se = math.sqrt(frequency * (1.0 - frequency) / trials)
        assert abs(frequency - bound) <= 3.0 * se


def test_06_round_oracle_confirms_the_growth_formula(capsys):
    with criterion(capsys, 6, "growth formula against round simulation",
                   300.0):
        cases = [(reference_plan(), reference_network())]
        rng = np.random.default_rng(606)
        while len(cases) < 11:
            plan, net = draw_plan_and_network(rng)
            product = win_rate_lambda(plan, net) * t_max(plan)
            if not 0.1 <= product <= 20.0:
                continue
            cases.append((plan, net))
        for k, (plan, net) in enumerate(cases):
            g = stochastic_growth_rate(plan, net, quad_tol=1e-10).growth_rate
            config = SimConfig(seed=606, sample_count=1_000_000, stream_id=k)
            report = round_oracle(plan, net, config,
                                  reward_mode="conditional_mean")
            assert abs(g - report.estimate) <= 3.0 * report.std_error, k


def test_07_averaged_game_never_beats_its_mean_bound(capsys):
    with criterion(capsys, 7, "averaged game stays below its mean bound",
                   1.0):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            probabilities = rng.dirichlet(np.ones(k))
            wealth = float(10.0 ** rng.uniform(0.0, 3.0))
            costs = rng.uniform(0.0, 0.3, size=k) * wealth
            rewards = rng.uniform(0.0, 2.0, size=k) * wealth
            rounds = [GameRound(float(p), float(c), float(r))
                      for p, c, r in zip(probabilities, costs, rewards)]
            assert tane_growth_rate(rounds, wealth) \
                <= tane_growth_upper_bound(rounds, wealth) + 1e-12


def test_08_optimizer_matches_a_dense_scan(capsys):
    with criterion(capsys, 8, "optimal split against a dense scan", 120.0):
        cases = [(100.0, 1.0, 0.001, reference_network())]
        rng = np.random.default_rng(808)
        attempts = 0
        while len(cases) < 10 and attempts < 600:
            attempts += 1
            plan, net = draw_plan_and_network(rng)
            product = win_rate_lambda(plan, net) * t_max(plan)
            if not 0.1 <= product <= 20.0:
                continue
            candidate = (plan.wealth, plan.equipment_rate, plan.running_rate,
                         net)
            # coarse screen: keep scenarios with a clearly profitable,
            # clearly interior optimum; the real comparisons rerun at
            # full settings below
            screened = optimize_gamma(*candidate, grid_size=96,
                                      quad_tol=1e-8)
            if screened.growth_rate <= 1e-6:
                continue
            if not 1e-3 < screened.split < 1.0 - 1e-3:
                continue
            cases.append(candidate)
        assert len(cases) == 10

        edge = 1e-6
        grid = np.linspace(edge, 1.0 - edge, 10_240)
        for wealth, c_e, c_r, net in cases:
            opt = optimize_gamma(wealth, c_e, c_r, net)

            def rate(gamma, tol=1e-8):
                plan = MinerPlan(wealth=wealth, split=float(gamma),
                                 equipment_rate=c_e, running_rate=c_r)
                return stochastic_growth_rate(plan, net,
                                              quad_tol=tol).growth_rate

            dense = np.array([rate(g) for g in grid])
            dense_best = float(grid[int(np.argmax(dense))])
            assert abs(opt.split - dense_best) <= 1e-3

            h = 1e-4
            assert 2.0 * h < opt.split < 1.0 - 2.0 * h
            fd2 = (rate(opt.split + h, 1e-10) - 2.0 * opt.growth_rate
                   + rate(opt.split - h, 1e-10)) / (h * h)
            noise = (64.0 * 1e-10 * max(1.0, abs(opt.growth_rate))
                     + 1e-13) / (h * h)
            assert fd2 <= noise


def test_09_smooth_growth_dual_evaluation(capsys):
    with criterion(capsys, 9, "smooth growth closed form and split rule",
                   1.0):
        rng = np.random.default_rng(909)
        checked = 0
        strict_relative = 0
        ratio_checked = 0
        while checked < 200:
            plan, net = draw_plan_and_network(rng)
            tau = float(10.0 ** rng.uniform(-1.0, 2.0))
            drain = plan.split * plan.equipment_rate * plan.running_rate
            if drain * tau >= 0.9:
                continue  # too close to in-period exhaustion
            quad, closed, noise = _smooth_growth_parts(plan, net, tau)
            # 1e-10 relative, with the shared rounding floor taking over
            # when the rate itself is too small to resolve that tightly
            assert abs(quad - closed) <= max(1e-10 * abs(closed), noise)
            if 1e-10 * abs(closed) >= noise:
                strict_relative += 1
            assert smooth_growth_rate(plan, net, tau) == closed

            split = smooth_optimal_gamma(tau, plan.equipment_rate,
                                         plan.running_rate)
            x = tau * plan.equipment_rate * plan.running_rate
            # split * (1 + x) = 1 is the same balance condition without the
            # 1/(1 - split) amplification, so it holds to rounding error
            # for every x
            assert abs(split * (1.0 + x) - 1.0) <= 1e-14
            if x >= 0.05:
                # the ratio form loses eps/x to cancellation in 1 - split,
                # so 1e-14 is only meaningful once x is moderate
                ratio = split / (1.0 - split) * x
                assert abs(ratio - 1.0) <= 1e-14
                ratio_checked += 1
            checked += 1
        assert strict_relative >= 20
        assert ratio_checked >= 30


def test_10_fee_margin_flips_the_wealth_comparison(capsys):
    with criterion(capsys, 10, "fee margin decides pooled versus solo",
                   60.0):
        cases = [(100.0, 1.0, 0.001, reference_network(), 1.0)]
        rng = np.random.default_rng(1010)
        attempts = 0
        while len(cases) < 5 and attempts < 100:
            attempts += 1
            plan, net = draw_plan_and_network(rng)
            tau = float(10.0 ** rng.uniform(-0.3, 1.0))
            candidate = (plan.wealth, plan.equipment_rate, plan.running_rate,
                         net, tau)
            # coarse screen; the asserted comparison reruns at full settings
            try:
                bound = max_pool_fee(*candidate, grid_size=96,
                                     quad_tol=1e-8)
            except Exception:
                continue
            if bound.stochastic_growth <= 1e-6 \
                    or bound.relative_bound <= 3e-6:
                continue
            cases.append(candidate)
        assert len(cases) == 5

        for wealth, c_e, c_r, net, tau in cases:
            bound = max_pool_fee(wealth, c_e, c_r, net, tau)
            solo = wealth_trajectory(wealth, bound.stochastic_growth, 1000.0)
            undercharged = wealth_trajectory(
                wealth, bound.smooth_growth - (bound.relative_bound - 1e-6),
                1000.0)
            overcharged = wealth_trajectory(
                wealth, bound.smooth_growth - (bound.relative_bound + 1e-6),
                1000.0)
            assert undercharged > solo
            assert overcharged < solo


def test_11_every_command_is_reproducible(capsys, tmp_path):
    with criterion(capsys, 11, "byte-identical reruns of every command",
                   60.0):
        scenario = write_scenario(tmp_path)
        invocations = [
            ("dist", []),
            ("wait", []),
            ("growth", []),
            ("optimize", []),
            ("optimize", ["--wmin", "--grid-size", "128",
                          "--quad-tol", "1e-8"]),
            ("fee", []),
            ("simulate", ["--sim", "rounds", "--per-trial",
                          "--samples", "20000"]),
            ("simulate", ["--sim", "epochs", "--samples", "20000"]),
            ("simulate", ["--sim", "first-win", "--samples", "5000"]),
            ("simulate", ["--sim", "wealth", "--horizon", "2000"]),
            ("verify", ["--samples", "60000"]),
        ]
        for index, (command, extra) in enumerate(invocations):
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"run{index}_{tag}"
                assert run_cli(command, scenario, "--out", out,
                               "--seed", 42, *extra) == 0
                outputs.append(out)
            names = sorted(p.name for p in outputs[0].iterdir())
            assert names == sorted(p.name for p in outputs[1].iterdir())
            assert names, command
            for name in names:
                a = (outputs[0] / name).read_bytes()
                b = (outputs[1] / name).read_bytes()
                assert a == b, (command, name)
