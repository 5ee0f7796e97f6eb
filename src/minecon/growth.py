"""Time-averaged wealth growth rates for mining strategies.

A miner splits wealth W into equipment (gamma W, bought at rate c_e) and a
running reserve ((1 - gamma) W, drained at c_r per unit power per epoch).
Growth rates are per-epoch log-wealth rates; the stochastic rate averages
over the exponential first-win time, the smooth rate assumes one guaranteed
payout per period tau.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (CertainRuinError, ConvergenceError, NoRootError,
                     NoViableStrategyError, NumericalError, require)
from .quadrature import adaptive_simpson, simpson_batch
from .rewarddist import NetworkParams


# libm's expm1 and exp entry by entry: numpy's own differ in the last bit
# on about 2% and 5% of arguments, which would move artifact digits
_expm1 = np.vectorize(math.expm1, otypes=[float])
_exp = np.vectorize(math.exp, otypes=[float])


@dataclass(frozen=True)
class MinerPlan:
    """A miner's budget: wealth W, split gamma, and the two cost rates.

    equipment_rate (c_e) converts currency to consensus power; running_rate
    (c_r) is the per-epoch running cost per unit of power. split is one
    gamma or a 1-D array of them, a batch of plans that share the rest; every
    per-split quantity below is then an array of the same length.
    """

    wealth: float
    split: float
    equipment_rate: float
    running_rate: float

    def __post_init__(self):
        require(math.isfinite(self.wealth) and self.wealth > 0,
                "wealth must be positive and finite")
        if isinstance(self.split, float):
            inside = 0.0 < self.split < 1.0
        else:
            split = np.asarray(self.split, dtype=float)
            require(split.ndim == 1, "split must be a float or a 1-D array")
            object.__setattr__(self, "split", split)
            inside = bool(((0.0 < split) & (split < 1.0)).all())
        require(inside, "split must lie strictly in (0, 1)")
        require(math.isfinite(self.equipment_rate) and self.equipment_rate > 0,
                "equipment rate must be positive and finite")
        require(math.isfinite(self.running_rate) and self.running_rate > 0,
                "running rate must be positive and finite")

    @property
    def power(self) -> float:
        """Consensus power purchased: gamma W c_e."""
        return self.split * self.wealth * self.equipment_rate

    @property
    def reserve(self) -> float:
        """Liquid reserve kept for running costs: (1 - gamma) W."""
        return (1.0 - self.split) * self.wealth

    @property
    def run_cost_per_epoch(self) -> float:
        """Reserve drained per epoch: gamma W c_e c_r."""
        return self.power * self.running_rate

    @property
    @np.errstate(over="ignore")  # an infinite drain makes t_max 0
    def drain_rate(self) -> float:
        """Fraction of W drained per epoch: gamma c_e c_r."""
        return self.split * self.equipment_rate * self.running_rate


@dataclass(frozen=True)
class GameRound:
    """One outcome of a repeated game: probability, entry cost, payout."""

    probability: float
    cost: float
    reward: float

    def __post_init__(self):
        require(0.0 <= self.probability <= 1.0,
                "round probability must lie in [0, 1]")
        require(math.isfinite(self.cost) and self.cost >= 0,
                "round cost must be nonnegative and finite")
        require(math.isfinite(self.reward) and self.reward >= 0,
                "round reward must be nonnegative and finite")


@dataclass(frozen=True)
class GrowthBreakdown:
    """Stochastic growth rate with its constituent parts.

    growth_rate == win_rate * (win_term + bankrupt_term) by construction.
    """

    growth_rate: float
    win_rate: float
    t_max: float
    win_term: float
    bankrupt_term: float
    conditional_reward: float


@dataclass(frozen=True)
class FeeBound:
    """Ceilings on the pool fee rate a miner should accept.

    relative_bound keeps pooled growth ahead of solo mining; the stricter
    profitability_bound keeps pooled growth positive outright. The remaining
    fields record the strategies behind the two rates.
    """

    relative_bound: float
    profitability_bound: float
    smooth_split: float
    stochastic_split: float
    smooth_growth: float
    stochastic_growth: float


class OptimalSplit(NamedTuple):
    split: float
    growth_rate: float


class ViableWealth(NamedTuple):
    wealth: float
    bracket: tuple
    start: OptimalSplit  # optimize_gamma at the start wealth


def _check_rounds(rounds: list, initial_wealth: float) -> None:
    require(math.isfinite(initial_wealth) and initial_wealth > 0,
            "initial wealth must be positive and finite")
    require(len(rounds) > 0, "at least one game round is required")
    total_q = math.fsum(r.probability for r in rounds)
    require(abs(total_q - 1.0) <= 1e-12,
            f"outcome probabilities sum to {total_q!r}, not 1")


def tane_growth_rate(rounds: list, initial_wealth: float) -> float:
    """Time-averaged growth rate sum(q_k log((W0 - c_k + M_k)/W0)).

    Outcome probabilities must sum to 1 within 1e-12. Any positive-probability
    outcome that drives wealth to or below zero makes the rate -inf, reported
    as CertainRuinError rather than a float.
    """
    _check_rounds(rounds, initial_wealth)
    terms = []
    for r in rounds:
        if r.probability == 0.0:
            continue
        factor = (initial_wealth - r.cost + r.reward) / initial_wealth
        if factor <= 0.0:
            raise CertainRuinError(
                "an outcome with positive probability exhausts the wealth; "
                "the log-growth rate is -inf")
        terms.append(r.probability * math.log(factor))
    return math.fsum(terms)


def tane_growth_upper_bound(rounds: list, initial_wealth: float) -> float:
    """Jensen bound log(1 + E[M - c]/W0) on the time-averaged growth rate."""
    _check_rounds(rounds, initial_wealth)
    net = math.fsum(r.probability * (r.reward - r.cost) for r in rounds)
    arg = 1.0 + net / initial_wealth
    require(arg > 0.0,
            "expected net outcome wipes out the wealth; bound undefined")
    return math.log(arg)


def wealth_trajectory(initial_wealth: float, growth_rate: float,
                      time: float) -> float:
    """Time-averaged wealth W0 exp(g t) after time epochs."""
    require(math.isfinite(initial_wealth) and initial_wealth > 0,
            "initial wealth must be positive and finite")
    require(math.isfinite(growth_rate), "growth rate must be finite")
    require(math.isfinite(time) and time >= 0, "time must be nonnegative")
    return initial_wealth * math.exp(growth_rate * time)


@np.errstate(over="ignore", divide="ignore")  # _growth_parts checks inf
def t_max(plan: MinerPlan) -> float:
    """Epochs until the reserve runs dry with no win: (1 - gamma)/(gamma c_e c_r)."""
    return (1.0 - plan.split) / plan.drain_rate


@np.errstate(over="ignore", invalid="ignore")  # checked below
def _per_joined_power(numerator, power, network: NetworkParams,
                      positive: str = ""):
    """numerator/(P0 + p) for a miner's power p. NumericalError where
    P0 + p overflows, or where a ratio named in positive, which is > 0 for
    any positive power, comes out as 0."""
    joined = network.power + power
    ratio = numerator / joined
    # an overflowing P0 + p leaves a positive ratio at 0 or nan as well
    if not (np.greater(ratio, 0.0) if positive
            else np.isfinite(joined)).all():
        if not np.isfinite(joined).all():
            raise NumericalError(f"network power P0 + p overflows at "
                                 f"P0 = {network.power!r}")
        raise NumericalError(f"{positive} underflows to 0 for a positive "
                             f"miner power against P0 = {network.power!r}")
    return ratio


def win_probability(plan: MinerPlan, network: NetworkParams) -> float:
    """Per-block win probability q = p/(P0 + p) of the plan's power p."""
    p = plan.power
    return _per_joined_power(p, p, network, "win probability q = p/(P0 + p)")


@np.errstate(over="ignore")  # an overflowing E p is checked below
def win_rate_lambda(plan: MinerPlan, network: NetworkParams) -> float:
    """First-win rate E q, rounded as E p / (P0 + p).

    E times win_probability would differ in the last bit, so the rate keeps
    its own rounding order.
    """
    e, p = network.expected_blocks, plan.power
    rate = _per_joined_power(e * p, p, network, "win rate E p/(P0 + p)")
    # the rate is at most E, so only an overflowing E p leaves it infinite
    if not np.isfinite(rate).all():
        raise NumericalError(f"E p overflows at E = {e!r}, "
                             f"p = {float(np.max(p))!r}")
    return rate


def conditional_reward(plan: MinerPlan, network: NetworkParams) -> float:
    """Expected reward per win, M q / (1 - sum_w Poisson(w; E)(1-q)^w).

    The no-win mass collapses to exp(-E q); verify's no-win-series row
    checks that closed form against the truncated series
    (rewarddist.win_count_pmf_series at v = 0). Zero only in the degenerate
    M = 0 network.
    """
    q = win_probability(plan, network)
    return network.block_reward * q / -_expm1(-network.expected_blocks * q)


def _growth_parts(plan: MinerPlan, network: NetworkParams,
                  quad_tol: float) -> tuple:
    """Stochastic growth rate and its parts for a batch of splits.

    plan.split is a 1-D array. Returns arrays (growth_rate, win_rate, t_max,
    win_term, bankrupt_term, conditional_reward), one entry per split. The
    win branches are integrated side by side by simpson_batch, so each
    split's values are the ones it gets on its own.
    """
    require(0 < quad_tol < 1, "quad_tol must lie in (0, 1)")
    gamma_ = plan.split
    reward = conditional_reward(plan, network)
    lam = win_rate_lambda(plan, network)
    drain = plan.drain_rate
    horizon = t_max(plan)
    overflow = np.isinf(horizon)
    if overflow.any():
        raise NumericalError(
            f"gamma*c_e*c_r = {float(drain[overflow][0])!r} is beyond double "
            f"precision: the reserve's run time t_max = "
            f"(1 - gamma)/(gamma*c_e*c_r) rounds to inf")
    rho = reward / plan.wealth
    # the log argument 1 - drain t + rho, rounded as the integrand rounds
    # it, never grows with t, and no node lies beyond t_max: so it is
    # smallest there (a zero-width win branch has no node to check)
    with np.errstate(invalid="ignore"):  # inf * 0 where t_max is 0
        low = drain * horizon
    np.subtract(1.0, low, out=low)
    low += rho
    floor = gamma_ * (1.0 - 1e-12) - 1e-12
    if not ((low >= floor) | (horizon == 0.0)).all():
        raise NumericalError("log argument fell below gamma")

    def integrand(t, owner):
        # lambda e^{-lambda t} log(1 - drain t + rho), in place; t holds
        # rows of nodes, column j of split owner[j]
        arg = drain.take(owner) * t
        np.subtract(1.0, arg, out=arg)
        arg += rho.take(owner)
        rate = lam.take(owner)
        value = rate * t
        np.negative(value, out=value)
        np.exp(value, out=value)
        value *= rate
        value *= np.log(arg, out=arg)
        return value

    # scale of the integral, for an absolute floor under the relative
    # tolerance when the win branch integrates to nearly zero
    scale = np.maximum(np.abs(np.log(gamma_)), np.log1p(rho))
    win_term, _ = simpson_batch(integrand, np.zeros(gamma_.size), horizon,
                                rel_tol=quad_tol,
                                abs_tol=0.01 * quad_tol * scale)
    bankrupt_term = np.log(gamma_) * np.exp(-lam * horizon)
    g = lam * (win_term + bankrupt_term)
    return g, lam, horizon, win_term, bankrupt_term, reward


def stochastic_growth_rate(plan: MinerPlan, network: NetworkParams,
                           quad_tol: float = 1e-10) -> GrowthBreakdown:
    """Expected log-wealth growth rate under stochastic block rewards.

    g = lambda * [ integral_0^{t_max} lambda e^{-lambda t}
                   log((W - t gamma W c_e c_r + R)/W) dt
                   + log(gamma) e^{-lambda t_max} ],
    with R the conditional reward per win. The win branch is integrated by
    adaptive Simpson at quad_tol; the integrand's log argument can never
    drop below gamma, which is checked at t_max, where the computed
    argument is smallest (NumericalError otherwise, and where t_max
    overflows). This is the one-split case of the batched evaluator behind
    optimize_gamma's grid scan, with the same values.
    """
    parts = _growth_parts(replace(plan, split=np.array([plan.split])),
                          network, quad_tol)
    return GrowthBreakdown(*(float(x[0]) for x in parts))


def smooth_optimal_gamma(tau: float, equipment_rate: float,
                         running_rate: float) -> float:
    """Optimal split under smooth rewards: gamma*/(1-gamma*) = 1/(tau c_e c_r).

    NumericalError where it rounds to 0 or 1 (tau c_e c_r below ~1e-16).
    """
    require(math.isfinite(tau) and tau > 0, "period must be positive and finite")
    require(math.isfinite(equipment_rate) and equipment_rate > 0,
            "equipment rate must be positive and finite")
    require(math.isfinite(running_rate) and running_rate > 0,
            "running rate must be positive and finite")
    product = tau * equipment_rate * running_rate
    gamma_ = 1.0 / (1.0 + product)
    if not 0.0 < gamma_ < 1.0:
        raise NumericalError(
            f"tau*c_e*c_r = {product!r} is beyond double precision: the "
            f"smooth-optimal split 1/(1 + tau*c_e*c_r) rounds to {gamma_!r}")
    return gamma_


def _smooth_terms(plan: MinerPlan, network: NetworkParams,
                  tau: float) -> tuple:
    # (delta, b) of the smooth integrand log(1 + delta - b t) on [0, tau]
    require(math.isfinite(tau) and tau > 0, "period must be positive and finite")
    delta = _per_joined_power(
        plan.split * network.block_reward * plan.equipment_rate, plan.power,
        network)
    b = plan.drain_rate
    if 1.0 + delta - b * tau <= 0.0:
        raise CertainRuinError(
            "running costs exhaust wealth within one period; the smooth "
            "growth rate is -inf")
    return delta, b


def smooth_growth_rate(plan: MinerPlan, network: NetworkParams,
                       tau: float) -> float:
    """Growth rate with one guaranteed payout of M q per period tau:

    (1/tau) integral_0^tau log(1 + gamma (M c_e/(P0 + gamma W c_e)
                                          - t c_e c_r)) dt.

    Evaluated through the closed-form antiderivative of log(a - b t);
    verify's smooth-dual-eval row checks it against quadrature.
    """
    delta, b = _smooth_terms(plan, network, tau)
    # the raw antiderivative -(a - b t)(log(a - b t) - 1)/b cancels when
    # b*tau is small: split log((1 + delta)(1 - c t)) and use the exact form
    # integral_0^tau log(1 - c t) dt = (-(1 - s) log(1 - s) - s)/c with
    # c = b/(1 + delta) and s = c*tau, both via log1p
    c = b / (1.0 + delta)
    s = c * tau
    tail = (-(1.0 - s) * math.log1p(-s) - s) / c
    return (tau * math.log1p(delta) + tail) / tau


def _smooth_growth_parts(plan: MinerPlan, network: NetworkParams,
                         tau: float) -> tuple:
    """(quadrature, antiderivative, noise floor) for the smooth growth rate.

    The noise floor is the absolute rounding level both evaluation routes
    share: forming 1 + delta - b*t costs about one epsilon of the
    integrand's magnitude at every node, so neither route can be trusted
    below that no matter how smooth the integrand is.
    """
    delta, b = _smooth_terms(plan, network, tau)
    a = 1.0 + delta
    scale = max(abs(math.log1p(delta)), abs(math.log(a - b * tau)), 1e-12)
    quad, _ = adaptive_simpson(lambda t: np.log(a - b * t), 0.0, tau,
                               rel_tol=1e-12, abs_tol=1e-14 * scale * tau)
    noise = 1e-13 * (1.0 + scale)
    return quad / tau, smooth_growth_rate(plan, network, tau), noise


_REFINE_TOL = 1e-9  # bracket width at which the zoom refine stops
# splits integrated side by side: on the reference scenario the optimizer
# allocates at most ~9.5 MB at once with 256 (~2.7 MB with 64, ~28 MB with
# all 1024), and one 256-split batch takes about 10-12 ms on 2 vCPUs. The
# 1024-split scan then makes 4 batched calls and 72 quadrature levels
# instead of 16 and 284, about 15% off the optimizer's time; 1024 at once
# is slower again (all with the CLI's allocator settings)
_SCAN_BATCH = 256
_MAX_SCAN_GRID = 10 ** 6  # splits in the scan; each scan array ~8 MB
# interior points of the bracket per zoom level, one batched call: each
# level narrows the bracket about 17-fold
_ZOOM_POINTS = 33


def _rates(scan: MinerPlan, splits: np.ndarray, network: NetworkParams,
           quad_tol: float) -> np.ndarray:
    # growth rates at the splits, _SCAN_BATCH splits per batched quadrature
    return np.concatenate([
        _growth_parts(replace(scan, split=splits[i:i + _SCAN_BATCH]),
                      network, quad_tol)[0]
        for i in range(0, splits.size, _SCAN_BATCH)])


def optimize_gamma(wealth: float, equipment_rate: float, running_rate: float,
                   network: NetworkParams, grid_size: int = 1024,
                   quad_tol: float = 1e-10) -> OptimalSplit:
    """Maximize the stochastic growth rate over the split gamma.

    Scans a uniform grid of grid_size points on (1e-6, 1 - 1e-6),
    _SCAN_BATCH splits per batched quadrature, then zooms in on the best
    grid bracket: each level evaluates _ZOOM_POINTS evenly spaced splits
    inside the bracket in one batch, and the neighbours of the best split
    seen so far become the next bracket, down to width 1e-9. NaN rates
    never count as best. A finite-difference second derivative certifies
    the result is a local maximum up to quadrature noise; failure raises
    ConvergenceError.
    """
    require(3 <= grid_size <= _MAX_SCAN_GRID,
            f"grid must hold 3 to {_MAX_SCAN_GRID} points")

    edge = 1e-6
    grid = np.linspace(edge, 1.0 - edge, grid_size)
    scan = MinerPlan(wealth=wealth, split=grid,
                     equipment_rate=equipment_rate, running_rate=running_rate)
    # a share that overflows or underflows anywhere on the grid fails here,
    # named, rather than as whatever a quadrature batch before it hits
    win_probability(scan, network)

    values = _rates(scan, grid, network, quad_tol)
    if not np.any(np.isfinite(values)):
        raise NoViableStrategyError("no split yields a finite growth rate")
    best_idx = int(np.nanargmax(values))
    split, best = float(grid[best_idx]), float(values[best_idx])
    lo = float(grid[max(best_idx - 1, 0)])
    hi = float(grid[min(best_idx + 1, grid_size - 1)])
    while hi - lo > _REFINE_TOL:
        nodes = np.linspace(lo, hi, _ZOOM_POINTS + 2)
        level = _rates(scan, nodes[1:-1], network, quad_tol)
        if not np.isnan(level).all():
            k = int(np.nanargmax(level))
            if level[k] > best:
                split, best = float(nodes[k + 1]), float(level[k])
        # the best split lies in [lo, hi]; its neighbours among the nodes
        # bracket it, at most two node spacings wide
        j = int(np.searchsorted(nodes, split))
        lo = float(nodes[max(j - 1, 0)])
        hi = float(nodes[min(j + 1, nodes.size - 1)] if nodes[j] == split
                   else nodes[j])

    # certify concavity at the optimum, up to quadrature noise
    h = 1e-4
    if edge < split - h and split + h < 1.0 - edge:
        below, above = _rates(scan, np.array([split - h, split + h]),
                              network, quad_tol).tolist()
        fd2 = (above - 2.0 * best + below) / (h * h)
        noise = (64.0 * quad_tol * max(1.0, abs(best)) + 1e-13) / (h * h)
        if fd2 > noise:
            raise ConvergenceError(
                f"refined split {split!r} is not a local maximum "
                f"(second derivative {fd2:.3e})",
                best_estimate=best, achieved_error=fd2)
    return OptimalSplit(split=split, growth_rate=best)


_WMIN_REL_WIDTH = 1e-6  # bracket width, relative to W, at which a root stops
_WMIN_RATE_TOL = 1e-8  # |g*| the returned wealth must also reach


def _log_brent(rate, lo: float, hi: float, rate_lo: float,
               rate_hi: float) -> float:
    """Root of rate(W) on the wealth bracket [lo, hi] by Brent's method in
    x = log W.

    rate_lo and rate_hi are rate at lo and hi, already known: they differ
    in sign, or one is 0. Each step is an inverse quadratic or secant step
    through the last points, taken only where Brent's safeguards accept it
    (inside the bracket, and at most half the step before last), else a
    bisection; no step is shorter than half the target width while the
    bracket is wider. Returns an evaluated wealth once the bracket holding
    it is at most _WMIN_REL_WIDTH of it wide and |rate| there is at most
    _WMIN_RATE_TOL (or rate is exactly 0); rate is only ever called strictly
    inside the bracket. ConvergenceError after 200 steps, or when the
    bracket can no longer be split.
    """
    # cur: the end with the smaller |rate|, the estimate; blk: the other
    # end of the bracket; pre: the previous cur. Each is (W, log W, rate).
    cur = (hi, math.log(hi), rate_hi)
    pre = blk = (lo, math.log(lo), rate_lo)
    s_pre = s_cur = cur[1] - pre[1]
    delta = 0.5 * math.log1p(_WMIN_REL_WIDTH)
    for _ in range(200):
        if (pre[2] < 0.0) != (cur[2] < 0.0):
            blk = pre
            s_pre = s_cur = cur[1] - pre[1]
        if abs(blk[2]) < abs(cur[2]):
            pre, cur, blk = cur, blk, cur
        (w, x, g), (x_pre, g_pre), (w_blk, x_blk, g_blk) = cur, pre[1:], blk
        if g == 0.0 or (abs(w_blk - w) <= _WMIN_REL_WIDTH * w
                        and abs(g) <= _WMIN_RATE_TOL):
            return w
        s_bis = 0.5 * (x_blk - x)
        if abs(s_bis) > delta and abs(s_pre) > delta and abs(g) < abs(g_pre):
            if x_pre == x_blk:
                s_try = -g * (x - x_pre) / (g - g_pre)
            else:
                d_pre = (g_pre - g) / (x_pre - x)
                d_blk = (g_blk - g) / (x_blk - x)
                s_try = -g * (g_blk * d_blk - g_pre * d_pre) / (
                    d_blk * d_pre * (g_blk - g_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        step = (math.copysign(delta, s_bis) if abs(s_cur) <= delta < abs(s_bis)
                else s_cur)
        w_new = math.exp(x + step)
        if not min(w, w_blk) < w_new < max(w, w_blk):
            break
        pre, cur = cur, (w_new, x + step, rate(w_new))
    raise ConvergenceError(
        "Brent's method for the minimum viable wealth stalled",
        best_estimate=cur[0], achieved_error=abs(cur[2]))


def min_viable_wealth(start_wealth: float, equipment_rate: float,
                      running_rate: float, network: NetworkParams,
                      grid_size: int = 1024,
                      quad_tol: float = 1e-10) -> ViableWealth:
    """Smallest wealth with nonnegative optimal growth, g*(W_min) = 0.

    From start_wealth the wealth is doubled while g* <= 0, or halved while
    g* >= 0, up to 60 times, until g* changes sign; NoRootError if it never
    does. The expansion's last step, a wealth and its double, is the
    bracket; _log_brent solves it in log W, reusing g* at both ends, until
    the relative width is at most 1e-6 and |g*| at the returned wealth is
    at most 1e-8. Each optimize_gamma run (grid_size, quad_tol) is at a
    wealth not evaluated before. Returns the root with that bracket and
    the optimal split at start_wealth.
    """
    def best_rate(w: float) -> float:
        return optimize_gamma(w, equipment_rate, running_rate, network,
                              grid_size=grid_size,
                              quad_tol=quad_tol).growth_rate

    w = start_wealth
    start = optimize_gamma(w, equipment_rate, running_rate, network,
                           grid_size=grid_size, quad_tol=quad_tol)
    g = start.growth_rate
    rising = g < 0.0
    for _ in range(60):
        w_last, g_last = w, g
        w = 2.0 * w if rising else 0.5 * w
        g = best_rate(w)
        if g > 0.0 if rising else g < 0.0:
            break
    else:
        raise NoRootError(
            "g* stayed negative up to 2^60 times the start wealth" if rising
            else "g* stayed nonnegative down to 2^-60 times the start wealth")
    (lo, g_lo), (hi, g_hi) = sorted([(w_last, g_last), (w, g)])
    root = _log_brent(best_rate, lo, hi, g_lo, g_hi)
    return ViableWealth(wealth=root, bracket=(lo, hi), start=start)


def max_pool_fee(wealth: float, equipment_rate: float, running_rate: float,
                 network: NetworkParams, tau: float, grid_size: int = 1024,
                 quad_tol: float = 1e-10) -> FeeBound:
    """Fee-rate ceilings for joining a pool that smooths rewards.

    Pooled growth g_smooth - x beats solo mining while x < g_smooth - g*,
    and stays profitable outright while x < g_smooth; both bounds are
    returned together with the strategies behind them. g_smooth is taken
    at the smooth-optimal split for period tau, g* from optimize_gamma
    (grid_size, quad_tol).
    """
    gamma_s = smooth_optimal_gamma(tau, equipment_rate, running_rate)
    smooth_plan = MinerPlan(wealth=wealth, split=gamma_s,
                            equipment_rate=equipment_rate,
                            running_rate=running_rate)
    g_smooth = smooth_growth_rate(smooth_plan, network, tau)
    opt = optimize_gamma(wealth, equipment_rate, running_rate, network,
                         grid_size=grid_size, quad_tol=quad_tol)
    return FeeBound(relative_bound=g_smooth - opt.growth_rate,
                    profitability_bound=g_smooth,
                    smooth_split=gamma_s, stochastic_split=opt.split,
                    smooth_growth=g_smooth, stochastic_growth=opt.growth_rate)
