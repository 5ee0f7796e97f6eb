"""Mining-economics engine: reward distributions, waiting times, and
time-averaged wealth growth for stochastic vs smooth block rewards."""

__version__ = "0.1.0"

from .errors import (CertainRuinError, ConvergenceError, MineconError,
                     NoRootError, NoViableStrategyError, NumericalError,
                     ValidationError)
from .growth import (FeeBound, GameRound, GrowthBreakdown, MinerPlan,
                     OptimalSplit, ViableWealth, conditional_reward,
                     max_pool_fee, min_viable_wealth, optimize_gamma,
                     smooth_growth_rate, smooth_optimal_gamma,
                     stochastic_growth_rate, t_max, tane_growth_rate,
                     tane_growth_upper_bound, wealth_trajectory,
                     win_probability, win_rate_lambda)
from .mcsim import (EpochCounts, FirstWinResult, SimConfig, SimReport,
                    WealthPath, estimate_first_win_time, round_oracle,
                    round_payoffs, simulate_epochs, simulate_wealth_path)
from .quadrature import adaptive_simpson
from .rewarddist import (LatticePmf, MinerShare, NetworkParams,
                         epoch_reward_pmf, expected_total_reward,
                         total_reward_pmf, variance_paper, variance_thinned,
                         win_count_pmf_closed, win_count_pmf_series)
from .specfun import EULER_MASCHERONI, exp_integral_ei
from .waiting import (BankruptcyInputs, bankruptcy_horizon,
                      bankruptcy_probability, expected_wait, wait_variance,
                      waiting_cdf, waiting_pdf)
