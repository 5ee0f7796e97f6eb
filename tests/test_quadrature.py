"""Adaptive Simpson integration on integrals with known closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minecon import growth, quadrature
from minecon.errors import ConvergenceError
from minecon.growth import MinerPlan
from minecon.quadrature import adaptive_simpson, simpson_batch
from minecon.rewarddist import NetworkParams


def test_polynomial_is_nearly_exact():
    # Simpson integrates cubics exactly up to rounding
    value, err = adaptive_simpson(lambda t: 3 * t**2 - 2 * t + 1, 0.0, 2.0)
    assert value == pytest.approx(6.0, rel=1e-14)
    assert err <= 1e-10


@pytest.mark.parametrize("rate", [0.5, 1.0, 7.0])
def test_exponential_density_mass(rate):
    upper = 40.0 / rate
    value, _ = adaptive_simpson(lambda t: rate * np.exp(-rate * t),
                                0.0, upper, rel_tol=1e-12)
    assert value == pytest.approx(-math.expm1(-rate * upper), rel=1e-11)


def test_log_integrand():
    # integral_1^e log t dt = 1
    value, _ = adaptive_simpson(np.log, 1.0, math.e, rel_tol=1e-12)
    assert value == pytest.approx(1.0, rel=1e-11)


def test_oscillatory_integrand():
    value, _ = adaptive_simpson(np.sin, 0.0, 2 * math.pi, rel_tol=1e-10,
                                abs_tol=1e-12)
    assert abs(value) <= 1e-10


def test_empty_interval_is_zero():
    assert adaptive_simpson(np.exp, 3.0, 3.0) == (0.0, 0.0)


def test_reported_error_bounds_true_error():
    value, err = adaptive_simpson(lambda t: np.exp(-t) * np.sin(3 * t),
                                  0.0, 10.0, rel_tol=1e-9)
    exact = 3.0 / 10.0 - math.exp(-10) * (math.sin(30) + 3 * math.cos(30)) / 10.0
    assert abs(value - exact) <= max(10 * err, 1e-12)


def test_tighter_tolerance_does_not_hurt():
    f = lambda t: np.exp(-t * t)
    loose, _ = adaptive_simpson(f, 0.0, 3.0, rel_tol=1e-6)
    tight, _ = adaptive_simpson(f, 0.0, 3.0, rel_tol=1e-12)
    assert loose == pytest.approx(tight, rel=1e-5)
    assert tight == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(3.0),
                                  rel=1e-11)


def test_vectorized_calls_only():
    seen = []

    def probe(t):
        seen.append(np.shape(t))
        return np.asarray(t) ** 2

    adaptive_simpson(probe, 0.0, 1.0)
    assert all(len(shape) == 1 for shape in seen)


def test_max_depth_raises_with_best_estimate():
    # sqrt kink at 0: interval error shrinks like len^1.5, too slow for
    # a 1e-15 length-proportional budget within 30 bisection levels
    with pytest.raises(ConvergenceError) as info:
        adaptive_simpson(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0,
                         rel_tol=1e-15, max_depth=30)
    assert info.value.best_estimate == pytest.approx(2.0 / 3.0, rel=1e-6)
    assert info.value.achieved_error > 0


def test_invalid_bounds_and_tolerances():
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_simpson(np.exp, 0.0, 1.0, rel_tol=0.0, abs_tol=0.0)


def test_no_refinement_level_raises_convergence_error():
    with pytest.raises(ConvergenceError,
                       match="^adaptive Simpson did not reach tolerance"):
        adaptive_simpson(np.exp, 0.0, 1.0, max_depth=-1)


def exp_densities(t, owner, rates):
    rate = rates[owner]
    return rate * np.exp(-rate * t)


def test_batch_values_match_single_integrals_bit_for_bit():
    rates = np.array([0.5, 1.0, 7.0, 30.0])
    uppers = np.array([80.0, 3.0, 1.0, 0.25])
    values, errors = simpson_batch(
        lambda t, owner: exp_densities(t, owner, rates),
        np.zeros(4), uppers, rel_tol=1e-12, abs_tol=0.0)
    for rate, upper, value, error in zip(rates, uppers, values, errors):
        alone = adaptive_simpson(lambda t: rate * np.exp(-rate * t),
                                 0.0, upper, rel_tol=1e-12)
        assert (value, error) == alone


def test_batch_zero_width_integral_is_zero():
    values, errors = simpson_batch(lambda t, owner: np.exp(t),
                                   np.array([0.0, 2.0]),
                                   np.array([1.0, 2.0]), 1e-10, 0.0)
    assert values[0] == pytest.approx(math.e - 1.0, rel=1e-10)
    assert (values[1], errors[1]) == (0.0, 0.0)


def test_batch_passes_rows_of_nodes_with_one_owner_per_column():
    rates = np.array([0.5, 1.0, 7.0])
    uppers = np.array([80.0, 0.0, 1.0])
    calls = []

    def f(t, owner):
        calls.append((t.shape, owner.shape))
        # column j holds nodes of integral owner[j] only
        assert ((0.0 <= t) & (t <= uppers[owner])).all()
        return exp_densities(t, owner, rates)

    simpson_batch(f, np.zeros(3), uppers, 1e-10, 0.0)
    # the zero-width integral 1 has no column; level 0 passes the ends and
    # midpoints, every later level the quarter points of its intervals
    (first, first_owner), *later = calls
    assert (first, first_owner) == ((3, 2), (2,))
    assert len(later) >= 2
    assert all(rows == 2 and owner == (n,) for (rows, n), owner in later)


def test_single_integrand_gets_flat_nodes():
    nodes = []

    def f(t):
        nodes.append(t.copy())
        return np.exp(t)

    adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-12)
    assert nodes[0].tolist() == [0.0, 0.5, 1.0]
    assert nodes[1].tolist() == [0.25, 0.75]
    assert len(nodes) > 2
    assert all(t.ndim == 1 for t in nodes)


def test_batch_failure_carries_the_failing_integral():
    # per-integral tolerances: the exponential converges, the sqrt kink
    # cannot within 30 levels; the error is the kink's own
    def f(t, owner):
        return np.where(owner == 0, np.exp(t), np.sqrt(np.abs(t)))

    with pytest.raises(ConvergenceError) as batch:
        simpson_batch(f, np.zeros(2), np.ones(2),
                      rel_tol=np.array([1e-10, 1e-15]), abs_tol=0.0,
                      max_depth=30)
    with pytest.raises(ConvergenceError) as alone:
        adaptive_simpson(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0,
                         rel_tol=1e-15, max_depth=30)
    assert str(batch.value) == str(alone.value)
    assert batch.value.best_estimate == alone.value.best_estimate
    assert batch.value.achieved_error == alone.value.achieved_error


def test_open_interval_cap_raises_with_best_estimate(monkeypatch):
    # every interval of sin(200 t) stays open until they are short, so the
    # live set doubles each level until it passes the cap
    monkeypatch.setattr(quadrature, "MAX_OPEN_INTERVALS", 256)
    with pytest.raises(ConvergenceError,
                       match="^adaptive Simpson did not reach tolerance "
                             r"within \d+ refinement levels \(achieved error "
                             r".*over the cap of 256$") as info:
        adaptive_simpson(lambda t: np.sin(200.0 * t), 0.0, 1.0,
                         rel_tol=1e-12)
    exact = (1.0 - math.cos(200.0)) / 200.0
    assert abs(info.value.best_estimate - exact) <= 1e-3
    assert info.value.achieved_error > 0


# Values and errors recorded as float.hex: refactors of simpson_batch must
# reproduce them bit for bit, because they feed every growth-rate artifact.
# The growth rate's win branch on the reference scenario (W = 100, c_e = 1,
# c_r = 0.001, E = 10, M = 1, P0 = 1000) at 64 evenly spaced splits in
# [1e-6, 1 - 1e-6] and quad_tol 1e-10.
REFERENCE_WIN_TERMS = (
    "-0x1.0c947506dd200p-21", "0x1.88f7ad38b9e80p-18", "0x1.9a4e77bbb1050p-17",
    "0x1.38561b8163408p-16", "0x1.a3c958c378980p-16", "0x1.07bfe1a6cbb50p-15",
    "0x1.3dbc15fbc9bb8p-15", "0x1.73d8b265ad51cp-15", "0x1.aa152086ef194p-15",
    "0x1.e070caa390d80p-15", "0x1.0b758dd2327e5p-14", "0x1.26c1bf8d98f1ep-14",
    "0x1.421cb0b820a99p-14", "0x1.5d8617afb80ffp-14", "0x1.78fdab4ad378bp-14",
    "0x1.948322b9e8966p-14", "0x1.b0163587c9a18p-14", "0x1.cbb69b9d77c70p-14",
    "0x1.e7640d441b170p-14", "0x1.018f21931f302p-13", "0x1.0f727b28c2668p-13",
    "0x1.1d5bf01be5238p-13", "0x1.2b4b5d5841b96p-13", "0x1.39409ffd046f4p-13",
    "0x1.473b955d75736p-13", "0x1.553c1b012a22ap-13", "0x1.63420ea52be14p-13",
    "0x1.714d4e3c1d8cap-13", "0x1.7f5db7eedc1c8p-13", "0x1.8d732a1db1af6p-13",
    "0x1.9b8d835e511a4p-13", "0x1.a9aca27fa7518p-13", "0x1.b7d06687fe8ecp-13",
    "0x1.c5f8aeb63a77ep-13", "0x1.d4255a81e2038p-13", "0x1.e256499b4d36ap-13",
    "0x1.f08b5bf2a11e4p-13", "0x1.fec471a740493p-13", "0x1.0680b58be440dp-12",
    "0x1.0da11477970b4p-12", "0x1.14c345e7bdb1ep-12", "0x1.1be73a7d0d0a9p-12",
    "0x1.230ce2d460f8fp-12", "0x1.2a342fb0c3fa9p-12", "0x1.315d11f2f775fp-12",
    "0x1.38877a99c53c2p-12", "0x1.3fb35ac27825cp-12", "0x1.46e0a3a77a758p-12",
    "0x1.4e0f46a1d2194p-12", "0x1.553f352766349p-12", "0x1.5c7060d5410f8p-12",
    "0x1.63a2bb5732515p-12", "0x1.6ad63682ad3b6p-12", "0x1.720ac448afa92p-12",
    "0x1.794056b8a614cp-12", "0x1.8076e0004d341p-12", "0x1.87ae5268b1297p-12",
    "0x1.8ee6a06797dacp-12", "0x1.961fbc7b3dc64p-12", "0x1.9d59994f3d9b8p-12",
    "0x1.a49429aa5e920p-12", "0x1.abcf607130d50p-12", "0x1.b30d67509528cp-12",
    "0x1.72f664a9c23fep-20",
)
REFERENCE_WIN_ERRORS = (
    "0x1.46310d2a7e8e1p-43", "0x1.3844e3ef64b43p-45", "0x1.3f918114fe91bp-45",
    "0x1.6aa8f96c44ec8p-45", "0x1.8e6963f7b22ccp-46", "0x1.953ed38bb4815p-46",
    "0x1.9d52dfa62479ap-46", "0x1.c4834d8fcec0cp-46", "0x1.14fc9b68169a9p-45",
    "0x1.214ed58b535f3p-45", "0x1.799458e9b793cp-45", "0x1.d1f3f9ccca16cp-45",
    "0x1.641f47a0b0c00p-45", "0x1.a066bc74c7557p-46", "0x1.17d205851a39cp-46",
    "0x1.328fa167e3adep-46", "0x1.4b13df5d1bed9p-46", "0x1.483cbee502d2bp-46",
    "0x1.10f0aebc91b0bp-46", "0x1.16b7e04baa644p-46", "0x1.0ca872d7db4bdp-46",
    "0x1.39187a2c6bb52p-46", "0x1.7005e85c38edcp-46", "0x1.5a4460e4ad46bp-46",
    "0x1.047c70d91ed3ap-46", "0x1.20b6150c0e621p-46", "0x1.2362530261399p-46",
    "0x1.6941cc5d20a72p-46", "0x1.7f7d83efef73bp-46", "0x1.09ef9f269f196p-46",
    "0x1.2b6d403f6671cp-46", "0x1.a54e55dd47e0ep-47", "0x1.ae3f1290a9d28p-47",
    "0x1.144673bb43142p-46", "0x1.42ec24f0bd113p-46", "0x1.0793b19f2f99dp-45",
    "0x1.dfaf009ee36f4p-46", "0x1.35fd1198a4f1fp-46", "0x1.b91edbc8ed2f4p-47",
    "0x1.f727173257858p-47", "0x1.bd5015f41ee17p-47", "0x1.d25886520dc07p-47",
    "0x1.f7728dbf3c355p-47", "0x1.d22da6f0ddb1dp-47", "0x1.12c21c3d0f99bp-46",
    "0x1.55c381f430a5ep-46", "0x1.0d63bed759a91p-46", "0x1.75c54c6374eccp-47",
    "0x1.0c6a853670e79p-46", "0x1.36f84c3de83fdp-45", "0x1.86f3572eacbeep-47",
    "0x1.6b117f1470df1p-47", "0x1.de861956424dep-47", "0x1.a11b2c9b473ffp-47",
    "0x1.ab3a9a1d62e04p-47", "0x1.86d7c2c628d1dp-47", "0x1.73a5039d26f92p-45",
    "0x1.73c550a47df38p-47", "0x1.ad566fdda5cf4p-47", "0x1.9513b0666b835p-47",
    "0x1.6f93790808b7fp-47", "0x1.99742a3454969p-47", "0x1.e7dfb10d5dddfp-47",
    "0x1.999999999999ap-74",
)


def hexes(array):
    return tuple(float(x).hex() for x in array)


def test_growth_batch_is_bit_exact(monkeypatch):
    batches = []

    def recording(*args, **kwargs):
        batches.append(simpson_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(growth, "simpson_batch", recording)
    plan = MinerPlan(wealth=100.0, split=np.linspace(1e-6, 1.0 - 1e-6, 64),
                     equipment_rate=1.0, running_rate=0.001)
    network = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                            power=1000.0)
    growth._growth_parts(plan, network, 1e-10)
    (values, errors), = batches
    assert hexes(values) == REFERENCE_WIN_TERMS
    assert hexes(errors) == REFERENCE_WIN_ERRORS


def test_zero_width_rows_are_bit_exact():
    rates = np.array([0.5, 2.0, 7.0, 1.0])
    values, errors = simpson_batch(
        lambda t, owner: exp_densities(t, owner, rates),
        np.array([0.0, 1.0, 0.0, 3.0]), np.array([4.0, 1.0, 2.0, 3.0]),
        1e-12, 0.0)
    assert hexes(values) == ("0x1.bab5557101f8cp-1", "0x0.0p+0",
                             "0x1.ffffe41939025p-1", "0x0.0p+0")
    assert hexes(errors) == ("0x1.5f40e22222221p-42", "0x0.0p+0",
                             "0x1.72b7adbbf7778p-42", "0x0.0p+0")


def test_nan_row_fails_with_its_own_error():
    # row 1 is nan on half its interval, so it never converges; rows 0 and
    # 2 do, and the failure is row 1's
    def f(t, owner):
        return np.where(owner == 1, np.where(t > 0.5, np.nan, t), np.exp(t))

    with pytest.raises(ConvergenceError) as info:
        simpson_batch(f, np.zeros(3), np.ones(3), 1e-8, 0.0, max_depth=8)
    assert str(info.value) == ("adaptive Simpson did not reach tolerance "
                               "within 8 refinement levels (achieved error "
                               "nan)")
    assert math.isnan(info.value.best_estimate)
    assert math.isnan(info.value.achieved_error)


def test_depth_cap_failure_is_bit_exact():
    with pytest.raises(ConvergenceError) as info:
        adaptive_simpson(lambda t: np.sqrt(np.abs(t)), 0.0, 1.0,
                         rel_tol=1e-15, max_depth=30)
    assert str(info.value) == ("adaptive Simpson did not reach tolerance "
                               "within 30 refinement levels (achieved error "
                               "2.796e-16)")
    assert info.value.best_estimate.hex() == "0x1.5555555555553p-1"
    assert info.value.achieved_error.hex() == "0x1.425dd2f0bf0eep-52"


def failure(exc):
    return (str(exc), exc.best_estimate.hex(), exc.achieved_error.hex())


def exp_density_alone(rate, upper, rel_tol, max_depth):
    # adaptive_simpson's (value, error), or its failure, as float.hex
    try:
        value, error = adaptive_simpson(lambda t: rate * np.exp(-rate * t),
                                        0.0, upper, rel_tol=rel_tol,
                                        max_depth=max_depth)
    except ConvergenceError as exc:
        return failure(exc)
    return value.hex(), error.hex()


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(rows=st.lists(st.tuples(st.floats(0.01, 50.0),
                               st.just(0.0) | st.floats(0.1, 40.0),
                               st.floats(1e-12, 1e-6)),
                     min_size=1, max_size=16),
       max_depth=st.integers(0, 14) | st.just(50))
def test_batch_rows_equal_single_integrals_bit_for_bit(rows, max_depth):
    # each row alone gives the batch's value and error; a failing batch
    # reports one failing row's own message, estimate and error
    alone = [exp_density_alone(*row, max_depth) for row in rows]
    rates, uppers, tols = (np.array(column) for column in zip(*rows))
    try:
        values, errors = simpson_batch(
            lambda t, owner: exp_densities(t, owner, rates),
            np.zeros(rates.size), uppers, rel_tol=tols, abs_tol=0.0,
            max_depth=max_depth)
    except ConvergenceError as exc:
        assert failure(exc) in alone
    else:
        assert list(zip(hexes(values), hexes(errors))) == alone


# One-split growth rates at quad_tol 1e-10 (the k = 1 path of
# simpson_batch) on three acceptance-range scenarios, draws 4, 6 and 9 of
# numpy.random.default_rng(2024) as the benchmark's growth sweep makes them:
# (W, gamma, c_e, c_r, E, M, P0) and the GrowthBreakdown fields in order.
ONE_SPLIT_SCENARIOS = (
    ((72.26948129366839, 0.8111536304251938, 3.5280429488033582,
      0.0009429522955425396, 2.810377078026019, 4.842185937262151,
      49508.75473762781),
     ("-0x1.83a3562a9b7e2p-10", "0x1.7f1a03911c1c8p-7",
      "0x1.17ecd70ffb4b3p+6", "-0x1.17988c86a85d4p-5",
      "-0x1.7a43c96efc7fbp-4", "0x1.bba9b2e9bdd7ap+0")),
    ((11.792798213257562, 0.28268045580458995, 2.467390947087122,
      0.0004717430727432146, 1.7654794324800611, 1.741283906031708,
      567.5853905653022),
     ("0x1.c8f8b4976af21p-10", "0x1.9d318b1d1ff1bp-6",
      "0x1.1082b67f1a3b3p+11", "0x1.1b1f8effd08a3p-4",
      "-0x1.03234fa6453d7p-79", "0x1.ff60a918f6859p-1")),
    ((166.3397833642883, 0.35767822918477843, 5.228158021583521,
      0.00010640276350530423, 7.02137892831191, 2.556290754264367,
      5850.93183203703),
     ("0x1.7a51b4cc0efefp-11", "0x1.6af18494b1051p-2",
      "0x1.9385f207f37d4p+11", "0x1.0ad85dfde45b2p-9", "-0x0.0p+0",
      "0x1.bac617029fb42p-2")),
)
REFERENCE_NETWORK = NetworkParams(expected_blocks=10.0, block_reward=1.0,
                                  power=1000.0)


@pytest.mark.parametrize("scenario, pinned", ONE_SPLIT_SCENARIOS)
def test_one_split_growth_rate_is_bit_exact(scenario, pinned):
    wealth, split, c_e, c_r, e, m, p0 = scenario
    plan = MinerPlan(wealth=wealth, split=split, equipment_rate=c_e,
                     running_rate=c_r)
    network = NetworkParams(expected_blocks=e, block_reward=m, power=p0)
    parts = growth.stochastic_growth_rate(plan, network)
    assert hexes(vars(parts).values()) == pinned


def test_optimal_split_is_bit_exact():
    opt = growth.optimize_gamma(100.0, 1.0, 0.001, REFERENCE_NETWORK)
    assert hexes(opt) == ("0x1.fc8998826e7aep-1", "0x1.8bf67a9234972p-12")


def test_min_viable_wealth_is_bit_exact():
    root = growth.min_viable_wealth(100.0, 1.0, 0.001, REFERENCE_NETWORK,
                                    grid_size=8, quad_tol=1e-6)
    assert hexes([root.wealth, *root.bracket]) == (
        "0x1.c7a301b64d55fp+1", "0x1.9000000000000p+1",
        "0x1.9000000000000p+2")


def watch_growth_levels(monkeypatch, check):
    # call check(t, owner, batch) on every level of every growth-rate
    # quadrature, before the integrand runs; batch holds the plan, the
    # rewards, t_max and the widest next level so far. conditional_reward
    # runs once per batch, ahead of its quadrature
    batches = []
    real_reward = growth.conditional_reward

    def reward(plan, network):
        batches.append({"plan": plan, "reward": real_reward(plan, network),
                        "widest": 0})
        return batches[-1]["reward"]

    def batch(f, a, b, *args, **kwargs):
        batches[-1]["t_max"] = b

        def watched(t, owner, record=batches[-1]):
            check(t, owner, record)
            return f(t, owner)

        return simpson_batch(watched, a, b, *args, **kwargs)

    monkeypatch.setattr(growth, "conditional_reward", reward)
    monkeypatch.setattr(growth, "simpson_batch", batch)
    return batches


REFERENCE_SCENARIO = (100.0, 0.5, 1.0, 0.001, 10.0, 1.0, 1000.0)


@pytest.mark.parametrize("scenario", [
    REFERENCE_SCENARIO, *(scenario for scenario, _ in ONE_SPLIT_SCENARIOS)],
    ids=["reference", "draw4", "draw6", "draw9"])
def test_log_argument_is_smallest_at_t_max(monkeypatch, scenario):
    # growth checks the log argument 1 - drain t + rho only at t_max: every
    # node the quadrature visits lies in [0, t_max], and its argument, as
    # the integrand rounds it, is at least the one at t_max
    nodes = []

    def check(t, owner, batch):
        plan = batch["plan"]
        drain = plan.drain_rate.take(owner)
        rho = (batch["reward"] / plan.wealth).take(owner)
        end = batch["t_max"].take(owner)
        assert ((0.0 <= t) & (t <= end)).all()
        assert (1.0 - drain * t + rho >= 1.0 - drain * end + rho).all()
        nodes.append(t.size)

    watch_growth_levels(monkeypatch, check)
    wealth, split, c_e, c_r, e, m, p0 = scenario
    network = NetworkParams(expected_blocks=e, block_reward=m, power=p0)
    growth.stochastic_growth_rate(MinerPlan(wealth, split, c_e, c_r),
                                  network)
    growth.optimize_gamma(wealth, c_e, c_r, network)
    assert sum(nodes) > 10 ** 5


def test_open_intervals_stay_a_quarter_under_the_cap(monkeypatch):
    # the widest next level (2 live) of every batch of a default-flag
    # reference optimizer run: after level 0, each level's columns are the
    # open intervals the level before it left, and the last leaves none
    def check(t, owner, batch):
        if t.shape[0] == 2:
            batch["widest"] = max(batch["widest"], owner.size)

    batches = watch_growth_levels(monkeypatch, check)
    growth.optimize_gamma(100.0, 1.0, 0.001, REFERENCE_NETWORK)
    widest = [batch["widest"] for batch in batches]
    assert len(widest) > 4 and min(widest) > 0
    assert max(widest) <= quadrature.MAX_OPEN_INTERVALS // 4
