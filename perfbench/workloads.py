"""Scenario files and job lists for the three benchmark workloads.

A job is one ``minecon`` CLI invocation. Every workload is a fixed list of
jobs built from the run seed; the program only ever sees the scenario files
written here and the argv of each job.

Seed use: analytic and dist jobs run on fixed scenarios, so their cost and
their known failures are the same in every run; the seed sets the
``--seed`` / ``--stream-id`` of every ``simulate`` job. ``verify`` keeps a
fixed seed because it asserts six 3-sigma bands at once and would fail by
chance in about one run in fifty on a fresh seed. The ``growth`` sweep's
scenarios are drawn from the acceptance-test ranges once, with a fixed
seed: fresh draws are not screened, and some of them (see README.md) make
adaptive Simpson run for 30 s in 5 GB before it fails.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("plan", "oracle", "window")

REFERENCE = {"E": 10.0, "M": 1.0, "P0": 1000.0, "W": 100.0, "gamma": 0.5,
             "c_e": 1.0, "c_r": 0.001, "tau": 1.0, "N": 100}

# acceptance-range scenarios in the `growth` sweep that every workload runs:
# the first draws of numpy.random.default_rng(SWEEP_SEED)
GROWTH_SWEEP = 16
SWEEP_SEED = 2024
# the anchor is the fourth draw; `optimize --wmin` on it fails at this
# commit, see KNOWN_FAILURES
ANCHOR_DRAW = 3
# `optimize --wmin` at default flags also runs on a draw where it succeeds
WMIN_DRAW = 6
# `optimize` and `fee` at default flags run on these draws too: lambda t_max
# 0.82, 55 and 1140, so quadrature depth spans the acceptance ranges
PLAN_DRAWS = (4, 6, 9)

# Failure classes present at this commit. A job that fails with one of
# these counts in `failed` but leaves `correct` true, if reference.json
# records that same job failing with that class; any other failure, and any
# wrong output, makes the run incorrect.
KNOWN_FAILURES = {
    "quadrature-convergence": (
        2, re.compile(r"^error: convergence: adaptive Simpson did not reach "
                      r"tolerance")),
    "dist-mass-rounding": (
        1, re.compile(r"^error: validation: total mass \S+ outside "
                      r"\[1 - tail_tol, 1\]")),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: `metric` names the per-command time it adds to.

    A `once` job runs in the first pass only, because it is too long to
    repeat within a run.
    """

    key: str
    metric: str
    argv: tuple
    scenario: str
    once: bool = False

    @property
    def pinned(self) -> bool:
        """Inputs independent of the run seed (only `simulate` uses it)."""
        return self.argv[0] != "simulate"


def _scenario(**overrides) -> dict:
    data = dict(REFERENCE)
    data.update(overrides)
    return data


def draw_plan_and_network(rng) -> dict:
    """One scenario from the acceptance-test ranges, tau as in acceptance 10."""
    gamma = float(rng.uniform(0.1, 0.9))
    wealth = float(10.0 ** rng.uniform(1.0, 4.0))
    c_e = float(10.0 ** rng.uniform(-1.0, 1.0))
    c_r = float(10.0 ** rng.uniform(-4.0, -2.0))
    e_blocks = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(20.0)))
    m = float(rng.uniform(0.5, 5.0))
    p0 = float(10.0 ** rng.uniform(2.0, 5.0))
    tau = float(10.0 ** rng.uniform(-0.3, 1.0))
    return {"E": e_blocks, "M": m, "P0": p0, "W": wealth, "gamma": gamma,
            "c_e": c_e, "c_r": c_r, "tau": tau, "N": 100}


def scenario_text(data: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in data.items())


def _sim(key, scenario, seed, stream, kind, *extra) -> Job:
    metric = "sim_" + kind.replace("-", "_") + "_s"
    argv = ("simulate", "--sim", kind, "--seed", str(seed),
            "--stream-id", str(stream)) + extra
    return Job(key, metric, argv, scenario)


def _pinned(key, metric, scenario, *argv, once=False) -> Job:
    return Job(key, metric, tuple(argv), scenario, once=once)


# sizes of the tour jobs
TOUR_SIZES = {"sweep": GROWTH_SWEEP, "grid": "64", "tol": "1e-8",
              "wmin_grid": "8", "verify": "50000", "epochs": "200000",
              "first_win": "50000", "rounds": "500000", "horizon": "50000"}


def tour(seed: int, s: dict = TOUR_SIZES) -> list:
    """One small job of every command, with the sizes in `s`.

    Every workload runs it, so that every per-command metric is measured on
    every workload; the heavy lists are in _HEAVY.
    """
    jobs = [_pinned(f"tour/growth{k}", "growth_s", f"sweep{k}", "growth")
            for k in range(s["sweep"])]
    jobs += [
        _pinned("tour/optimize", "optimize_s", "reference", "optimize",
                "--grid-size", s["grid"], "--quad-tol", s["tol"]),
        _pinned("tour/fee", "fee_s", "reference", "fee",
                "--grid-size", s["grid"], "--quad-tol", s["tol"]),
        _pinned("tour/wmin", "wmin_s", "reference", "optimize", "--wmin",
                "--grid-size", s["wmin_grid"], "--quad-tol", "1e-6"),
        _pinned("tour/dist", "dist_s", "ref_n400", "dist"),
        _pinned("tour/verify", "verify_s", "reference", "verify",
                "--seed", "42", "--samples", s["verify"]),
        _sim("tour/epochs", "reference", seed, 1, "epochs",
             "--samples", s["epochs"]),
        _sim("tour/first-win", "reference", seed, 2, "first-win",
             "--samples", s["first_win"]),
        _sim("tour/rounds", "reference", seed, 3, "rounds",
             "--samples", s["rounds"]),
        _sim("tour/rounds-sampled", "reference", seed, 4, "rounds",
             "--reward-mode", "sampled", "--samples", s["rounds"]),
        _sim("tour/wealth", "reference", seed, 5, "wealth",
             "--horizon", s["horizon"]),
    ]
    return jobs


def _plan(seed: int) -> list:
    return [
        _pinned("plan/ref/growth", "growth_s", "reference", "growth"),
        _pinned("plan/ref/optimize", "optimize_s", "reference", "optimize"),
        _pinned("plan/ref/fee", "fee_s", "reference", "fee"),
        _pinned("plan/anchor/optimize", "optimize_s", "anchor", "optimize"),
        _pinned("plan/anchor/wmin", "wmin_s", "anchor", "optimize", "--wmin",
                once=True),
        _pinned(f"plan/draw{WMIN_DRAW}/wmin", "wmin_s", f"sweep{WMIN_DRAW}",
                "optimize", "--wmin", once=True),
    ] + [
        _pinned(f"plan/draw{k}/{command}", f"{command}_s", f"sweep{k}",
                command, once=True)
        for k in PLAN_DRAWS for command in ("optimize", "fee")
    ]


def _oracle(seed: int) -> list:
    return [
        _pinned("oracle/verify", "verify_s", "reference", "verify",
                "--seed", "42", "--samples", "200000"),
        _sim("oracle/epochs", "reference", seed, 11, "epochs",
             "--samples", "1000000"),
        _sim("oracle/rounds", "reference", seed, 12, "rounds",
             "--samples", "1000000"),
        _sim("oracle/rounds-sampled", "reference", seed, 13, "rounds",
             "--reward-mode", "sampled", "--samples", "1000000"),
        _sim("oracle/wealth", "reference", seed, 14, "wealth",
             "--horizon", "200000"),
        _sim("oracle/first-win", "q001", seed, 15, "first-win",
             "--samples", "200000"),
    ]


def _window(seed: int) -> list:
    return [
        _pinned("window/dist-e10-n1000", "dist_s", "e10_n1000", "dist"),
        _pinned("window/dist-e200-n1000", "dist_s", "e200_n1000", "dist"),
        _pinned("window/dist-e200-n2000", "dist_s", "e200_n2000", "dist",
                once=True),
        _pinned("window/verify", "verify_s", "e200", "verify",
                "--seed", "42", "--samples", "100000"),
        _sim("window/epochs", "e200", seed, 21, "epochs",
             "--samples", "500000"),
        _sim("window/first-win", "e200", seed, 22, "first-win",
             "--samples", "1000000"),
    ]


_HEAVY = {"plan": _plan, "oracle": _oracle, "window": _window}

PER_COMMAND = ("growth_s", "optimize_s", "fee_s", "wmin_s", "dist_s",
               "verify_s", "sim_epochs_s", "sim_first_win_s", "sim_rounds_s",
               "sim_wealth_s")


def build(workload: str, seed: int) -> tuple:
    """(scenarios, jobs) for one workload; see with_scenarios."""
    if workload not in _HEAVY:
        raise ValueError(f"unknown workload {workload!r}")
    return with_scenarios(_HEAVY[workload](seed) + tour(seed))


def with_scenarios(jobs: list) -> tuple:
    """(scenarios, jobs): scenarios maps each name the jobs use to the
    key/value mapping written to its file."""
    rng = np.random.default_rng(SWEEP_SEED)
    draws = [draw_plan_and_network(rng) for _ in range(GROWTH_SWEEP)]
    scenarios = {
        "reference": dict(REFERENCE),
        "anchor": draws[ANCHOR_DRAW],
        "ref_n400": _scenario(N=400),
        "q001": _scenario(P0=49950.0),
        "e10_n1000": _scenario(N=1000),
        "e200": _scenario(E=200.0),
        "e200_n1000": _scenario(E=200.0, N=1000),
        "e200_n2000": _scenario(E=200.0, N=2000),
    }
    scenarios.update((f"sweep{k}", draw) for k, draw in enumerate(draws))
    used = {job.scenario for job in jobs}
    return {k: v for k, v in scenarios.items() if k in used}, jobs
