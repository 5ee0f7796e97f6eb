"""Correctness checks on each job's artifacts, run after the timed region.

Analytic outputs are compared with an independent evaluation of the growth
model (composite Gauss-Legendre in numpy, not the package's adaptive
Simpson) and with the values recorded at the commit that added the
benchmark (reference.json). Tolerances leave room for exact-identity
rewrites (a closed-form growth rate agrees with quadrature to ~6e-9
relative; another optimizer or root finder moves the split and W_min within
their own tolerances) but not for a wrong answer. Sampling outputs are
checked against closed forms within 5 standard errors, and ``verify`` by
its own verdict.
"""

import json
import math
from pathlib import Path

import numpy as np

SIGMAS = 5.0

_X, _W = np.polynomial.legendre.leggauss(16)
_PANELS = 64
# nodes and weights of the composite rule on [0, 1]
_U = ((np.arange(_PANELS)[:, None] + 0.5 * (_X[None, :] + 1.0))
      / _PANELS).ravel()
_UW = np.tile(_W / (2.0 * _PANELS), _PANELS)


class Mismatch(Exception):
    """An output that misses its reference or its defining property."""


def _close(name, got, want, rel=0.0, abs_=0.0):
    if not (abs(got - want) <= max(abs_, rel * abs(want))):
        raise Mismatch(f"{name} = {got!r}, expected {want!r} "
                       f"(rel {rel:g}, abs {abs_:g})")


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


# -- independent model evaluation ------------------------------------------


def _win_integral(lam, horizon, drain, rho):
    # integral_0^T lam e^{-lam t} log(1 + rho - drain t) dt; the weight is
    # below e^-60 past t = 60/lam, so the rule stops there
    upper = np.minimum(horizon, 60.0 / lam)
    t = upper[..., None] * _U
    f = lam[..., None] * np.exp(-lam[..., None] * t) \
        * np.log1p(rho[..., None] - drain[..., None] * t)
    return upper * (f @ _UW)


def growth_parts(sc: dict, gamma, wealth=None) -> dict:
    """Stochastic growth rate and its parts, vectorized over gamma."""
    w = sc["W"] if wealth is None else wealth
    gamma = np.asarray(gamma, dtype=float)
    power = gamma * w * sc["c_e"]
    q = power / (sc["P0"] + power)
    lam = sc["E"] * q
    horizon = (1.0 - gamma) / (gamma * sc["c_e"] * sc["c_r"])
    reward = sc["M"] * q / -np.expm1(-sc["E"] * q)
    drain = gamma * sc["c_e"] * sc["c_r"]
    win = _win_integral(lam, horizon, drain, reward / w)
    bankrupt = np.log(gamma) * np.exp(-lam * horizon)
    return {"growth_rate": lam * (win + bankrupt), "win_rate": lam,
            "t_max": horizon, "win_term": win, "bankrupt_term": bankrupt,
            "conditional_reward": reward}


def growth_scale(parts: dict) -> float:
    """Size of the terms behind a growth rate, for absolute tolerances."""
    return float(parts["win_rate"] * (abs(parts["win_term"])
                                      + abs(parts["bankrupt_term"])))


def best_growth(sc: dict, wealth=None) -> tuple:
    """(split, g*) by a 2049-point scan refined by golden section."""
    grid = np.linspace(1e-6, 1.0 - 1e-6, 2049)
    values = np.concatenate([growth_parts(sc, grid[i:i + 256], wealth)
                             ["growth_rate"]
                             for i in range(0, grid.size, 256)])
    k = int(np.argmax(values))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]

    def g(x):
        return float(growth_parts(sc, np.array([x]), wealth)
                     ["growth_rate"][0])

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = g(c), g(d)
    for _ in range(40):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = g(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = g(d)
    best = max((fc, c), (fd, d), (float(values[k]), float(grid[k])))
    return best[1], best[0]


def sampled_round_rate(sc: dict) -> float:
    """Growth rate when each win pays M v, v ~ Poisson(E q) given v >= 1."""
    gamma = sc["gamma"]
    parts = growth_parts(sc, np.array([gamma]))
    mean = sc["E"] * gamma * sc["W"] * sc["c_e"] \
        / (sc["P0"] + gamma * sc["W"] * sc["c_e"])
    top = int(mean + 40.0 * math.sqrt(mean) + 40.0)
    v = np.arange(1, top + 1)
    log_pmf = -mean + v * math.log(mean) - np.array(
        [math.lgamma(k + 1.0) for k in v])
    pmf = np.exp(log_pmf) / -math.expm1(-mean)
    n = v.size
    win = _win_integral(np.full(n, parts["win_rate"][0]),
                        np.full(n, parts["t_max"][0]),
                        np.full(n, gamma * sc["c_e"] * sc["c_r"]),
                        sc["M"] * v / sc["W"])
    return float(parts["win_rate"][0]
                 * (pmf @ win + parts["bankrupt_term"][0]))


def smooth_rate(sc: dict, gamma: float) -> float:
    """(1/tau) integral_0^tau log(1 + delta - b t) dt by Gauss-Legendre."""
    power = gamma * sc["W"] * sc["c_e"]
    delta = gamma * sc["M"] * sc["c_e"] / (sc["P0"] + power)
    b = gamma * sc["c_e"] * sc["c_r"]
    t = sc["tau"] * _U
    return float(np.log1p(delta - b * t) @ _UW)


# -- per-command checks ----------------------------------------------------


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise Mismatch(f"cannot read {path.name}: {exc}") from None


def _read_table(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise Mismatch(f"cannot read {path.name}: {exc}") from None


def _flag(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv \
        else default


def _check_growth(sc, argv, out):
    got = _read_json(out / "growth.json")
    quad_tol = _flag(argv, "--quad-tol", 1e-10)
    want = {k: float(v[0]) for k, v in
            growth_parts(sc, np.array([sc["gamma"]])).items()}
    for key in ("win_rate", "t_max", "conditional_reward"):
        _close(key, got[key], want[key], rel=1e-12)
    # e^{-lambda T} turns the last bit of lambda T ~ 1e4 into ~1e-12
    _close("bankrupt_term", got["bankrupt_term"], want["bankrupt_term"],
           rel=1e-9, abs_=1e-300)
    scale = growth_scale(want)
    _close("growth_rate", got["growth_rate"], want["growth_rate"],
           abs_=max(1e-7, 1e3 * quad_tol) * scale + 1e-15)
    _close("smooth_growth_rate", got["smooth_growth_rate"],
           smooth_rate(sc, sc["gamma"]), rel=1e-9, abs_=1e-14)


def _check_optimum(sc, argv, split, rate, wealth=None):
    quad_tol = _flag(argv, "--quad-tol", 1e-10)
    _require(0.0 < split < 1.0, f"split {split!r} outside (0, 1)")
    parts = {k: float(v[0]) for k, v in
             growth_parts(sc, np.array([split]), wealth).items()}
    tol = max(1e-7, 1e3 * quad_tol) * growth_scale(parts) + 1e-15
    _close("growth rate at the split", rate, parts["growth_rate"], abs_=tol)
    best_split, best = best_growth(sc, wealth)
    _require(rate >= best - tol,
             f"growth rate {rate!r} at split {split!r} is below the "
             f"scanned optimum {best!r} at split {best_split!r}")
    return best_split, best


def _check_optimize(sc, argv, out):
    got = _read_json(out / "optimize.json")
    _check_optimum(sc, argv, got["split"], got["growth_rate"])
    if "--wmin" not in argv:
        return
    # the defining property: g*(W_min) = 0, negative below, positive above
    quad_tol = _flag(argv, "--quad-tol", 1e-10)
    wmin = got["min_viable_wealth"]
    lo, hi = got["bracket"]
    _require(lo <= wmin <= hi, f"W_min {wmin!r} outside bracket {lo, hi}")
    split, g_star = best_growth(sc, wmin)
    parts = {k: float(v[0]) for k, v in
             growth_parts(sc, np.array([split]), wmin).items()}
    tol = 2e-8 + max(1e-7, 1e3 * quad_tol) * growth_scale(parts)
    _require(abs(g_star) <= tol,
             f"g*(W_min = {wmin!r}) = {g_star!r}, not within {tol:.3g} of 0")
    _require(best_growth(sc, lo)[1] < tol and best_growth(sc, hi)[1] > -tol,
             f"bracket {lo, hi} does not straddle the root of g*")


def _check_fee(sc, argv, out):
    got = _read_json(out / "fee.json")
    gamma_s = 1.0 / (1.0 + sc["tau"] * sc["c_e"] * sc["c_r"])
    _close("smooth_split", got["smooth_split"], gamma_s, rel=1e-12)
    _close("smooth_growth", got["smooth_growth"], smooth_rate(sc, gamma_s),
           rel=1e-9, abs_=1e-14)
    _close("profitability_bound", got["profitability_bound"],
           got["smooth_growth"], rel=0.0)
    _close("relative_bound", got["relative_bound"],
           got["smooth_growth"] - got["stochastic_growth"], abs_=1e-15,
           rel=1e-12)
    _check_optimum(sc, argv, got["stochastic_split"],
                   got["stochastic_growth"])


def _joined_q(sc):
    power = sc["gamma"] * sc["W"] * sc["c_e"]
    return power / (sc["P0"] + power)


def _check_dist(sc, argv, out):
    got = _read_json(out / "dist_moments.json")
    n, e, m, q = sc["N"], sc["E"], sc["M"], _joined_q(sc)
    _close("win_probability", got["win_probability"], q, rel=1e-15)
    _close("expected_total_reward", got["expected_total_reward"],
           n * e * m * q, rel=1e-12)
    _close("variance_thinned", got["variance_thinned"], n * m * m * e * q,
           rel=1e-12)
    _close("pmf_mean", got["pmf_mean"], n * e * m * q, rel=1e-9)
    _close("pmf_variance", got["pmf_variance"], n * m * m * e * q, rel=1e-6)
    _close("lattice_step", got["lattice_step"], m, rel=0.0)
    _require(1.0 - 1e-12 <= got["total_mass"] <= 1.0 + 1e-12,
             f"total mass {got['total_mass']!r} outside 1 +- 1e-12")
    table = _read_table(out / "dist_pmf.csv")
    _require(table.shape == (got["mass_count"], 2),
             f"dist_pmf.csv has shape {table.shape}, "
             f"mass_count {got['mass_count']}")
    _require(np.all(table[:, 1] >= 0.0), "negative pmf mass")
    _close("pmf.csv total", math.fsum(table[:, 1]), got["total_mass"],
           abs_=1e-12)
    _require(np.allclose(table[:, 0], m * np.arange(table.shape[0]),
                         rtol=1e-15, atol=0.0), "lattice points off {0, M, ..}")


def _check_verify(sc, argv, out):
    got = _read_json(out / "verify.json")
    _require(got["passed"] is True and got["failures"] == 0,
             f"verify reports {got['failures']} failed row(s)")
    _require(got["samples"] == _flag(argv, "--samples", 100000),
             "verify ran a different sample count")
    bad = [row["name"] for row in got["rows"]
           if row["status"] not in ("PASS", "REPORT")]
    _require(not bad and got["rows"], f"verify rows not passing: {bad}")


def _within(name, report, want):
    _require(abs(report["estimate"] - want) <= SIGMAS * report["std_error"],
             f"{name} estimate {report['estimate']!r} is more than "
             f"{SIGMAS:g} standard errors from {want!r}")


def _check_simulate(sc, argv, out):
    got = _read_json(out / "simulate.json")
    kind = _flag(argv, "--sim", "rounds")
    if kind == "wealth":
        _check_wealth(sc, argv, out, got)
        return
    samples = _flag(argv, "--samples", 100000)
    report = got["report"]
    e, m, q = sc["E"], sc["M"], _joined_q(sc)
    if kind == "epochs":
        _require(report["samples"] == samples, "wrong sample count")
        _within("epoch reward", report, m * e * q)
        _close("mean reward", report["estimate"],
               m * got["total_wins"] / samples, rel=1e-12)
        blocks_se = math.sqrt(e / samples)
        _require(abs(got["total_blocks"] / samples - e)
                 <= SIGMAS * blocks_se, "mean block count off E")
    elif kind == "first-win":
        _require(got["censored"] == 0, f"{got['censored']} censored trials")
        _require(report["samples"] == samples, "wrong sample count")
        p0 = -math.expm1(-e * q)
        _within("first-win time", report, 1.0 / p0 - 0.5)
        table = _read_table(out / "simulate_ecdf.csv")
        cdf = table[:, 1]
        _require(np.all(np.diff(cdf) >= 0.0) and cdf[0] == 0.0
                 and cdf[-1] == 1.0, "empirical CDF is not a CDF")
    elif kind == "rounds":
        mode = _flag(argv, "--reward-mode", "conditional-mean")
        _require(report["samples"] == samples, "wrong sample count")
        if mode == "sampled":
            _within("sampled round growth", report, sampled_round_rate(sc))
        else:
            parts = growth_parts(sc, np.array([sc["gamma"]]))
            _within("round growth", report, float(parts["growth_rate"][0]))


def _check_wealth(sc, argv, out, got):
    horizon = _flag(argv, "--horizon", 1000)
    table = _read_table(out / "simulate_path.csv")
    rows = table.shape[0]
    _require(rows == got["epochs_recorded"], "path length != epochs_recorded")
    epochs, wins, wealth = table[:, 0], table[:, 1], table[:, 2]
    _require(np.array_equal(epochs, np.arange(1, rows + 1)),
             "epoch column is not 1..n")
    gamma, w = sc["gamma"], sc["W"]
    cost = gamma * w * sc["c_e"] * sc["c_r"]
    reserve = (1.0 - gamma) * w - cost * epochs + sc["M"] * np.cumsum(wins)
    scale = (1.0 - gamma) * w + cost * rows + sc["M"] * wins.sum()
    _require(np.allclose(wealth, gamma * w + reserve, rtol=0.0,
                         atol=1e-9 * scale),
             "wealth path does not follow the settlement rule")
    _close("final_wealth", got["final_wealth"], float(wealth[-1]), rel=0.0)
    if got["bankrupt"]:
        _require(got["bankrupt_epoch"] == rows and reserve[-1] <= 0.0
                 and np.all(reserve[:-1] > 0.0), "bankruptcy misplaced")
    else:
        _require(rows == horizon and np.all(reserve > 0.0),
                 "solvent path is short or dips below zero")
    if rows >= 1000:
        rate = sc["E"] * _joined_q(sc)
        _require(abs(wins.mean() - rate) <= SIGMAS * math.sqrt(rate / rows),
                 f"mean wins per epoch {wins.mean()!r} off E q = {rate!r}")


_CHECKS = {"growth": _check_growth, "optimize": _check_optimize,
           "fee": _check_fee, "dist": _check_dist, "verify": _check_verify,
           "simulate": _check_simulate}

# tolerances for the values recorded in reference.json
_REFERENCE_TOL = {
    "split": (0.0, 1e-3), "stochastic_split": (0.0, 1e-3),
    "min_viable_wealth": (1e-4, 0.0), "total_mass": (0.0, 1e-12),
    "variance_paper": (1e-10, 0.0),
}
_DEFAULT_TOL = (1e-6, 1e-10)


def check_job(job, scenario: dict, out: Path, reference: dict):
    """Raise Mismatch if a successful job's artifacts are wrong."""
    argv = list(job.argv)
    _CHECKS[argv[0]](scenario, argv, out)
    entry = reference.get(job.key, {})
    recorded = entry.get("outputs")
    if not recorded or entry["argv"] != argv \
            or entry["scenario"] != job.scenario:
        return
    files = sorted(out.glob("*.json"))
    got = {}
    for path in files:
        got.update(_read_json(path))
    for key, want in recorded.items():
        _require(key in got, f"{key} missing from the artifacts")
        rel, abs_ = _REFERENCE_TOL.get(key, _DEFAULT_TOL)
        _close(f"{key} vs reference", got[key], want, rel=rel, abs_=abs_)


def key_outputs(argv: list, out: Path) -> dict:
    """The outputs of a pinned job that reference.json records."""
    names = {"growth": ("growth_rate", "smooth_growth_rate"),
             "optimize": ("split", "growth_rate", "min_viable_wealth"),
             "fee": ("relative_bound", "profitability_bound",
                     "stochastic_split", "stochastic_growth"),
             "dist": ("expected_total_reward", "variance_thinned",
                      "variance_paper", "pmf_mean", "pmf_variance",
                      "total_mass")}.get(argv[0], ())
    got = {}
    for path in sorted(out.glob("*.json")):
        got.update(_read_json(path))
    return {k: got[k] for k in names if k in got}
