"""Command-line front end: scenario files in, deterministic artifacts out.

Scenario files are flat ``key = value`` text (``#`` comments allowed) or a
JSON object with the same keys. Every JSON artifact embeds the scenario
echo, library version, and seed; floats are printed with 17 significant
digits so outputs round-trip exactly. Large tables render their rows in
numpy where every float prints in fixed notation, and through one
%-template call elsewhere, with the same bytes either way. A command
renders all its artifacts before it writes the first, so a failure leaves
none behind.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, growth, mcsim, rewarddist, waiting
from .errors import (CertainRuinError, ConvergenceError, MineconError,
                     NoRootError, NoViableStrategyError, NumericalError,
                     ValidationError, require)

_NUMERIC_KEYS = ("E", "M", "P0", "W", "c_e", "c_r", "tau", "gamma")
_REQUIRED_KEYS = ("E", "M", "P0", "W", "c_e", "c_r", "tau", "N")
_MAX_GRID_ROWS = 10 ** 7
_MAX_SAMPLES = 10 ** 7          # --samples for simulate and verify
_MAX_EPOCHS = 10 ** 7           # window length N for dist and verify
_MAX_WINDOW_DRAWS = 10 ** 8     # epochs drawn for verify's window rows
_RENDER_ROWS = 4096             # table rows formatted per batch


@dataclass(frozen=True)
class Scenario:
    """One run description; gamma may be omitted when an optimizer picks it."""

    E: float
    M: float
    P0: float
    W: float
    c_e: float
    c_r: float
    tau: float
    N: int
    gamma: Optional[float] = None

    def __post_init__(self):
        def check(cond, msg):
            require(cond, f"scenario: {msg}")
        check(math.isfinite(self.E) and self.E > 0, "E must be positive")
        check(math.isfinite(self.M) and self.M >= 0, "M must be nonnegative")
        check(math.isfinite(self.P0) and self.P0 > 0, "P0 must be positive")
        check(math.isfinite(self.W) and self.W > 0, "W must be positive")
        check(math.isfinite(self.c_e) and self.c_e > 0, "c_e must be positive")
        check(math.isfinite(self.c_r) and self.c_r > 0, "c_r must be positive")
        check(math.isfinite(self.tau) and self.tau > 0, "tau must be positive")
        check(self.N >= 1, "N must be at least 1")
        if self.gamma is not None:
            check(0.0 < self.gamma < 1.0, "gamma must lie in (0, 1)")

    @classmethod
    def from_mapping(cls, data: dict) -> "Scenario":
        unknown = set(data) - set(_REQUIRED_KEYS) - {"gamma"}
        if unknown:
            raise ValidationError(
                f"scenario: unknown keys {sorted(unknown)}")
        missing = [k for k in _REQUIRED_KEYS if k not in data]
        if missing:
            raise ValidationError(f"scenario: missing keys {missing}")
        try:
            n = int(data["N"])
            if n != float(data["N"]):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("scenario: N must be an integer") from None
        kwargs = {k: float(data[k]) for k in _NUMERIC_KEYS
                  if k in data and k != "gamma"}
        gamma = float(data["gamma"]) if "gamma" in data else None
        return cls(N=n, gamma=gamma, **kwargs)

    def to_mapping(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    # -- derived objects ---------------------------------------------------

    def plan(self) -> growth.MinerPlan:
        if self.gamma is None:
            raise ValidationError(
                "scenario: this command needs an explicit gamma")
        return growth.MinerPlan(wealth=self.W, split=self.gamma,
                                equipment_rate=self.c_e,
                                running_rate=self.c_r)

    def network(self) -> rewarddist.NetworkParams:
        return rewarddist.NetworkParams(expected_blocks=self.E,
                                        block_reward=self.M, power=self.P0)

    def share(self) -> rewarddist.MinerShare:
        return rewarddist.MinerShare(
            growth.win_probability(self.plan(), self.network()))


def load_scenario(path) -> Scenario:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario: bad JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValidationError("scenario: JSON root must be an object")
        return Scenario.from_mapping(data)
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"scenario: line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in data:
            raise ValidationError(f"scenario: duplicate key {key!r}")
        try:
            data[key] = float(value)
        except ValueError:
            raise ValidationError(
                f"scenario: line {lineno}: {value!r} is not a number"
            ) from None
    return Scenario.from_mapping(data)


# -- deterministic serialization -------------------------------------------


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return _cell(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite value {value!r} in output")
        return format(value, ".17g")
    return str(value)


def _json_file(path: Path, payload: dict) -> tuple:
    return path, _json_text(payload) + "\n"


# -- table text ------------------------------------------------------------
# A full batch of rows whose floats are all 0 or have 1e-4 <= |v| < 1e16,
# where %.17g writes fixed notation, renders in numpy: each cell fills a
# fixed-width slot of a (rows, width) byte buffer, NUL-padded, and one
# bytes.translate drops the padding. The 17 digits of |v| are
# m = round(|v| 10^k) for the k that puts m in [10^16, 10^17): Dekker's
# two-product gives |v| 10^k = p + err exactly, and p >= 10^16 is an even
# integer, so p + rint(err) rounds half to even, as %.17g does.

_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # of 0 .. 9999
_WORDS = np.ascontiguousarray(_DIGITS.T + np.uint8(48)).view(np.uint32)
_WORDS = _WORDS.ravel()  # "0000" .. "9999" as native uint32
# each word's trailing '0's, 4 in "0000"
_TRAILING = np.logical_and.accumulate(_DIGITS[::-1] == 0).sum(0)
# row 25 lo + hi keeps bytes lo <= i < hi of 24 and zeroes the others
_MASK = np.uint8(255) * ((np.arange(24) >= np.arange(25)[:, None, None])
                         & (np.arange(24) < np.arange(25)[:, None]))
_MASK = _MASK.reshape(625, 24)
_POW10 = np.concatenate(([1.0], np.full(22, 10.0))).cumprod()  # exact
_BOOLS = np.frombuffer(b"falsetrue\0", np.uint8).reshape(2, 5)


def _split(a):
    """Dekker's split of a into hi + lo, each with at most 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, k):
    """round(a 10^k) as int64, ties to even, where a 10^k >= 2^53."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digits(value, count: int):
    """Nonnegative integers as count zero-padded 4-digit groups a row, as
    (rows, count) ints and (rows, 4 count) ASCII bytes."""
    groups = np.empty((len(value), count), np.uint32)
    for j in range(count - 1, -1, -1):
        value, groups[:, j] = np.divmod(value, 10 ** 4)
    return groups, np.take(_WORDS, groups).view(np.uint8)


def _keep(text, lo, hi):
    """Each row's bytes lo <= i < hi of text, the others NUL, over the
    columns some row keeps."""
    a, b = int(np.min(lo)), int(np.max(hi))
    return text[:, a:b] & np.take(_MASK[:, a:b], 25 * lo + hi, axis=0)


def _byte(mask, char: str):
    return mask.view(np.uint8)[:, None] * np.uint8(ord(char))  # or NUL


def _float_text(v) -> list:
    """%.17g text of floats v in fixed notation, as byte columns."""
    a = np.abs(v)
    zero = a == 0.0
    a[zero] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)  # decimal exponent, or 1 off
    m = _scaled(a, 16 - x)
    # 17 digits tell doubles apart, so no m rounds up to 10^17 once x is
    # right
    while (off := (m >= 10 ** 17).astype(np.intp) - (m < 10 ** 16)).any():
        x += off
        m = _scaled(a, 16 - x)
    m[zero], x[zero] = 0, 0
    # 24 digits, 7 zeros and m's 17; m's trailing zeros are counted back
    # from the last group while the groups are 0
    groups, text = _digits(m, 6)
    zeros = _TRAILING[groups[:, 5]]
    rows = np.flatnonzero(groups[:, 5] == 0)
    for j in range(4, 0, -1):
        group = groups[rows, j]
        zeros[rows] += _TRAILING[group]
        rows = rows[group == 0]
    # the point goes before digit x + 8, after one '0' at least, and the %g
    # rule drops the fraction's trailing zeros, and the point with them
    point = x + 8
    end = np.maximum(24 - zeros, point)
    return [_byte(np.signbit(v), "-"),
            _keep(text, np.minimum(point - 1, 7), point),
            _byte(end > point, "."), _keep(text, point, end)]


def _int_text(c) -> list:
    """Decimal text of integers c, as byte columns."""
    mag = (np.abs(c.astype(np.int64)).view(np.uint64)
           if c.dtype.kind == "i" else c.astype(np.uint64))
    count = -(-len(str(int(mag.max()))) // 4)
    text = _digits(mag, count)[1]
    lead = np.argmax(text != 48, axis=1)  # leading '0's, but one in a 0
    lead[mag == 0] = 4 * count - 1
    return [_byte(c < 0, "-"), _keep(text, lead, 4 * count)]


def _fixed_rows(pieces, sep: str, cols) -> str:
    """The rows of cols in fixed notation between the text pieces, rows
    joined by sep: the text _percent_rows gives them."""
    parts = []
    for piece, c in zip(pieces, cols):
        parts.append(np.frombuffer(piece.encode(), np.uint8))
        if c.dtype.kind == "f":
            parts += _float_text(c)
        elif c.dtype.kind == "b":
            parts.append(_BOOLS[c.view(np.uint8)])
        else:
            parts += _int_text(c)
    parts.append(np.frombuffer((pieces[-1] + sep).encode(), np.uint8))
    rows = len(cols[0])
    buf = np.concatenate([np.broadcast_to(p, (rows, len(p)))
                          if p.ndim == 1 else p for p in parts], axis=1)
    buf[-1, -len(sep):] = 0  # no sep after the last row
    return buf.tobytes().translate(None, b"\0").decode()


def _fixed_notation(cols) -> bool:
    """Whether each column holds bools, ints or float64 values that are 0
    or have 1e-4 <= |v| < 1e16."""
    floats = [np.abs(c) for c in cols if c.dtype.kind == "f"]
    return (all(c.dtype.kind in "biu" or c.dtype == np.float64 for c in cols)
            and all(((a < 1e16) & ((a >= 1e-4) | (a == 0.0))).all()
                    for a in floats))


def _percent_rows(template: str, sep: str, cols) -> str:
    """Rows through one %-template call, rows joined by sep: float columns
    print as %.17g, every other column as %s (bools as true/false), the
    same text _cell gives each value."""
    cols = [np.where(c, "true", "false") if c.dtype.kind == "b" else c
            for c in cols]
    return sep.join([template] * len(cols[0])) % tuple(
        chain.from_iterable(zip(*(c.tolist() for c in cols))))


def _table_file(base: Path, fmt: str, columns: dict) -> tuple:
    """Render named 1-D columns as a CSV or JSON table, _RENDER_ROWS rows
    at a time. A full batch whose floats all print in fixed notation
    renders in numpy (_fixed_rows); any other batch, such as a table's
    short last one, goes through one %-template call (_percent_rows), the
    reference text. Both give the bytes _cell gives each value."""
    cols = [np.asarray(c) for c in columns.values()]
    finite = [np.isfinite(c) for c in cols if c.dtype.kind == "f"]
    if not all(f.all() for f in finite):
        row = min(int(np.argmin(f)) for f in finite if not f.all())
        value = next(float(c[row]) for c in cols
                     if c.dtype.kind == "f" and not np.isfinite(c[row]))
        raise NumericalError(f"non-finite value {value!r} in output")
    if fmt == "csv":
        pieces, sep = ["", *[","] * (len(cols) - 1), ""], "\n"
    else:
        # the layout _json_text gives {"columns": [...], "rows": [[...], ...]}
        pieces = ["    [\n      ", *[",\n      "] * (len(cols) - 1),
                  "\n    ]"]
        sep = ",\n"
    specs = ["%.17g" if c.dtype.kind == "f" else "%s" for c in cols]
    template = "".join(chain.from_iterable(zip(pieces, specs))) + pieces[-1]
    # rows are formatted _RENDER_ROWS at a time, so only that many rows of
    # Python numbers and strings, or of byte slots, are alive at once
    rows = len(cols[0])
    chunks = (_fixed_rows(pieces, sep, batch)
              if len(batch[0]) == _RENDER_ROWS and _fixed_notation(batch)
              else _percent_rows(template, sep, batch)
              for batch in ([c[lo:lo + _RENDER_ROWS] for c in cols]
                            for lo in range(0, rows, _RENDER_ROWS)))
    if fmt == "csv":
        return base.with_suffix(".csv"), "\n".join([",".join(columns),
                                                   *chunks, ""])
    body = f"[\n{sep.join(chunks)}\n  ]" if rows else "[]"
    return base.with_suffix(".json"), (
        f'{{\n  "columns": {_json_text(list(columns), 1)},\n'
        f'  "rows": {body}\n}}\n')


def _write(*files) -> None:
    """Write (path, text) pairs, all rendered before the first is written,
    so a value that fails to serialize leaves no artifact behind."""
    for path, text in files:
        path.write_text(text)
        print(f"wrote {path}")


def _envelope(command: str, scenario: Scenario, seed: int) -> dict:
    return {"command": command, "version": __version__, "seed": seed,
            "scenario": scenario.to_mapping()}


# -- command handlers -------------------------------------------------------


def _epochs(scenario: Scenario) -> int:
    """The scenario's window length N, refused past _MAX_EPOCHS."""
    if scenario.N > _MAX_EPOCHS:
        raise ValidationError(
            f"scenario: N = {scenario.N} exceeds {_MAX_EPOCHS} epochs")
    return scenario.N


def _cmd_dist(scenario: Scenario, args, out: Path) -> None:
    share = scenario.share()
    window = (scenario.network(), share, _epochs(scenario))
    pmf = rewarddist.total_reward_pmf(*window)

    payload = _envelope("dist", scenario, args.seed)
    payload.update({
        "epochs": scenario.N,
        "win_probability": share.win_probability,
        "expected_total_reward": rewarddist.expected_total_reward(*window),
        "variance_thinned": rewarddist.variance_thinned(*window),
        "variance_paper": rewarddist.variance_paper(*window),
        "pmf_mean": pmf.mean(),
        "pmf_variance": pmf.variance(),
        "lattice_step": pmf.step,
        "mass_count": len(pmf.masses),
        "total_mass": pmf.total_mass(),
    })
    _write(_json_file(out / "dist_moments.json", payload),
           _table_file(out / "dist_pmf", args.format,
                       {"lattice_point": pmf.points(),
                        "probability": pmf.masses}))


def _cmd_wait(scenario: Scenario, args, out: Path) -> None:
    plan = scenario.plan()
    network, share = scenario.network(), scenario.share()
    inputs = waiting.BankruptcyInputs(initial_wealth=plan.reserve,
                                      epoch_cost=plan.run_cost_per_epoch)

    count = int(math.floor(args.grid_max / args.grid_step)) + 1
    xs = np.arange(count) * args.grid_step
    grid = {"x": xs, "cdf": waiting.waiting_cdf(xs, network, share),
            "pdf": waiting.waiting_pdf(xs, network, share)}

    payload = _envelope("wait", scenario, args.seed)
    payload.update({
        "win_probability": share.win_probability,
        "rate": scenario.E * share.win_probability,
        "expected_wait": waiting.expected_wait(network, share),
        "wait_variance": waiting.wait_variance(network, share),
        "solvency_horizon": waiting.bankruptcy_horizon(inputs),
        "bankruptcy_probability": waiting.bankruptcy_probability(
            inputs, network, share),
    })
    _write(_table_file(out / "wait_grid", args.format, grid),
           _json_file(out / "wait_summary.json", payload))


def _cmd_growth(scenario: Scenario, args, out: Path) -> None:
    plan, network = scenario.plan(), scenario.network()
    breakdown = growth.stochastic_growth_rate(plan, network,
                                              quad_tol=args.quad_tol)
    payload = _envelope("growth", scenario, args.seed)
    payload.update(asdict(breakdown))
    payload["smooth_growth_rate"] = growth.smooth_growth_rate(
        plan, network, scenario.tau)
    _write(_json_file(out / "growth.json", payload))


def _cmd_optimize(scenario: Scenario, args, out: Path) -> None:
    # the W_min search starts at W and returns W's split, so W is optimized
    # once either way
    run = growth.min_viable_wealth if args.wmin else growth.optimize_gamma
    result = run(scenario.W, scenario.c_e, scenario.c_r, scenario.network(),
                 grid_size=args.grid_size, quad_tol=args.quad_tol)
    opt = result.start if args.wmin else result
    payload = _envelope("optimize", scenario, args.seed)
    payload.update({"split": opt.split, "growth_rate": opt.growth_rate})
    if args.wmin:
        payload["min_viable_wealth"] = result.wealth
        payload["bracket"] = list(result.bracket)
    _write(_json_file(out / "optimize.json", payload))


def _cmd_fee(scenario: Scenario, args, out: Path) -> None:
    bound = growth.max_pool_fee(scenario.W, scenario.c_e, scenario.c_r,
                                scenario.network(), scenario.tau,
                                grid_size=args.grid_size,
                                quad_tol=args.quad_tol)
    payload = _envelope("fee", scenario, args.seed)
    payload.update(asdict(bound))
    _write(_json_file(out / "fee.json", payload))


def _cmd_simulate(scenario: Scenario, args, out: Path) -> None:
    config = mcsim.SimConfig(seed=args.seed, sample_count=args.samples,
                             stream_id=args.stream_id)
    payload = _envelope("simulate", scenario, args.seed)
    payload["kind"] = args.sim
    payload["stream_id"] = args.stream_id
    network = scenario.network()
    tables = []

    if args.sim == "rounds":
        mode = args.reward_mode.replace("-", "_")
        plan = scenario.plan()
        payoffs = mcsim.round_payoffs(plan, network, config, reward_mode=mode)
        payload["reward_mode"] = mode
        payload["report"] = asdict(mcsim._mean_report(
            payoffs, args.seed, scale=growth.win_rate_lambda(plan, network)))
        if args.per_trial:
            tables.append(_table_file(
                out / "simulate_trials", args.format,
                {"trial": np.arange(1, payoffs.size + 1),
                 "log_payoff": payoffs}))
    elif args.sim == "epochs":
        batch = mcsim.simulate_epochs(network, scenario.share(), config)
        payload["report"] = asdict(mcsim._mean_report(batch.rewards,
                                                      args.seed))
        payload["total_blocks"] = int(batch.blocks_total.sum())
        payload["total_wins"] = int(batch.blocks_won.sum())
        if args.per_trial:
            tables.append(_table_file(
                out / "simulate_trials", args.format,
                {"epoch": np.arange(1, len(batch) + 1),
                 "wins": batch.blocks_won, "reward": batch.rewards}))
    elif args.sim == "first-win":
        result = mcsim.estimate_first_win_time(network, scenario.share(),
                                               config)
        payload["report"] = asdict(result.report)
        payload["censored"] = result.censored
        tables.append(_table_file(out / "simulate_ecdf", args.format,
                                  {"epoch": result.grid,
                                   "cumulative_probability":
                                       result.empirical_cdf}))
    else:  # wealth
        path = mcsim.simulate_wealth_path(scenario.plan(), network,
                                          args.horizon, config)
        payload["horizon"] = args.horizon
        payload["bankrupt"] = bool(path.bankrupt)
        payload["bankrupt_epoch"] = path.bankrupt_epoch
        payload["final_wealth"] = float(path.wealth[-1])
        payload["epochs_recorded"] = int(len(path.wealth))
        tables.append(_table_file(out / "simulate_path", args.format,
                                  {"epoch": np.arange(1, path.wealth.size
                                                      + 1),
                                   "wins": path.wins,
                                   "wealth": path.wealth}))
    _write(*tables, _json_file(out / "simulate.json", payload))


# -- verify: closed forms vs Monte Carlo ------------------------------------


def _row(name, status, observed, expected, band, detail="") -> dict:
    return {"name": name, "status": status, "observed": observed,
            "expected": expected, "band": band, "detail": detail}


def _stat_row(name, observed, expected, band, detail="") -> dict:
    status = "PASS" if abs(observed - expected) <= band else "FAIL"
    return _row(name, status, observed, expected, band, detail)


def _verify_rows(scenario: Scenario, args) -> list:
    plan = scenario.plan()
    network, share = scenario.network(), scenario.share()
    q = share.win_probability
    seed = args.seed
    samples = args.samples
    rows = []
    n_paths = max(2000, (samples * 10) // scenario.N)
    if n_paths * scenario.N > _MAX_WINDOW_DRAWS:
        raise ValidationError(
            f"window rows would draw {n_paths} x {scenario.N} epochs, more "
            f"than {_MAX_WINDOW_DRAWS}")
    window = (network, share, _epochs(scenario))

    # protocol-level epoch batch: Poisson mean and win-count pmf
    batch = mcsim.simulate_epochs(network, share,
                                  mcsim.SimConfig(seed, samples, stream_id=1))
    w = batch.blocks_total
    rows.append(_stat_row(
        "epoch-blocks-mean", float(np.mean(w)), scenario.E,
        3.0 * float(np.std(w, ddof=1)) / math.sqrt(samples),
        "sample mean of Poisson block counts vs E"))

    counts = np.bincount(batch.blocks_won)
    emp = counts / samples
    closed = np.array([rewarddist.win_count_pmf_closed(v, network, share)
                       for v in range(len(emp))])
    tv = 0.5 * (float(np.abs(emp - closed).sum())
                + max(0.0, 1.0 - float(closed.sum())))
    tv_band = max(0.005, 2.0 * float(np.sqrt(closed * (1 - closed)
                                             / samples).sum()))
    rows.append(_row("win-count-tv", "PASS" if tv <= tv_band else "FAIL",
                     tv, 0.0, tv_band,
                     "total-variation distance, empirical vs thinned pmf"))

    # no-win mass: the series behind conditional_reward's exp(-E q)
    rows.append(_stat_row(
        "no-win-series", rewarddist.win_count_pmf_series(0, network, share),
        math.exp(-scenario.E * q), 1e-12,
        "truncated series vs closed form exp(-E q)"))

    # first-win waiting time vs the discrete-geometric mean 1/p0 - 1/2; the
    # band takes the geometric law's sd sqrt(1 - p0)/p0, not the sample's,
    # which is 0 when every trial wins in epoch 1
    trials = max(2000, samples // 5)
    first = mcsim.estimate_first_win_time(
        network, share, mcsim.SimConfig(seed, trials, stream_id=2))
    p0 = -math.expm1(-scenario.E * q)
    rows.append(_stat_row(
        "first-win-mean", first.report.estimate, 1.0 / p0 - 0.5,
        3.0 * math.sqrt(math.exp(-scenario.E * q) / trials) / p0,
        "midpoint-recorded waiting time vs exact discrete mean"))

    # pure-drain ruin epoch: with M = 0 the reserve falls by the same cost
    # every epoch whatever the draws, so one path settles it
    inputs = waiting.BankruptcyInputs(plan.reserve, plan.run_cost_per_epoch)
    horizon = waiting.bankruptcy_horizon(inputs)
    path = mcsim.simulate_wealth_path(
        plan, replace(network, block_reward=0.0), horizon,
        mcsim.SimConfig(seed, 1, stream_id=1000))
    ruin_exact = path.bankrupt and path.bankrupt_epoch == horizon
    rows.append(_row("drain-ruin-epoch", "PASS" if ruin_exact else "FAIL",
                     horizon if ruin_exact else -1, horizon, 0,
                     "M=0 ruin epoch equals ceil(reserve/cost)"))

    # bankruptcy: first-win trials with no win by the horizon. ecdf[k] is
    # the share of the trials that won by epoch k; every trial has won by
    # the grid's last epoch
    won = round(first.empirical_cdf[min(horizon, first.grid[-1])]
                * first.report.samples)
    p_bankrupt = waiting.bankruptcy_probability(inputs, network, share)
    rows.append(_stat_row(
        "bankruptcy-probability", (trials - won) / trials, p_bankrupt,
        3.0 * math.sqrt(p_bankrupt * (1 - p_bankrupt) / trials),
        "first-win trials with no win by the horizon vs exp(-x* E q)"))

    # growth rate: quadrature vs the formula-faithful game simulation
    breakdown = growth.stochastic_growth_rate(plan, network,
                                              quad_tol=args.quad_tol)
    oracle = mcsim.round_oracle(plan, network,
                                mcsim.SimConfig(seed, samples, stream_id=3))
    rows.append(_stat_row(
        "growth-rate-mc", oracle.estimate, breakdown.growth_rate,
        3.0 * oracle.std_error,
        "round simulation vs adaptive quadrature"))

    # smooth growth: quadrature vs antiderivative
    quad, closed_form, dual_noise = growth._smooth_growth_parts(
        plan, network, scenario.tau)
    dual_band = max(1e-10 * abs(closed_form), dual_noise)
    rows.append(_stat_row(
        "smooth-dual-eval", quad, closed_form, dual_band,
        "quadrature vs closed-form antiderivative"))

    # window moments: Monte Carlo vs expected total and thinned variance
    want_mean = rewarddist.expected_total_reward(*window)
    want_var = rewarddist.variance_thinned(*window)
    draws = mcsim.simulate_epochs(
        network, share,
        mcsim.SimConfig(seed, n_paths * scenario.N, stream_id=4))
    totals = draws.rewards.reshape(n_paths, scenario.N).sum(axis=1)
    mean = float(np.mean(totals))
    var = float(np.var(totals, ddof=1))
    rows.append(_stat_row(
        "window-mean", mean, want_mean,
        3.0 * float(np.std(totals, ddof=1)) / math.sqrt(n_paths),
        f"mean total reward over N={scenario.N} epochs"))
    centered = totals - mean
    m4 = float(np.mean(centered ** 4))
    se_var = math.sqrt(max(m4 - var * var * (n_paths - 3) / (n_paths - 1),
                           0.0) / n_paths)
    rows.append(_stat_row(
        "window-variance", var, want_var, 3.0 * se_var,
        f"variance of total reward over N={scenario.N} epochs"))
    rows.append(_row(
        "variance-paper", "REPORT", rewarddist.variance_paper(*window),
        want_var, 0.0,
        "closed-form variance as printed; reported, not asserted"))
    return rows


def _cmd_verify(scenario: Scenario, args, out: Path) -> None:
    rows = _verify_rows(scenario, args)
    payload = _envelope("verify", scenario, args.seed)
    payload["samples"] = args.samples
    payload["rows"] = rows
    failures = sum(1 for r in rows if r["status"] == "FAIL")
    payload["failures"] = failures
    payload["passed"] = failures == 0
    _write(_json_file(out / "verify.json", payload))

    name_w = max(len(r["name"]) for r in rows)
    print(f"{'check':<{name_w}}  {'status':<6}  {'observed':<24}"
          f"{'expected':<24}band")
    for r in rows:
        print(f"{r['name']:<{name_w}}  {r['status']:<6}  "
              f"{_cell(r['observed']):<24}{_cell(r['expected']):<24}"
              f"{_cell(r['band'])}")
    if failures:
        raise ConvergenceError(f"{failures} verification row(s) failed")


_FLAGS = {
    "scenario": dict(help="scenario file (key=value or JSON)"),
    "--seed": dict(type=int, default=42, help="RNG seed (default 42)"),
    "--out": dict(default=".", help="output directory"),
    "--samples": dict(type=int, default=100_000,
                      help="Monte Carlo sample count (default 100000)"),
    "--quad-tol": dict(type=float, default=1e-10,
                       help="quadrature relative tolerance (default 1e-10)"),
    "--grid-size": dict(type=int, default=1024,
                        help="gamma grid points for optimization"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="tabular artifact format (default csv)"),
    "--grid-max": dict(type=float, default=1440.0,
                       help="largest grid time in epochs (default 1440)"),
    "--grid-step": dict(type=float, default=1.0,
                        help="grid spacing in epochs (default 1)"),
    "--wmin": dict(action="store_true",
                   help="also locate the minimum viable wealth"),
    "--sim": dict(choices=("rounds", "epochs", "first-win", "wealth"),
                  default="rounds", help="what to simulate (default rounds)"),
    "--reward-mode": dict(choices=("conditional-mean", "sampled"),
                          default="conditional-mean",
                          help="reward model for --sim rounds"),
    "--horizon": dict(type=int, default=1000,
                      help="epochs for --sim wealth (default 1000)"),
    "--stream-id": dict(type=int, default=0,
                        help="RNG substream (default 0)"),
    "--per-trial": dict(action="store_true",
                        help="also write per-trial rows"),
}

# every command takes these; --seed is echoed in every artifact
_COMMON_FLAGS = ("scenario", "--seed", "--out")
# command -> (handler, help, the flags it reads besides _COMMON_FLAGS)
_COMMANDS = {
    "dist": (_cmd_dist, "reward pmf and moments over the scenario window",
             ("--format",)),
    "wait": (_cmd_wait, "waiting-time CDF/PDF grid and bankruptcy",
             ("--format", "--grid-max", "--grid-step")),
    "growth": (_cmd_growth, "growth-rate breakdown at the scenario gamma",
               ("--quad-tol",)),
    "optimize": (_cmd_optimize, "optimal split and growth rate",
                 ("--quad-tol", "--grid-size", "--wmin")),
    "fee": (_cmd_fee, "pool fee-rate ceilings",
            ("--quad-tol", "--grid-size")),
    "simulate": (_cmd_simulate, "Monte Carlo runs",
                 ("--samples", "--format", "--sim", "--reward-mode",
                  "--horizon", "--stream-id", "--per-trial")),
    "verify": (_cmd_verify, "closed forms vs Monte Carlo oracle table",
               ("--samples", "--quad-tol")),
}
# simulate flags and the --sim kinds that read them; the simulate parser
# leaves them None when absent, so a kind can refuse one it ignores
_SIM_KIND_FLAGS = {"--samples": ("rounds", "epochs", "first-win"),
                   "--per-trial": ("rounds", "epochs"),
                   "--reward-mode": ("rounds",),
                   "--horizon": ("wealth",)}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one error line, exit 2."""

    def error(self, message):
        sys.exit(_fail(2, "usage", message))


def _build_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of ``commands``."""
    # without abbreviations each flag has one spelling, so a prefix never
    # resolves to a flag the command was not meant to take
    parser = _Parser(
        prog="minecon", allow_abbrev=False,
        description="mining-economics engine: reward distributions, waiting "
                    "times, and wealth growth rates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        _, help_text, flags = _COMMANDS[command]
        sub_p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in (*_COMMON_FLAGS, *flags):
            sub_p.add_argument(flag, **_FLAGS[flag])
        if command == "simulate":
            sub_p.set_defaults(
                **{_dest(flag): None for flag in _SIM_KIND_FLAGS})
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse(argv) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its command builds that command's parser alone:
    # add_argument is the dearest step of the build, and all seven parsers
    # took 1.5-1.6 ms of a 3.6-3.8 ms in-process growth call on 2 vCPUs,
    # growth's alone 0.36-0.44 ms. -h, an unknown command and a flag before
    # the command get every command's parser, whose messages list them all.
    first = argv[0] if argv else None
    parser = _build_parser((first,) if first in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    if args.command == "simulate":
        for flag, kinds in _SIM_KIND_FLAGS.items():
            if getattr(args, _dest(flag)) is None:
                setattr(args, _dest(flag), _FLAGS[flag].get("default", False))
            elif args.sim not in kinds:
                parser.error(f"--sim {args.sim} does not read {flag}")
    return args


def _check_flags(args) -> None:
    # flags argparse types but does not range-check
    if not 0 <= args.seed < 2 ** 64:
        raise ValidationError("--seed must lie in [0, 2**64)")
    if hasattr(args, "quad_tol") and not 0 < args.quad_tol < 1:
        # as the growth layer words it, but before any command's work
        raise ValidationError("quad_tol must lie in (0, 1)")
    if hasattr(args, "samples") and args.samples > _MAX_SAMPLES:
        raise ValidationError(f"--samples must be at most {_MAX_SAMPLES}")
    if args.command == "verify" and args.samples < 2:
        # every verify row estimates a standard error
        raise ValidationError("--samples must be at least 2 for verify")
    if args.command == "wait":
        if not (math.isfinite(args.grid_step) and args.grid_step > 0):
            raise ValidationError("--grid-step must be positive and finite")
        if not (math.isfinite(args.grid_max) and args.grid_max >= 0):
            raise ValidationError("--grid-max must be nonnegative and finite")
        if args.grid_max / args.grid_step >= _MAX_GRID_ROWS:
            raise ValidationError(
                f"--grid-max/--grid-step exceeds {_MAX_GRID_ROWS} grid rows")


_heap_kept = False  # the allocator is per process: main sets it once


def _keep_freed_heap() -> None:
    # glibc gives freed memory back to the kernel eagerly: it trims the
    # heap top and mmaps large blocks, so the numpy temporaries of every
    # quadrature level and sampler batch fault their pages in afresh. One
    # reference optimize_gamma took 8,900-9,500 minor faults; with blocks
    # up to 32 MiB served from the heap, and the heap trimmed only once
    # 256 MiB of it is free, it takes under 50. Freed heap still counts
    # against an address-space cap (the tests' children run under 1.5 GB),
    # and no command frees a heap top near 256 MiB (the quadrature's cap
    # peaks near 120 MB), so a larger trim threshold buys nothing. Arrays
    # past 32 MiB, such as sampler tables at the entry limit, stay mmapped
    # and go back when freed. Either value alone is slower: setting the
    # trim threshold alone pins the mmap threshold at 128 KiB, and the
    # mmap threshold alone leaves the trimming. Only the CLI sets them;
    # importing minecon leaves the allocator alone. Each mallopt call also
    # consolidates glibc's free lists (70-130 us between benchmark jobs,
    # and the small jobs after it slow down), so a process calls it once.
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    import ctypes
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if glibc and mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _parse(argv)
    try:
        _check_flags(args)
        scenario = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # a non-finite value fails the explicit checks, which print the one
        # error line; numpy's own warnings would add more lines
        with np.errstate(all="ignore"):
            _COMMANDS[args.command][0](scenario, args, out)
    except ValidationError as exc:
        return _fail(1, "validation", exc)
    except ConvergenceError as exc:
        return _fail(2, "convergence", exc)
    except (NoViableStrategyError, NoRootError, CertainRuinError) as exc:
        return _fail(3, "no-solution", exc)
    except MineconError as exc:
        # NumericalError: a non-finite or out-of-range value at run time
        return _fail(2, "numeric", exc)
    except ArithmeticError as exc:
        # a Python float operation that overflowed, as M**2 does past 1e154
        return _fail(2, "numeric", f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(1, "io", exc)
    return 0


def _fail(code: int, kind: str, exc: Exception) -> int:
    message = " ".join(str(exc).split())
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
