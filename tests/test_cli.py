"""Command-line round trips: artifacts, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import minecon
from conftest import REFERENCE, run_cli, write_scenario
from minecon import __version__, cli, mcsim, rewarddist, waiting
from minecon.cli import load_scenario
from minecon.errors import NumericalError, ValidationError


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell_table_text(fmt, columns, rows):
    """The cell-by-cell renderer _table_file replaced, kept as its oracle:
    one _cell (CSV) or _json_text (JSON) call per value."""
    rows = [list(row) for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(cli._cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    return cli._json_text({"columns": list(columns), "rows": rows}) + "\n"


def oracle_tables(scenario, seed=42):
    """(artifact, columns, rows, argv) for every table artifact, with rows
    built from library calls the way the commands built them row by row;
    9,000 draws span more than two of the writer's row batches."""
    plan, share = scenario.plan(), scenario.share()
    network = scenario.network()
    config = mcsim.SimConfig(seed=seed, sample_count=9000)
    pmf = rewarddist.total_reward_pmf(network, share, scenario.N)
    xs = [k * 0.5 for k in range(201)]
    payoffs = mcsim.round_payoffs(plan, network, config)
    batch = mcsim.simulate_epochs(network, share, config)
    first = mcsim.estimate_first_win_time(network, share, config)
    path = mcsim.simulate_wealth_path(plan, network, 9000, config)
    sim = ("simulate", "--samples", 9000)
    return [
        ("dist_pmf", ["lattice_point", "probability"],
         zip(pmf.points().tolist(), pmf.masses.tolist()), ("dist",)),
        ("wait_grid", ["x", "cdf", "pdf"],
         [(x, waiting.waiting_cdf(x, network, share),
           waiting.waiting_pdf(x, network, share))
          for x in xs], ("wait", "--grid-max", 100, "--grid-step", 0.5)),
        ("simulate_trials", ["trial", "log_payoff"],
         enumerate(payoffs.tolist(), start=1), (*sim, "--per-trial")),
        ("simulate_trials", ["epoch", "wins", "reward"],
         [(k, int(v), float(r)) for k, v, r in
          zip(range(1, len(batch) + 1), batch.blocks_won, batch.rewards)],
         (*sim, "--sim", "epochs", "--per-trial")),
        ("simulate_ecdf", ["epoch", "cumulative_probability"],
         zip(first.grid.tolist(), first.empirical_cdf.tolist()),
         (*sim, "--sim", "first-win")),
        ("simulate_path", ["epoch", "wins", "wealth"],
         zip(range(1, len(path.wealth) + 1), path.wins.tolist(),
             path.wealth.tolist()),
         ("simulate", "--sim", "wealth", "--horizon", 9000)),
    ]


def _run_python(script, *argv):
    """A Python script in a child process that imports this minecon."""
    src = str(Path(minecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _run_child(*argv):
    """The CLI in a child process capped at 1.5 GB of address space."""
    script = ("import resource, sys\n"
              "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, hard))\n"
              "from minecon.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    return _run_python(script, *argv)


class TestScenarioFile:
    def test_key_value_parses(self, reference_file):
        scenario = load_scenario(reference_file)
        assert scenario.E == 10.0
        assert scenario.M == 1.0
        assert scenario.P0 == 1000.0
        assert scenario.W == 100.0
        assert scenario.gamma == 0.5
        assert scenario.c_e == 1.0
        assert scenario.c_r == 0.001
        assert scenario.tau == 1.0
        assert scenario.N == 100

    def test_json_object_parses_identically(self, tmp_path, reference_file):
        json_path = tmp_path / "scenario.json"
        json_path.write_text(json.dumps(REFERENCE))
        assert load_scenario(json_path) == load_scenario(reference_file)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "annotated.txt"
        path.write_text("# network\nE = 10\nM=1\nP0 = 1000\n\n"
                        "W = 100  # miner\ngamma = 0.5\nc_e = 1\n"
                        "c_r = 0.001\ntau = 1\nN = 100\n")
        scenario = load_scenario(path)
        assert scenario.W == 100.0 and scenario.N == 100

    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path)
        path.write_text(path.read_text() + "difficulty = 3\n")
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path)
        path.write_text(path.read_text() + "E = 11\n")
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        params = {k: v for k, v in REFERENCE.items() if k != "P0"}
        path = tmp_path / "short.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in params.items()))
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_out_of_range_gamma_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scenario(write_scenario(tmp_path, gamma=1.5))

    def test_fractional_window_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scenario(write_scenario(tmp_path, N=10.5))

    @pytest.mark.parametrize("window", ["inf", "nan", "1e400"])
    def test_non_finite_window_rejected(self, tmp_path, window):
        with pytest.raises(ValidationError, match="N must be an integer"):
            load_scenario(write_scenario(tmp_path, N=window))

    def test_gamma_is_optional(self, tmp_path):
        params = {k: v for k, v in REFERENCE.items() if k != "gamma"}
        path = tmp_path / "nogamma.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in params.items()))
        assert load_scenario(path).gamma is None


class TestArtifacts:
    def test_wait_grid_hits_unit_rate_point(self, tmp_path):
        # W=2, gamma=0.5, c_e=1 buys power 1 against P0=999, so the win
        # probability is exactly 0.001 and x=100 sits at one expected win
        path = write_scenario(tmp_path, W=2, P0=999)
        out = tmp_path / "artifacts"
        assert run_cli("wait", path, "--out", out, "--grid-max", 120) == 0
        header, rows = read_csv(out / "wait_grid.csv")
        assert header == ["x", "cdf", "pdf"]
        by_x = {float(r[0]): r for r in rows}
        assert abs(float(by_x[100.0][1]) - (-math.expm1(-1.0))) <= 1e-12
        assert abs(float(by_x[0.0][1])) == 0.0
        assert abs(float(by_x[0.0][2]) - 0.01) <= 1e-15

    def test_wait_summary_is_self_consistent(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("wait", reference_file, "--out", out) == 0
        payload = read_json(out / "wait_summary.json")
        rate = payload["rate"]
        assert rate == pytest.approx(10.0 * (50.0 / 1050.0), rel=1e-15)
        assert payload["expected_wait"] == pytest.approx(1.0 / rate,
                                                         rel=1e-15)
        assert payload["solvency_horizon"] == 1000
        assert payload["bankruptcy_probability"] == pytest.approx(
            math.exp(-1000 * rate), rel=1e-12, abs=0.0)

    def test_dist_moments_match_thinning(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("dist", reference_file, "--out", out) == 0
        payload = read_json(out / "dist_moments.json")
        q = 50.0 / 1050.0
        assert payload["win_probability"] == pytest.approx(q, rel=1e-15)
        assert payload["expected_total_reward"] == pytest.approx(
            100 * 10.0 * q, rel=1e-12)
        assert payload["variance_thinned"] == pytest.approx(100 * 10.0 * q,
                                                            rel=1e-12)
        assert payload["pmf_mean"] == pytest.approx(
            payload["expected_total_reward"], rel=1e-9)
        assert payload["total_mass"] == pytest.approx(1.0, abs=1e-11)
        assert payload["lattice_step"] == 1.0
        header, rows = read_csv(out / "dist_pmf.csv")
        assert header == ["lattice_point", "probability"]
        assert len(rows) == payload["mass_count"]

    def test_dist_long_window_keeps_unit_mass(self, tmp_path):
        # E = 200, N = 2000: win mean 1.9e4, where N - 1 convolutions of
        # lgamma pmfs overshot the mass bound at 1 + 1.8e-12
        path = write_scenario(tmp_path, E=200, N=2000)
        out = tmp_path / "artifacts"
        assert run_cli("dist", path, "--out", out) == 0
        payload = read_json(out / "dist_moments.json")
        assert abs(payload["total_mass"] - 1.0) <= 1e-12
        assert payload["pmf_mean"] == pytest.approx(
            payload["expected_total_reward"], rel=1e-9)

    def test_dist_csv_round_trips_the_pmf(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("dist", reference_file, "--out", out) == 0
        scenario = load_scenario(reference_file)
        pmf = rewarddist.total_reward_pmf(scenario.network(),
                                          scenario.share(), scenario.N)
        _, rows = read_csv(out / "dist_pmf.csv")
        assert [float(p) for _, p in rows] == pmf.masses.tolist()
        assert [float(x) for x, _ in rows] == [j * scenario.M
                                              for j in range(len(rows))]

    def test_growth_breakdown_reference_values(self, reference_file,
                                               tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("growth", reference_file, "--out", out) == 0
        payload = read_json(out / "growth.json")
        assert payload["growth_rate"] == pytest.approx(
            9.826069177491712e-05, rel=1e-9)
        assert payload["win_rate"] == pytest.approx(50.0 / 1050.0 * 10.0,
                                                    rel=1e-15)
        assert payload["t_max"] == pytest.approx(1000.0, rel=1e-15)
        assert payload["smooth_growth_rate"] == pytest.approx(
            0.00022615448702526458, rel=1e-9)
        assert payload["growth_rate"] == pytest.approx(
            payload["win_rate"] * (payload["win_term"]
                                   + payload["bankrupt_term"]), rel=1e-12)

    def test_optimize_reference_values(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("optimize", reference_file, "--out", out) == 0
        payload = read_json(out / "optimize.json")
        assert payload["split"] == pytest.approx(0.9932372769915108,
                                                 rel=1e-6)
        assert payload["growth_rate"] == pytest.approx(
            0.00037761956003835157, rel=1e-6)

    def test_optimize_wmin_brackets_a_root(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("optimize", reference_file, "--out", out,
                       "--wmin") == 0
        payload = read_json(out / "optimize.json")
        lo, hi = payload["bracket"]
        assert lo <= payload["min_viable_wealth"] <= hi
        assert payload["min_viable_wealth"] == pytest.approx(
            3.5596630070358515, rel=1e-3)

    def test_optimize_wmin_optimizes_each_wealth_once(self, reference_file,
                                                      tmp_path, monkeypatch):
        # W's split comes from the root search's first run, not a second one
        wealths = []
        optimize_gamma = minecon.growth.optimize_gamma

        def counted(wealth, *args, **kwargs):
            wealths.append(wealth)
            return optimize_gamma(wealth, *args, **kwargs)

        monkeypatch.setattr(minecon.growth, "optimize_gamma", counted)
        flags = ("--grid-size", 64)
        assert run_cli("optimize", reference_file, "--out", tmp_path / "a",
                       *flags) == 0
        assert wealths == [100.0]
        assert run_cli("optimize", reference_file, "--out", tmp_path / "b",
                       *flags, "--wmin") == 0
        assert wealths[1] == 100.0 and len(wealths) > 3
        assert len(set(wealths[1:])) == len(wealths) - 1
        plain = read_json(tmp_path / "a" / "optimize.json")
        wmin = read_json(tmp_path / "b" / "optimize.json")
        assert {k: wmin[k] for k in plain} == plain

    def test_fee_reference_values(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("fee", reference_file, "--out", out) == 0
        payload = read_json(out / "fee.json")
        assert payload["relative_bound"] == pytest.approx(
            3.102008288102115e-05, rel=1e-6)
        assert payload["profitability_bound"] == payload["smooth_growth"]
        assert payload["smooth_split"] == pytest.approx(0.9990009990009991,
                                                        rel=1e-9)
        assert payload["smooth_growth"] == pytest.approx(
            0.0004086396429193727, rel=1e-9)
        assert payload["stochastic_split"] == pytest.approx(
            0.9932372769915108, rel=1e-6)

    def test_every_json_carries_the_envelope(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("wait", reference_file, "--out", out,
                       "--seed", 7) == 0
        payload = read_json(out / "wait_summary.json")
        assert payload["command"] == "wait"
        assert payload["version"] == __version__
        assert payload["seed"] == 7
        echo = payload["scenario"]
        for key, value in REFERENCE.items():
            assert echo[key] == value

    def test_json_table_format(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("wait", reference_file, "--out", out,
                       "--format", "json", "--grid-max", 10) == 0
        payload = read_json(out / "wait_grid.json")
        assert payload["columns"] == ["x", "cdf", "pdf"]
        assert len(payload["rows"]) == 11

    def test_simulate_rounds_with_trials(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--samples", 2000, "--per-trial") == 0
        payload = read_json(out / "simulate.json")
        assert payload["kind"] == "rounds"
        assert payload["reward_mode"] == "conditional_mean"
        report = payload["report"]
        assert report["samples"] == 2000
        assert report["std_error"] > 0.0
        header, rows = read_csv(out / "simulate_trials.csv")
        assert header == ["trial", "log_payoff"]
        assert len(rows) == 2000

    @pytest.mark.parametrize("mode", ["conditional-mean", "sampled"])
    def test_simulate_rounds_draws_the_payoffs_once(
            self, reference_file, tmp_path, monkeypatch, mode):
        # the report and the trial table come from one payoff array: the
        # report round_oracle gives, the table round_payoffs gives
        calls = []
        real = mcsim.round_payoffs

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.mcsim, "round_payoffs", counted)
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--samples", 2000, "--per-trial",
                       "--reward-mode", mode) == 0
        assert len(calls) == 1
        scenario = load_scenario(reference_file)
        plan, network = scenario.plan(), scenario.network()
        config = mcsim.SimConfig(seed=42, sample_count=2000)
        mode = mode.replace("-", "_")
        report = mcsim.round_oracle(plan, network, config, reward_mode=mode)
        assert read_json(out / "simulate.json")["report"] == \
            {"estimate": report.estimate, "std_error": report.std_error,
             "samples": 2000, "seed": 42}
        payoffs = real(plan, network, config, reward_mode=mode)
        _, rows = read_csv(out / "simulate_trials.csv")
        assert [float(row[1]) for row in rows] == payoffs.tolist()

    def test_simulate_epochs_counts_blocks(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--sim", "epochs", "--samples", 3000) == 0
        payload = read_json(out / "simulate.json")
        assert payload["total_wins"] <= payload["total_blocks"]
        assert payload["report"]["samples"] == 3000
        mean_reward = 10.0 * 50.0 / 1050.0
        assert payload["report"]["estimate"] == pytest.approx(
            mean_reward, abs=5 * payload["report"]["std_error"])

    def test_simulate_first_win_ecdf(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--sim", "first-win", "--samples", 2000) == 0
        payload = read_json(out / "simulate.json")
        assert payload["censored"] == 0
        header, rows = read_csv(out / "simulate_ecdf.csv")
        assert header == ["epoch", "cumulative_probability"]
        cdf = [float(r[1]) for r in rows]
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_simulate_wealth_path(self, reference_file, tmp_path):
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--sim", "wealth", "--horizon", 50) == 0
        payload = read_json(out / "simulate.json")
        assert payload["horizon"] == 50
        assert isinstance(payload["bankrupt"], bool)
        header, rows = read_csv(out / "simulate_path.csv")
        assert header == ["epoch", "wins", "wealth"]
        assert len(rows) == payload["epochs_recorded"]
        assert float(rows[-1][2]) == payload["final_wealth"]

    def test_scenario_file_never_mutated(self, reference_file, tmp_path):
        before = reference_file.read_bytes()
        assert run_cli("growth", reference_file, "--out",
                       tmp_path / "artifacts") == 0
        assert reference_file.read_bytes() == before


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("overrides", [{}, {"E": 200}])
    def test_tables_match_cell_by_cell_oracle(self, tmp_path, fmt,
                                              overrides):
        path = write_scenario(tmp_path, **overrides)
        scenario = load_scenario(path)
        for k, (artifact, columns, rows, argv) in enumerate(
                oracle_tables(scenario)):
            out = tmp_path / str(k)
            assert run_cli(argv[0], path, *argv[1:], "--out", out,
                           "--format", fmt) == 0
            got = (out / f"{artifact}.{fmt}").read_text()
            want = cell_table_text(fmt, columns, rows)
            # lines, so a mismatch reports the first differing line quickly
            assert got.splitlines() == want.splitlines(), artifact
            assert got == want, artifact

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [0, 1, cli._RENDER_ROWS - 1,
                                      cli._RENDER_ROWS, cli._RENDER_ROWS + 1])
    def test_batch_edges_match_oracle(self, tmp_path, fmt, rows):
        # int64, bool and float columns around one batch of rows; the
        # floats cycle through values whose shortest text is tricky
        floats = np.resize([-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e17,
                            2.0 ** 53 + 2, 1.0 / 3.0], rows)
        columns = {"k": np.arange(rows, dtype=np.int64) - 7,
                   "flag": np.arange(rows) % 3 == 0, "x": floats}
        _, text = cli._table_file(tmp_path / "t", fmt, columns)
        want = cell_table_text(fmt, list(columns),
                               zip(*(c.tolist() for c in columns.values())))
        # lines, so a mismatch reports the first differing line quickly
        assert text.splitlines() == want.splitlines()
        assert text == want

    @staticmethod
    def render(fmt, columns):
        """Check _table_file's text against the oracle's, and return the
        row count of each batch that went through the % template."""
        batches = []
        percent = cli._percent_rows

        def counted(template, sep, cols):
            batches.append(len(cols[0]))
            return percent(template, sep, cols)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(cli, "_percent_rows", counted)
            _, text = cli._table_file(Path("t"), fmt, columns)
        want = cell_table_text(fmt, list(columns),
                               zip(*(c.tolist() for c in columns.values())))
        # lines, so a mismatch reports the first differing line quickly
        assert text.splitlines() == want.splitlines()
        assert text == want
        return batches

    @staticmethod
    def boundary_floats():
        """Powers of ten and 1-3 ulps either side for exponents -5..17, and
        values whose 18th significant digit is a 5 that %.17g rounds half
        to even, up and down: d integer digits and 18 - d binary fraction
        digits are exact."""
        values = []
        for e in range(-5, 18):
            for direction in (0.0, math.inf):
                x = 10.0 ** e
                for _ in range(3):
                    x = math.nextafter(x, direction)
                    values.append(x)
            values.append(10.0 ** e)
        for d in range(1, 17):
            base = float(int("123456789012345678"[:d]))
            values += [base + j / 2.0 ** (18 - d) for j in (1, 3)]
        return values + [-v for v in values] + [0.0, -0.0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fixed_route_boundaries_match_oracle(self, fmt):
        # batch 1 holds only floats %.17g prints in fixed notation, so it
        # takes the numpy route; batch 2 holds all the boundary floats, 1e17
        # and 1e-5 among them, and the short tail is the % template's
        rows = 2 * cli._RENDER_ROWS + 5
        floats = np.array(self.boundary_floats())
        fixed = floats[(floats == 0.0) | ((np.abs(floats) >= 1e-4)
                                          & (np.abs(floats) < 1e16))]
        assert 300 < fixed.size < floats.size
        x = np.concatenate([np.resize(fixed, cli._RENDER_ROWS),
                            np.resize(floats, rows - cli._RENDER_ROWS)])
        info = np.iinfo(np.int64)
        ints = np.resize(np.array([info.min, info.max, info.min + 1, -1, 0,
                                   1, 9, -10, 9999, -10 ** 4, 10 ** 8,
                                   -12345678901234567], np.int64), rows)
        columns = {"k": ints, "flag": np.arange(rows) % 3 == 0, "x": x,
                   "epoch": np.arange(rows, dtype=np.uint64)}
        assert self.render(fmt, columns) == [cli._RENDER_ROWS, 5]

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.tuples(st.booleans(), st.one_of(
        st.just(0.0), st.floats(1e-4, 1e16, exclude_max=True))),
        min_size=1, max_size=300), fmt=st.sampled_from(["csv", "json"]))
    def test_fixed_route_matches_oracle(self, values, fmt):
        # two full batches of floats that print in fixed notation
        x = np.resize([-v if negative else v for negative, v in values],
                      2 * cli._RENDER_ROWS)
        assert self.render(fmt, {"x": x, "y": x[::-1].copy()}) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_exponent_float_sends_its_batch_to_percent(self, fmt):
        rows = 2 * cli._RENDER_ROWS
        wealth = np.linspace(100.0, 85593.05, rows)
        columns = {"epoch": np.arange(1, rows + 1), "wealth": wealth}
        assert self.render(fmt, columns) == []
        # the double below 1e-4, and 1e16: both print with an exponent
        wealth[7] = 9.9999999999999991e-05
        assert self.render(fmt, columns) == [cli._RENDER_ROWS]
        wealth[cli._RENDER_ROWS + 7] = 1e16
        assert self.render(fmt, columns) == [cli._RENDER_ROWS] * 2

    def test_dist_sums_the_pmf_three_times(self, reference_file, tmp_path,
                                           monkeypatch):
        # total mass, mean and second moment, each summed once
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum",
                            lambda values: calls.append(1) or fsum(values))
        assert run_cli("dist", reference_file, "--out", tmp_path) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table_matches_oracle(self, tmp_path, fmt):
        _, text = cli._table_file(tmp_path / "t", fmt,
                                  {"a": np.zeros(0, dtype=np.int64),
                                   "b": np.zeros(0)})
        assert text == cell_table_text(fmt, ["a", "b"], [])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_column_raises(self, tmp_path, fmt, bad):
        # the first non-finite value in row order is the one reported, as
        # the cell-by-cell writer reported it
        columns = {"k": np.arange(3), "a": np.array([1.0, 2.0, -bad]),
                   "b": np.array([0.5, bad, 0.25])}
        with pytest.raises(NumericalError) as excinfo:
            cli._table_file(tmp_path / "t", fmt, columns)
        with pytest.raises(NumericalError) as want:
            cell_table_text(fmt, list(columns),
                            zip(*(c.tolist() for c in columns.values())))
        assert str(excinfo.value) == str(want.value)
        assert str(excinfo.value) == f"non-finite value {bad!r} in output"

    def test_non_finite_table_writes_no_artifact(self, reference_file,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # a path whose last wealth is finite: only the table holds the NaN
        path = mcsim.WealthPath(wealth=np.array([1.0, math.nan, 2.0]),
                                wins=np.zeros(3, dtype=np.int64),
                                bankrupt=False, bankrupt_epoch=None)
        monkeypatch.setattr(cli.mcsim, "simulate_wealth_path",
                            lambda *args: path)
        out = tmp_path / "artifacts"
        assert run_cli("simulate", reference_file, "--out", out,
                       "--sim", "wealth", "--horizon", 3) == 2
        err = capsys.readouterr().err
        assert err == "error: numeric: non-finite value nan in output\n"
        assert list(out.iterdir()) == []


class TestExitCodes:
    def test_success_is_zero(self, reference_file, tmp_path):
        assert run_cli("growth", reference_file, "--out", tmp_path) == 0

    def test_validation_failure(self, tmp_path, capsys):
        path = write_scenario(tmp_path, gamma=1.5)
        assert run_cli("growth", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: validation:")

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run_cli("growth", tmp_path / "absent.txt", "--out",
                       tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:") or \
            err.startswith("error: validation:")

    def test_growth_requires_gamma(self, tmp_path, capsys):
        params = {k: v for k, v in REFERENCE.items() if k != "gamma"}
        path = tmp_path / "nogamma.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in params.items()))
        assert run_cli("growth", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: validation:")

    def test_unreachable_tolerance_is_convergence_failure(
            self, reference_file, tmp_path, capsys):
        assert run_cli("growth", reference_file, "--out", tmp_path,
                       "--quad-tol", "1e-16") == 2
        assert capsys.readouterr().err.startswith("error: convergence:")

    def test_period_exhausting_costs_report_no_solution(self, tmp_path,
                                                        capsys):
        # running costs drain the stake inside one smoothing period
        path = write_scenario(tmp_path, gamma=0.9, c_r=2.0)
        assert run_cli("growth", path, "--out", tmp_path) == 3
        assert capsys.readouterr().err.startswith("error: no-solution:")

    @pytest.mark.parametrize("flags", [
        ("--grid-step", "0"), ("--grid-step", "-1"), ("--grid-step", "nan"),
        ("--grid-step", "inf"), ("--grid-max", "-1"), ("--grid-max", "nan"),
        ("--grid-max", "inf"), ("--grid-step", "1e-300"),
        ("--grid-max", "1e7"),  # one row past the 10**7 cap
    ])
    def test_bad_wait_grid_rejected(self, reference_file, tmp_path, capsys,
                                    flags):
        assert run_cli("wait", reference_file, "--out", tmp_path,
                       *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert err.count("\n") == 1
        assert not (tmp_path / "wait_grid.csv").exists()

    @pytest.mark.parametrize("seed", [-5, 2 ** 64])
    @pytest.mark.parametrize("command", ["dist", "wait", "growth",
                                         "optimize", "fee", "simulate",
                                         "verify"])
    def test_seed_out_of_range_rejected(self, reference_file, tmp_path,
                                        capsys, command, seed):
        assert run_cli(command, reference_file, "--out", tmp_path,
                       "--seed", seed) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: --seed")
        assert err.count("\n") == 1

    def test_non_finite_output_is_numeric_failure(self, tmp_path, capsys):
        # against P0 = 1e160 the win rate squared underflows, so the wait
        # variance 1/rate^2 overflows to inf before it is written
        path = write_scenario(tmp_path, P0=1e160)
        assert run_cli("wait", path, "--out", tmp_path,
                       "--grid-max", 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: non-finite value inf")
        assert err.count("\n") == 1
        assert not (tmp_path / "wait_summary.json").exists()
        assert not (tmp_path / "wait_grid.csv").exists()

    def test_underflowing_share_prints_one_error_line(self, tmp_path):
        # q = p/(P0 + p) underflows to 0: one error line naming the share,
        # and no numpy warning lines on stderr (in a child, since pytest
        # would capture them)
        path = write_scenario(tmp_path, P0=1e300, c_e=1e-300, W=1)
        result = _run_child("growth", path, "--out", tmp_path / "artifacts")
        assert result.returncode == 2
        assert result.stderr.startswith("error: numeric:")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "artifacts" / "growth.json").exists()

    @pytest.mark.parametrize("command", [
        ("growth",), ("optimize",), ("simulate", "--sim", "rounds")])
    def test_overflowing_win_rate_numerator_is_numeric_failure(
            self, tmp_path, command):
        # E p = 10 * 7.5e307 overflows though q = p/(P0 + p) is finite;
        # optimize reaches splits where P0 + p overflows first
        path = write_scenario(tmp_path, P0=1e308, W=1e308, c_e=1.5)
        result = _run_child(command[0], path, "--out",
                            tmp_path / "artifacts", *command[1:])
        assert result.returncode == 2
        assert result.stderr.startswith("error: numeric:")
        assert result.stderr.count("\n") == 1
        if command[0] != "optimize":
            assert result.stderr == ("error: numeric: E p overflows at "
                                     "E = 10.0, p = 7.5e+307\n")
        assert not (tmp_path / "artifacts").exists() or \
            not list((tmp_path / "artifacts").iterdir())

    @pytest.mark.parametrize("command", [
        ("dist",), ("wait",), ("growth",), ("optimize",), ("fee",),
        ("verify",), *(("simulate", "--sim", kind) for kind in
                       ("rounds", "epochs", "first-win", "wealth"))])
    @pytest.mark.parametrize("overrides, cause", [
        # P0 + p overflows
        ({"P0": 1e308, "W": 1e308, "gamma": 0.9, "c_e": 1.5},
         "P0 + p overflows"),
        # q = p/(P0 + p) underflows to 0; fee fails first on its split
        ({"P0": 1e300, "W": 1, "c_e": 1e-300},
         ("underflows to 0", "tau*c_e*c_r"))])
    def test_lost_share_is_numeric_failure_on_every_command(
            self, tmp_path, capsys, command, overrides, cause):
        path = write_scenario(tmp_path, **overrides)
        out = tmp_path / "artifacts"
        assert run_cli(*command[:1], path, "--out", out, *command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric:")
        assert err.count("\n") == 1
        causes = (cause,) if isinstance(cause, str) else cause
        assert any(c in err for c in causes), err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("verify",), ("simulate", "--sim", "epochs")])
    def test_dominant_miner_is_sampled(self, tmp_path, command):
        # q = 50/50.505 = 0.99 at E = 200: (1 - q)^w is below the smallest
        # normal double for the block counts w > 153 that Poisson(200)
        # draws, and the binomial tables need no such first mass
        path = write_scenario(tmp_path, E=200, P0=0.505)
        out = tmp_path / "artifacts"
        assert run_cli(*command[:1], path, "--out", out, "--samples", 20000,
                       *command[1:]) == 0
        artifacts = sorted(out.iterdir())
        assert artifacts and all(_finite_artifact(a) for a in artifacts)
        if command[0] == "verify":
            payload = read_json(out / "verify.json")
            assert payload["passed"]
            assert {row["status"] for row in payload["rows"]} <= {"PASS",
                                                                 "REPORT"}

    def test_epochs_past_the_full_support_tables_are_sampled(self, tmp_path):
        # E = 2e4: 854 distinct block counts, whose tables over 0..w would
        # hold 1.7e7 entries, past the 10^7 limit; their spans hold 2.5e6
        path = write_scenario(tmp_path, E=2e4)
        out = tmp_path / "artifacts"
        assert run_cli("simulate", path, "--out", out, "--sim", "epochs",
                       "--samples", 20000) == 0
        report = read_json(out / "simulate.json")["report"]
        want = 2e4 * 1.0 * 50.0 / 1050.0
        assert abs(report["estimate"] - want) <= 5 * report["std_error"]

    def test_sampled_reward_past_the_poisson_limit_is_refused(self, tmp_path,
                                                              capsys):
        # E q = 4.76e7 at E = 1e9: the positive Poisson reward draw's table
        # would pass the 10^7 mean limit
        path = write_scenario(tmp_path, E=1e9)
        out = tmp_path / "artifacts"
        assert run_cli("simulate", path, "--out", out, "--sim", "rounds",
                       "--reward-mode", "sampled", "--samples", 2000) == 1
        assert capsys.readouterr().err == (
            "error: validation: Poisson mean 4.7619e+07 exceeds the "
            "sampler's limit of 10000000\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_verify_needs_two_samples(self, reference_file, tmp_path,
                                      samples):
        # one sample has no standard error; numpy would warn on stderr
        result = _run_child("verify", reference_file, "--out", tmp_path,
                            "--samples", samples)
        assert result.returncode == 1
        assert result.stderr == ("error: validation: --samples must be at "
                                 "least 2 for verify\n")

    def test_overflowing_float_power_is_numeric_failure(self, tmp_path,
                                                        capsys):
        # M = 1e300: the thinned variance's M**2 raises OverflowError
        path = write_scenario(tmp_path, M=1e300)
        out = tmp_path / "artifacts"
        assert run_cli("dist", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: OverflowError")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("blocks, kind", [
        (1e300, "epochs"), (1e300, "first-win"), (1e300, "wealth"),
        (1e-300, "first-win")])
    def test_unsimulable_win_stream_is_refused(self, tmp_path, capsys,
                                               blocks, kind):
        # E = 1e300 is past the Poisson table's 10^7 mean limit; at
        # E = 1e-300 first-win's mean wait is past its 10^5-epoch limit
        path = write_scenario(tmp_path, E=blocks)
        out = tmp_path / "artifacts"
        samples = () if kind == "wealth" else ("--samples", 2000)
        assert run_cli("simulate", path, "--out", out, "--sim", kind,
                       *samples) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_fee_split_rounding_to_one_is_numeric_failure(self, tmp_path,
                                                           capsys):
        # tau c_e c_r = 1e-300: the smooth-optimal split rounds to 1.0
        path = write_scenario(tmp_path, c_r=1e-300)
        out = tmp_path / "artifacts"
        assert run_cli("fee", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: tau*c_e*c_r = 1e-300")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, drain", [("growth", "5e-321"),
                                                 ("optimize", "0.0")])
    def test_overflowing_t_max_is_numeric_failure(self, tmp_path, capsys,
                                                  command, drain):
        # gamma c_e c_r is 5e-321 at gamma = 0.5, and 0.0 at the scan's
        # first split, so t_max = (1 - gamma)/(gamma c_e c_r) is inf
        path = write_scenario(tmp_path, c_e=1e-20, c_r=1e-300)
        out = tmp_path / "artifacts"
        assert run_cli(command, path, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: numeric: gamma*c_e*c_r = {drain} is beyond double "
            f"precision: the reserve's run time t_max = "
            f"(1 - gamma)/(gamma*c_e*c_r) rounds to inf\n")
        assert list(out.iterdir()) == []

    def test_wait_rate_underflow_is_numeric_failure(self, tmp_path, capsys):
        # against P0 = 1e300 the win rate squared underflows to 0
        path = write_scenario(tmp_path, P0=1e300)
        assert run_cli("wait", path, "--out", tmp_path,
                       "--grid-max", 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: win rate")
        assert err.count("\n") == 1
        assert not (tmp_path / "wait_summary.json").exists()
        assert not (tmp_path / "wait_grid.csv").exists()

    @pytest.mark.parametrize("command", ["dist", "verify"])
    def test_huge_window_rejected_under_memory_cap(self, tmp_path, command):
        # in a child capped at 3 GB of address space, so a regression that
        # allocates the window fails here instead of exhausting the machine
        path = write_scenario(tmp_path, N=10 ** 9)
        script = ("import resource, sys\n"
                  "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, hard))\n"
                  "from minecon.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(minecon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", script, command, str(path), "--out",
             str(tmp_path / "artifacts")],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 1
        assert result.stderr.startswith("error: validation:")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv, overrides", [
        (("simulate", "--sim", "wealth", "--horizon", 10 ** 9), {}),
        # c_r = 1e-9: the drain-ruin row's path would run 1e9 epochs
        (("verify", "--samples", 2000), {"c_r": 1e-9})])
    def test_oversized_wealth_path_refused_under_memory_cap(
            self, tmp_path, argv, overrides):
        path = write_scenario(tmp_path, **overrides)
        out = tmp_path / "artifacts"
        result = _run_child(argv[0], path, "--out", out, *argv[1:])
        assert result.returncode == 1
        assert result.stderr.startswith(
            "error: validation: a wealth path of 1000000000 epochs")
        assert result.stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_quadrature_blowup_is_convergence_failure_under_memory_cap(
            self, tmp_path):
        # at --quad-tol 1e-12 this scenario's win-branch integral keeps
        # most intervals open at every level (11.7 million by 3 s without
        # a cap); the open-interval cap ends it with exit 2 well inside a
        # 1.5 GB address space
        path = write_scenario(tmp_path, E=13.040137914516626,
                              M=3.387072673501163, P0=5117.794266526807,
                              W=6077.389262852754, gamma=0.2539707959746659,
                              c_e=1.2724858899622544,
                              c_r=0.0002296703841974319)
        script = ("import resource, sys\n"
                  "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, hard))\n"
                  "from minecon.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(minecon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", script, "growth", str(path), "--out",
             str(tmp_path / "artifacts"), "--quad-tol", "1e-12"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert result.stderr.startswith(
            "error: convergence: adaptive Simpson did not reach tolerance")
        assert "over the cap of" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_dist_refuses_oversized_pmf(self, tmp_path, capsys):
        # N = 2e6 is a legal window, but its win mean 1.9e7 needs 1.9e7
        # masses
        path = write_scenario(tmp_path, E=200, N=2 * 10 ** 6)
        assert run_cli("dist", path, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: reward pmf")
        assert err.count("\n") == 1

    def test_verify_refuses_oversized_window_draws(self, tmp_path, capsys):
        # 2000 paths of N = 1e5 epochs would draw 2e8 epochs
        path = write_scenario(tmp_path, N=10 ** 5)
        assert run_cli("verify", path, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation: window rows")
        assert err.count("\n") == 1
        assert not (tmp_path / "verify.json").exists()

    def test_usage_error_exits_two(self, reference_file):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("frobnicate", reference_file)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (("frobnicate", "{scenario}"),
         "argument command: invalid choice: 'frobnicate' (choose from "
         "'dist', 'wait', 'growth', 'optimize', 'fee', 'simulate', 'verify')"),
        (("dist", "{scenario}", "--bogus"), "unrecognized arguments: --bogus"),
        # no abbreviation of --seed
        (("dist", "{scenario}", "--s", "3"), "unrecognized arguments: --s 3"),
        (("simulate", "{scenario}", "--samples", "x"),
         "argument --samples: invalid int value: 'x'"),
        (("simulate", "{scenario}", "--sim", "x"),
         "argument --sim: invalid choice: 'x' (choose from 'rounds', "
         "'epochs', 'first-win', 'wealth')"),
        (("dist",), "the following arguments are required: scenario"),
        ((), "the following arguments are required: command"),
        # a flag before the command is read as the command
        (("--seed", "1", "growth", "{scenario}"),
         "argument command: invalid choice: '1' (choose from 'dist', "
         "'wait', 'growth', 'optimize', 'fee', 'simulate', 'verify')"),
        (("growth", "{scenario}", "extra"), "unrecognized arguments: extra")],
        ids=["command", "flag", "prefix", "type", "choice", "scenario",
             "no-command", "flag-first", "extra"])
    def test_usage_errors_print_one_line(self, reference_file, tmp_path,
                                         capsys, monkeypatch, argv, message):
        # run in tmp_path, where a run that got past the parser would
        # write its artifacts by default
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*(a.format(scenario=reference_file) for a in argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == f"error: usage: {message}\n"
        assert list(tmp_path.iterdir()) == [reference_file]

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, flags in {
            "dist": ("--samples", "--quad-tol", "--grid-size"),
            "wait": ("--samples", "--quad-tol", "--grid-size"),
            "growth": ("--samples", "--grid-size", "--format"),
            "optimize": ("--samples", "--format"),
            "fee": ("--samples", "--format"),
            "simulate": ("--quad-tol", "--grid-size"),
            "verify": ("--grid-size", "--format")}.items()
        for flag in flags])
    def test_flag_the_command_does_not_read_is_refused(
            self, reference_file, tmp_path, capsys, command, flag):
        out = tmp_path / "artifacts"
        value = "json" if flag == "--format" else "5"
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, reference_file, "--out", out, flag, value)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: unrecognized arguments: {flag} {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag)
        for kind, flags in {
            "rounds": ("--horizon",),
            "epochs": ("--reward-mode", "--horizon"),
            "first-win": ("--per-trial", "--reward-mode", "--horizon"),
            "wealth": ("--samples", "--per-trial", "--reward-mode")}.items()
        for flag in flags])
    def test_flag_the_sim_kind_does_not_read_is_refused(
            self, reference_file, tmp_path, capsys, kind, flag):
        out = tmp_path / "artifacts"
        value = {"--per-trial": (), "--reward-mode": ("sampled",)}.get(
            flag, ("5",))
        with pytest.raises(SystemExit) as excinfo:
            run_cli("simulate", reference_file, "--out", out, "--sim", kind,
                    flag, *value)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: --sim {kind} does not read {flag}\n"
        assert not out.exists()

    def test_readme_flag_table_matches_parser(self):
        # the README's command -> flags table, one row per command
        readme = (Path(__file__).resolve().parents[1] / "README.md")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$",
                          readme.read_text(), flags=re.MULTILINE)
        documented = {command: set(re.findall(r"`(--[\w-]+)`", flags))
                      for command, flags in rows}
        parsed = {command: {s for a in p._actions for s in a.option_strings}
                  - {"-h", "--help", "--seed", "--out"}
                  for command, p in _subparsers(cli._build_parser()).items()}
        assert documented == parsed

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--samples", 10 ** 18), "--samples must be at most"),
        (("simulate", "--sim", "epochs", "--samples", 10 ** 7 + 1),
         "--samples must be at most"),
        (("verify", "--samples", 10 ** 18), "--samples must be at most"),
        (("optimize", "--grid-size", 10 ** 18), "grid must hold 3 to"),
        (("optimize", "--wmin", "--grid-size", 10 ** 18),
         "grid must hold 3 to"),
        (("fee", "--grid-size", 10 ** 6 + 1), "grid must hold 3 to"),
        (("fee", "--grid-size", 10 ** 18), "grid must hold 3 to")],
        ids=["simulate", "epochs-cap+1", "verify", "optimize", "wmin",
             "fee-cap+1", "fee"])
    def test_oversized_sample_and_grid_counts_refused_under_memory_cap(
            self, reference_file, tmp_path, argv, message):
        out = tmp_path / "artifacts"
        result = _run_child(argv[0], reference_file, "--out", out, *argv[1:])
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: validation: {message}")
        assert result.stderr.count("\n") == 1
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("quad_tol", ["inf", "1", "nan"])
    @pytest.mark.parametrize("command", [
        ("growth",), ("optimize",), ("fee",), ("verify", "--samples", 2000)],
        ids=lambda c: c[0])
    def test_quad_tol_outside_unit_interval_refused(
            self, reference_file, tmp_path, capsys, monkeypatch, command,
            quad_tol):
        # refused up front: verify would draw its epoch batch before the
        # growth row that reads --quad-tol
        def unreached(*args):
            raise AssertionError("drew samples before checking --quad-tol")

        monkeypatch.setattr(mcsim, "simulate_epochs", unreached)
        out = tmp_path / "artifacts"
        assert run_cli(command[0], reference_file, "--out", out,
                       "--quad-tol", quad_tol, *command[1:]) == 1
        err = capsys.readouterr().err
        assert err == "error: validation: quad_tol must lie in (0, 1)\n"
        assert not out.exists()


def _subparsers(parser):
    """command -> subparser of a parser from cli._build_parser."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# a value other than the default for every flag besides --sim
_NON_DEFAULT = {"--seed": ("7",), "--out": ("elsewhere",),
                "--samples": ("123",), "--quad-tol": ("1e-06",),
                "--grid-size": ("64",), "--format": ("json",),
                "--grid-max": ("100",), "--grid-step": ("0.5",),
                "--wmin": (), "--reward-mode": ("sampled",),
                "--horizon": ("50",), "--stream-id": ("3",),
                "--per-trial": ()}


def _every_flag_argv(command, kind=None):
    """argv setting every flag the command (or its --sim kind) reads."""
    flags = [f for f in (*cli._COMMON_FLAGS[1:], *cli._COMMANDS[command][2])
             if kind is None or kind in cli._SIM_KIND_FLAGS.get(f, (kind,))]
    argv = [command, "scenario.txt"]
    for flag in flags:
        argv += [flag, *_NON_DEFAULT.get(flag, (kind,))]
    return argv


class TestParser:
    def test_every_flag_has_a_non_default_value(self):
        assert set(_NON_DEFAULT) == set(cli._FLAGS) - {"scenario", "--sim"}

    @pytest.mark.parametrize("argv", [
        *(pytest.param([command, "scenario.txt"], id=f"{command}-minimal")
          for command in cli._COMMANDS),
        *(pytest.param(_every_flag_argv(command), id=f"{command}-every-flag")
          for command in cli._COMMANDS if command != "simulate"),
        *(pytest.param(_every_flag_argv("simulate", kind),
                       id=f"simulate-{kind}-every-flag")
          for kind in cli._FLAGS["--sim"]["choices"])])
    def test_one_command_build_parses_as_the_full_build(self, argv):
        one = cli._build_parser((argv[0],)).parse_args(argv)
        assert vars(one) == vars(cli._build_parser().parse_args(argv))

    def test_help_lists_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["-h"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in out
        assert all(help_text in out for _, help_text, _ in
                   cli._COMMANDS.values())

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_is_the_full_builds(self, capsys, monkeypatch,
                                             command):
        # argparse wraps help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "-h"])
        assert excinfo.value.code == 0
        expected = _subparsers(cli._build_parser())[command].format_help()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv, built, code", [
        (("growth", "{scenario}", "--out", "{out}"), 1, 0),
        ((), 7, 2), (("-h",), 7, 0), (("frobnicate", "{scenario}"), 7, 2),
        (("--seed", "1", "growth", "{scenario}"), 7, 2)],
        ids=["growth", "empty", "help", "unknown", "flag-first"])
    def test_only_a_named_command_builds_one_parser(
            self, reference_file, tmp_path, monkeypatch, capsys, argv,
            built, code):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            counted)
        argv = [a.format(scenario=reference_file, out=tmp_path / "out")
                for a in argv]
        try:
            exit_code = cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        assert exit_code == code
        assert len(names) == built


class TestDeterminism:
    def test_optimize_twice_is_byte_identical(self, reference_file,
                                              tmp_path):
        for name in ("a", "b"):
            assert run_cli("optimize", reference_file, "--out",
                           tmp_path / name) == 0
        assert (tmp_path / "a" / "optimize.json").read_bytes() == \
            (tmp_path / "b" / "optimize.json").read_bytes()

    def test_simulate_twice_is_byte_identical(self, reference_file,
                                              tmp_path):
        for name in ("a", "b"):
            assert run_cli("simulate", reference_file, "--out",
                           tmp_path / name, "--samples", 2000,
                           "--per-trial") == 0
        for artifact in ("simulate.json", "simulate_trials.csv"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                (tmp_path / "b" / artifact).read_bytes()

    def test_seed_changes_the_draws(self, reference_file, tmp_path):
        estimates = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert run_cli("simulate", reference_file, "--out", out,
                           "--sim", "epochs", "--samples", 2000,
                           "--seed", seed) == 0
            estimates.append(read_json(out / "simulate.json")["report"]
                             ["estimate"])
        assert estimates[0] != estimates[1]


class TestVerify:
    def test_reference_scenario_passes(self, reference_file, tmp_path,
                                       capsys):
        assert run_cli("verify", reference_file, "--out", tmp_path,
                       "--seed", 42) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert "FAIL" not in captured
        payload = read_json(tmp_path / "verify.json")
        statuses = {row["status"] for row in payload["rows"]}
        assert statuses <= {"PASS", "REPORT"}

    def test_first_win_band_survives_certain_first_epoch_wins(self,
                                                              tmp_path):
        # at E = 200 every trial wins in epoch 1, so the sample standard
        # error of the first-win mean is 0; the band must not be
        path = write_scenario(tmp_path, E=200)
        assert run_cli("verify", path, "--out", tmp_path, "--seed", 42,
                       "--samples", 50000) == 0
        rows = {row["name"]: row for row in
                read_json(tmp_path / "verify.json")["rows"]}
        assert rows["first-win-mean"]["status"] == "PASS"
        assert rows["first-win-mean"]["band"] > 0

    def test_no_win_series_row_passes_on_the_reference(self,
                                                       reference_file,
                                                       tmp_path):
        assert run_cli("verify", reference_file, "--out", tmp_path,
                       "--seed", 42) == 0
        rows = {row["name"]: row for row in
                read_json(tmp_path / "verify.json")["rows"]}
        row = rows["no-win-series"]
        assert row["status"] == "PASS"
        assert row["band"] == 1e-12
        assert row["expected"] == math.exp(-10.0 * 50.0 / 1050.0)

    def test_no_win_series_disagreement_exits_two(self, reference_file,
                                                  tmp_path, capsys,
                                                  monkeypatch):
        real = rewarddist.win_count_pmf_series
        monkeypatch.setattr(rewarddist, "win_count_pmf_series",
                            lambda v, network, share:
                            real(v, network, share) + 1e-9)
        assert run_cli("verify", reference_file, "--out", tmp_path,
                       "--seed", 42) == 2
        err = capsys.readouterr().err
        assert err == "error: convergence: 1 verification row(s) failed\n"
        rows = {row["name"]: row for row in
                read_json(tmp_path / "verify.json")["rows"]}
        assert rows["no-win-series"]["status"] == "FAIL"


    def test_drain_ruin_row_simulates_one_path(self, reference_file,
                                               tmp_path, monkeypatch):
        # with M = 0 the reserve path does not depend on the draws
        calls = []
        real = mcsim.simulate_wealth_path

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli.mcsim, "simulate_wealth_path", counted)
        assert run_cli("verify", reference_file, "--out", tmp_path,
                       "--seed", 42) == 0
        assert len(calls) == 1
        rows = {row["name"]: row for row in
                read_json(tmp_path / "verify.json")["rows"]}
        assert rows["drain-ruin-epoch"]["status"] == "PASS"
        assert rows["drain-ruin-epoch"]["observed"] == 1000

    @pytest.mark.parametrize("scale, status", [(1.0, "PASS"),
                                               (2.0, "FAIL")])
    def test_bankruptcy_row_detects_a_wrong_probability(
            self, tmp_path, monkeypatch, scale, status):
        # c_r = 0.5 makes the horizon 2 epochs and the bankruptcy
        # probability exp(-2 E q) ~ 0.386, so the first-win trials
        # measure it to about 0.01
        real = waiting.bankruptcy_probability
        monkeypatch.setattr(waiting, "bankruptcy_probability",
                            lambda *args: scale * real(*args))
        path = write_scenario(tmp_path, c_r=0.5)
        code = run_cli("verify", path, "--out", tmp_path, "--seed", 42)
        rows = {row["name"]: row for row in
                read_json(tmp_path / "verify.json")["rows"]}
        row = rows["bankruptcy-probability"]
        assert row["expected"] == pytest.approx(
            scale * math.exp(-2.0 * 10.0 * 50.0 / 1050.0), rel=1e-12)
        assert row["status"] == status
        assert code == (0 if status == "PASS" else 2)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda x: 10.0 ** x)


@st.composite
def _scenarios(draw, max_window=1000):
    # every value inside its range, or one of them set to an edge value
    # (zero, negative, non-finite, or at the ends of the double range)
    scenario = draw(st.fixed_dictionaries({
        "E": _log_uniform(0.1, 200.0), "M": st.floats(0.0, 10.0),
        "P0": _log_uniform(1.0, 1e6), "W": _log_uniform(1e-2, 1e6),
        "gamma": st.floats(1e-6, 1.0 - 1e-6),
        "c_e": _log_uniform(1e-2, 1e2), "c_r": _log_uniform(1e-5, 1.0),
        "tau": _log_uniform(1e-2, 1e2),
        "N": st.integers(1, max_window)}))
    key = draw(st.one_of(st.none(), st.sampled_from(sorted(scenario))))
    if key is not None:
        scenario[key] = draw(st.sampled_from(
            [0.0, -1.0, math.nan, math.inf, 1e-300, 1e300]))
    return scenario


# fixed examples: P0 + p overflows (p = 0.9 * 1e308 * 1.5), and
# q = p/(P0 + p) underflows to 0 (p = 5e-301 against P0 = 1e300)
_OVERFLOW = dict(REFERENCE, P0=1e308, W=1e308, gamma=0.9, c_e=1.5)
_UNDERFLOW = dict(REFERENCE, P0=1e300, W=1, c_e=1e-300)


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _finite_artifact(path) -> bool:
    if path.suffix == ".json":
        return _finite_json(json.loads(path.read_text()))
    _, rows = read_csv(path)
    return all(math.isfinite(float(cell)) for row in rows for cell in row)


def _run_scenario(scenario, command, *flags):
    """(child result, artifact names) of one CLI run on a scenario dict,
    held to the exit contract: exit 0 with only finite artifacts, or 1-3
    with one error line, no traceback and no artifact. The one failure
    that writes is verify's: rows that fail leave their verdict table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text("".join(f"{k} = {v!r}\n"
                                for k, v in scenario.items()))
        out = Path(tmp) / "artifacts"
        result = _run_child(*command, path, "--out", out, *flags)
        assert result.returncode in (0, 1, 2, 3), result.stderr
        # the callers pass only flags the command reads
        assert not result.stderr.startswith("error: usage:"), result.stderr
        artifacts = sorted(out.iterdir()) if out.exists() else []
        if result.returncode:
            assert result.stderr.startswith("error: "), result.stderr
            assert result.stderr.count("\n") == 1, result.stderr
            if result.stderr.endswith("verification row(s) failed\n"):
                assert [a.name for a in artifacts] == ["verify.json"]
                assert not read_json(artifacts[0])["passed"]
            else:
                assert artifacts == []
        else:
            assert result.stderr == ""
            assert artifacts
            for artifact in artifacts:
                assert _finite_artifact(artifact), artifact.name
        return result, [a.name for a in artifacts]


_SAMPLING_COMMANDS = [("dist",), ("wait",), ("verify",)] + [
    ("simulate", "--sim", kind)
    for kind in ("rounds", "epochs", "first-win", "wealth")]


class TestInputContract:
    @pytest.mark.parametrize("command", ["growth", "optimize", "fee"])
    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=_scenarios(), grid_size=st.integers(-2, 64),
           quad_tol=st.floats(-10.0, -3.0).map(lambda x: 10.0 ** x))
    def test_growth_commands_keep_the_exit_contract(self, command, scenario,
                                                    grid_size, quad_tol):
        # every run ends in exit 0 with one finite artifact, or in 1-3
        # with one error line and no artifact
        # growth reads no --grid-size
        flags = ["--quad-tol", repr(quad_tol)]
        if command != "growth":
            flags += ["--grid-size", grid_size]
        result, names = _run_scenario(scenario, (command,), *flags)
        if not result.returncode:
            assert names == [f"{command}.json"]

    @pytest.mark.parametrize("command", _SAMPLING_COMMANDS,
                             ids=lambda c: "-".join(c[::2]))
    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=_scenarios(max_window=200),
           samples=st.integers(-2, 2000), horizon=st.integers(-2, 2000),
           rows=st.integers(-1, 10 ** 4 - 1), step=_log_uniform(1e-2, 1e2),
           extra=st.sampled_from([(), ("--per-trial",),
                                  ("--reward-mode", "sampled",
                                   "--per-trial")]))
    @example(scenario=_OVERFLOW, samples=2000, horizon=100, rows=100,
             step=1.0, extra=())
    @example(scenario=_UNDERFLOW, samples=2000, horizon=100, rows=100,
             step=1.0, extra=())
    # E = 1e6: ~1,500 distinct block counts, whose Binomial tables' spans
    # would hold 4.0e7 entries
    @example(scenario=dict(REFERENCE, E=1e6), samples=2000, horizon=100,
             rows=100, step=1.0, extra=())
    def test_sampling_commands_keep_the_exit_contract(
            self, command, scenario, samples, horizon, rows, step, extra):
        # bounded sizes: at most 2,000 samples, N <= 200, a horizon of at
        # most 2,000 epochs and 10^4 wait grid rows
        # each --sim kind gets only the flags it reads
        kind = command[2] if command[0] == "simulate" else None
        flags = []
        if command[0] == "verify" or kind in ("rounds", "epochs",
                                              "first-win"):
            flags += ["--samples", samples]
        if command[0] == "wait":
            flags += ["--grid-max", repr(rows * step), "--grid-step",
                      repr(step)]
        if kind == "wealth":
            flags += ["--horizon", horizon]
        if kind == "rounds":
            flags += extra
        if kind == "epochs" and "--per-trial" in extra:
            flags += ["--per-trial"]
        _run_scenario(scenario, command, *flags)


def _has_mallopt():
    import ctypes
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(
            ctypes.CDLL(None), "mallopt")
    except (AttributeError, OSError, TypeError, ValueError):
        return False


class TestAllocator:
    @pytest.mark.skipif(not _has_mallopt(), reason="C library has no mallopt")
    def test_main_keeps_freed_heap(self, reference_file, tmp_path):
        # glibc's default trimming costs one reference optimize_gamma about
        # 9,000 minor faults; after main, its temporaries reuse heap pages
        script = (
            "import resource, sys\n"
            "from minecon import cli, growth, rewarddist\n"
            "if cli.main(['growth', *sys.argv[1:]]) != 0:\n"
            "    sys.exit('growth failed')\n"
            "net = rewarddist.NetworkParams(expected_blocks=10.0,\n"
            "                               block_reward=1.0, power=1000.0)\n"
            "growth.optimize_gamma(100.0, 1.0, 0.001, net)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "growth.optimize_gamma(100.0, 1.0, 0.001, net)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before)\n")
        result = _run_python(script, reference_file, "--out", tmp_path)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.split()[-1]) < 1000

    def test_import_leaves_the_allocator_alone(self):
        script = ("import ctypes, numpy\n"
                  "def record(*args):\n"
                  "    raise SystemExit('CDLL opened on import')\n"
                  "ctypes.CDLL = record\n"
                  "import minecon, minecon.cli\n")
        result = _run_python(script)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("refuses", [False, True])
    def test_main_runs_where_mallopt_is_missing_or_refuses(
            self, refuses, reference_file, tmp_path, monkeypatch, capsys):
        import ctypes
        argv = ["optimize", reference_file, "--grid-size", 64,
                "--out", tmp_path]
        assert run_cli(*argv) == 0
        artifact = tmp_path / "optimize.json"
        expected = capsys.readouterr(), artifact.read_bytes()
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 0

        libc = argparse.Namespace(**({"mallopt": mallopt} if refuses else {}))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(cli, "_heap_kept", False)
        assert run_cli(*argv) == 0
        assert (capsys.readouterr(), artifact.read_bytes()) == expected
        assert run_cli(*argv) == 0  # a process tries mallopt once
        # a refused mmap threshold leaves the trim threshold unset
        assert calls == ([(-3, 32 << 20)] if refuses and _has_mallopt()
                         else [])


class TestConsoleEntry:
    def test_module_invocation(self, reference_file, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "minecon.cli", "growth",
             str(reference_file), "--out", str(tmp_path / "artifacts")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "growth.json" in result.stdout
