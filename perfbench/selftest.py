"""The benchmark's own tests, at tiny sizes (under a minute).

Run from the repository root: python3 -m pytest perfbench/selftest.py

The runs here call run.main in-process with the job list shrunk to a tiny
tour of every command; the worker still runs in its own process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
TINY = {"sweep": 2, "grid": "8", "tol": "1e-6", "wmin_grid": "8",
        "verify": "5000", "epochs": "5000", "first_win": "2000",
        "rounds": "5000", "horizon": "2000"}
CONVERGENCE = ("error: convergence: adaptive Simpson did not reach tolerance "
               "within 50 refinement levels (achieved error 9.522e-18)\n")


@pytest.fixture
def bench(monkeypatch, capsys):
    """Runs one tiny workload in-process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(workloads, "build", lambda workload, seed:
                        workloads.with_scenarios(workloads.tour(seed, TINY)))

    def call(workload, seed, trace):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)])
        out, err = capsys.readouterr()
        return code, out, err
    return call


def result_of(code, out, err):
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(bench, workload):
    result = result_of(*bench(workload, 3, 0))
    assert result["correct"] is True
    # each job counts once, however many passes fit in --seconds
    assert result["attempted"] == len(workloads.tour(3, TINY))
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_every_layer_with_identical_artifacts(bench,
                                                                 workload):
    # correct also asserts byte-identical artifacts and every layer reached
    result = result_of(*bench(workload, 4, 1))
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_one_wrong_output_is_counted_as_a_failure(bench, monkeypatch):
    original = checks._CHECKS["optimize"]

    def corrupted(sc, argv, out):
        # scale every number tour/optimize wrote by 1.01, then check
        if "--wmin" in argv:
            return original(sc, argv, out)
        path = out / "optimize.json"
        data = json.loads(path.read_text())
        path.write_text(json.dumps({k: v * 1.01 + 1e-6
                                    if isinstance(v, float) else v
                                    for k, v in data.items()}))
        return original(sc, argv, out)
    monkeypatch.setitem(checks._CHECKS, "optimize", corrupted)
    code, out, err = bench("plan", 5, 0)
    result = result_of(code, out, err)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "tour/optimize: wrong output" in err
    assert [line for line in out.splitlines()
            if line.startswith("failed job:")] == \
        ["failed job: tour/optimize (unexpected)"]
    share = [line for line in out.splitlines()
             if line.startswith("failed_share")]
    assert share and float(share[0].split()[1]) > 0


def _failure(key, code, line):
    job = workloads.Job(key, "wmin_s", tuple(REFERENCE[key]["argv"]), "s")
    return run.classify({"code": code, "stderr": line, "out": "."}, job, {},
                        REFERENCE)


def test_known_failure_counts_only_for_the_job_that_had_it():
    # the job that failed this way when the reference was recorded
    assert _failure("plan/anchor/wmin", 2, CONVERGENCE) == \
        (True, "quadrature-convergence", None)
    # a job that passed at record time, failing with a known class
    failed, kind, problem = _failure("plan/ref/optimize", 2, CONVERGENCE)
    assert failed and kind is None and problem.startswith("exit 2")
    # a job that failed at record time, but with the other class
    failed, kind, problem = _failure("window/dist-e200-n2000", 2,
                                     CONVERGENCE)
    assert failed and kind is None and problem.startswith("exit 2")
    # the right job with an error outside every known class
    failed, kind, problem = _failure("plan/anchor/wmin", 2,
                                     "error: numeric: something else\n")
    assert failed and kind is None and problem.startswith("exit 2")


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_tracer_restores_every_original():
    import minecon.cli  # noqa: F401
    import tracing
    tracer = tracing.Tracer()
    assert tracer.install(tracing.TARGETS) == []
    assert tracing.installed_wrappers()
    tracer.uninstall()
    assert tracing.installed_wrappers() == []
