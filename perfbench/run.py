"""minecon benchmark: one workload per run, printed as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: the median of several fresh
interpreters' set-up, then the job list repeated while another pass fits in
--seconds; each job's time is calibrated to a reference machine speed
(README.md) and its median over passes summed per command. --trace 1 runs
one untraced pass (without the jobs too long to repeat) and one traced
pass and reports the per-layer metrics. Each job's artifacts are checked
after the timed region; the last line of standard output is {"correct",
"attempted", "failed", "metrics"}. A run record with machine facts and
per-job times goes to .perfbench_runs/.
"""

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150.0

UNITS = {"peak_rss_mb": "MB", "failed_share": "1",
         "quadrature.err_ratio_max": "ratio",
         "mcsim.poisson.ns_per_draw": "ns", "mcsim.binomial.ns_per_draw": "ns",
         "mcsim.exponential.ns_per_draw": "ns", "cli.artifact_bytes": "bytes"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # a single client: no BLAS or OpenMP thread pools either
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(argv, env, timeout):
    # subprocess.run kills the child and waits for it on timeout
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)


def measure_setup(paths, env) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = _run_child([sys.executable, str(HERE / "setup_probe.py"),
                           *map(str, paths)], env, 60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds, probe = map(float, done.stdout.split())
        samples.append(seconds * calibrate.REF_S / probe)
    return samples


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu,
            "platform": platform.platform()}


def scaled_seconds(record) -> float:
    """A job's time at the reference speed of the calibration kernel."""
    return record["seconds"] * calibrate.REF_S / statistics.median(
        record["probes"])


def known_failure(record, entry) -> str | None:
    """The KNOWN_FAILURES class of a failed job, or None.

    A class counts only for a job that reference.json records failing with
    it, with the same exit code, at the commit that added the benchmark.
    """
    first = record["stderr"].strip().splitlines()[:1]
    recorded = entry.get("error_at_record", "").splitlines()[:1]
    for name, (code, pattern) in workloads.KNOWN_FAILURES.items():
        if record["code"] == code == entry.get("exit_at_record") \
                and first and pattern.match(first[0]) \
                and recorded and pattern.match(recorded[0]):
            return name
    return None


def classify(record, job, scenario, reference) -> tuple:
    """(failed, known failure class or None, problem or None) for one job."""
    if record["code"] == 0:
        try:
            checks.check_job(job, scenario, Path(record["out"]), reference)
        except checks.Mismatch as exc:
            return True, None, f"wrong output: {exc}"
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return True, None, f"malformed output: {exc!r}"
        return False, None, None
    known = known_failure(record, reference.get(job.key, {}))
    if known:
        return True, known, None
    return True, None, (f"exit {record['code']}: "
                        f"{record['stderr'].strip()[-300:]}")


def _digest(out: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def same_artifacts(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between two output trees."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return sorted(set(map(str, names_a)) ^ set(map(str, names_b)))
    return [str(n) for n in names_a
            if not filecmp.cmp(a / n, b / n, shallow=False)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "minecon" / "cli.py").is_file():
        print(f"error: no minecon sources under {src}", file=sys.stderr)
        return 2
    env = _child_env(src)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, src, env, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, src, env, work, tag) -> int:
    scenarios, jobs = workloads.build(args.workload, args.seed)
    (work / "scenarios").mkdir(parents=True)
    paths = {}
    for name, data in scenarios.items():
        paths[name] = work / "scenarios" / f"{name}.txt"
        paths[name].write_text(workloads.scenario_text(data))

    setup = measure_setup(paths.values(), env) if not args.trace else []
    spec = {"src": str(src), "out_root": str(work / "out"),
            "seconds": args.seconds, "trace": bool(args.trace),
            "jobs": [{"key": j.key, "metric": j.metric, "argv": list(j.argv),
                      "scenario_path": str(paths[j.scenario]),
                      "once": j.once} for j in jobs]}
    (work / "spec.json").write_text(json.dumps(spec))
    done = _run_child([sys.executable, str(HERE / "worker.py"),
                       str(work / "spec.json"), str(work / "result.json")],
                      env, WORKER_TIMEOUT_S)
    if done.returncode != 0:
        print(f"error: worker exited {done.returncode}: "
              f"{done.stderr.strip()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    # -- checks, outside every timed region --------------------------------
    reference = json.loads((HERE / "reference.json").read_text())
    passes = result["passes"] + ([result["traced"]] if args.trace else [])
    by_key = {job.key: job for job in jobs}
    runs = failed_runs = 0
    failures, problems, verdicts = {}, [], {}
    for run in passes:
        for record in run["jobs"]:
            job = by_key[record["key"]]
            runs += 1
            # pinned jobs repeat their artifacts byte for byte across
            # passes; check each distinct set once
            digest = (job.key, record["code"], record["stderr"],
                      _digest(Path(record["out"])))
            if digest not in verdicts:
                verdicts[digest] = classify(record, job,
                                            scenarios[job.scenario],
                                            reference)
            bad, known, problem = verdicts[digest]
            record["failed"] = bad
            if bad:
                failed_runs += 1
                failures.setdefault(job.key, known or "unexpected")
            if problem:
                problems.append(f"{job.key}: {problem}")
    if args.trace:
        # the untraced pass skips the `once` jobs; compare the rest
        for job_dir in sorted((work / "out" / "untraced").iterdir()):
            for diff in same_artifacts(job_dir, work / "out" / "traced"
                                       / job_dir.name):
                problems.append(f"traced artifact differs: "
                                f"{job_dir.name}/{diff}")
        if result["missing"]:
            problems.append(f"trace targets missing: {result['missing']}")
        unreached = [k for k, calls in result["reached"].items() if not calls]
        if unreached:
            problems.append(f"traced pass never reached: {unreached}")

    # -- metrics -------------------------------------------------------------
    if args.trace:
        traced, plain = result["traced"], result["passes"][0]
        metrics = dict(result["layers"])
        metrics["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in (work / "out" / "traced").rglob("*")
            if p.is_file())
        both = {r["key"] for r in plain["jobs"]}
        metrics["trace.overhead_s"] = (
            math.fsum(scaled_seconds(r) for r in traced["jobs"]
                      if r["key"] in both)
            - math.fsum(map(scaled_seconds, plain["jobs"])))
    else:
        # scaling each job by the calibration kernel timed around and
        # during it removes most of the machine's speed swings, and the
        # median over passes most of the rest
        scaled = {}
        for p in result["passes"]:
            for r in p["jobs"]:
                scaled.setdefault(r["key"], []).append(scaled_seconds(r))
        per_job = {key: statistics.median(v) for key, v in scaled.items()}
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": math.fsum(per_job.values()),
                   "peak_rss_mb": result["peak_rss_mb"]}
        for name in workloads.PER_COMMAND:
            metrics[name] = math.fsum(per_job[j.key] for j in jobs
                                      if j.metric == name)
    # a job counts once, failed if any of its runs failed: how many passes
    # fit in --seconds varies with the machine's speed, the job list does not
    attempted, failed = len(jobs), len(failures)
    failed_share = failed / attempted

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_facts(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "setup_samples_s": setup, "peak_rss_mb": result["peak_rss_mb"],
        "jobs_per_command": {name: sum(1 for j in jobs if j.metric == name)
                             for name in workloads.PER_COMMAND},
        "passes": [[{k: r[k] for k in ("key", "metric", "code", "seconds",
                                        "failed", "probes")}
                    for r in p["jobs"]]
                   for p in passes],
        "attempted": attempted, "failed": failed,
        "job_runs": runs, "failed_job_runs": failed_runs,
        "failed_share": failed_share, "failed_jobs": failures,
        "problems": problems, "metrics": metrics,
    }
    records = ROOT / ".perfbench_runs"
    records.mkdir(exist_ok=True)
    # one file per run, so that runs with the same seed never overwrite
    # each other
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (records / f"{tag}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name in metrics:
        print(f"{name:34s} {metrics[name]!r:>24} {unit_of(name)}")
    print(f"{'failed_share':34s} {failed_share!r:>24} 1  "
          f"({failed} of {attempted} jobs)")
    for key, kind in failures.items():
        print(f"failed job: {key} ({kind})")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
