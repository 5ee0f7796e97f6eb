"""Runs one workload's job list in-process, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the jobs, the scenario files, the output root, the time
budget and whether to trace. One client calls ``minecon.cli.main`` for each
job in turn, with no threads or pools. Untraced mode runs every job once,
then repeats the jobs not marked ``once`` while another pass fits in the
budget (time spent in ``once`` jobs does not count against it); traced
mode runs one untraced pass without the ``once`` jobs, then one traced pass
of every job. Correctness is checked later, by run.py, from the artifacts
each job leaves in its own output directory.
"""

import contextlib
import io
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

SAMPLE_INTERVAL_S = 0.02
# address-space cap: a runaway job fails with MemoryError instead of
# exhausting a machine shared with other work (the largest job needs 0.7 GB)
ADDRESS_SPACE_BYTES = 3 << 30


def _clear_caches(modules) -> None:
    # every CLI call starts in a fresh process, with empty memo tables
    for module in modules:
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_pass(cli, modules, jobs, out_root: Path, tracer=None) -> dict:
    # no kernel runs inside traced jobs, where they would land in spans
    sampler = calibrate.Sampler(None if tracer else SAMPLE_INTERVAL_S)
    records = []
    for index, job in jobs:
        out = out_root / f"{index:03d}"
        argv = [job["argv"][0], job["scenario_path"], *job["argv"][1:],
                "--out", str(out)]
        _clear_caches(modules)
        if tracer is not None:
            tracer.job = index
        stdout, stderr = io.StringIO(), io.StringIO()
        sampler.start()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):
                code = None
                traceback.print_exc()
        seconds = sampler.stop(t0)
        records.append({"key": job["key"], "metric": job["metric"],
                        "code": code, "seconds": seconds, "out": str(out),
                        "probes": sampler.samples,
                        "stderr": stderr.getvalue()[-2000:]})
    return {"jobs": records}


def _cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY \
        else min(ADDRESS_SPACE_BYTES, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    _cap_address_space()
    import minecon.cli as cli
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported minecon from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 1
    import tracing
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "minecon"
                                     or n.startswith("minecon."))]
    jobs = list(enumerate(spec["jobs"]))
    repeated = [(i, job) for i, job in jobs if not job["once"]]
    repeated_keys = {job["key"] for _, job in repeated}
    out_root = Path(spec["out_root"])
    result = {"passes": []}

    def untraced(tag, subset):
        stray = tracing.installed_wrappers()
        outcome = run_pass(cli, modules, subset, out_root / tag)
        stray += tracing.installed_wrappers()
        if stray:
            raise RuntimeError(f"wrappers installed in an untraced pass: "
                               f"{sorted(set(stray))}")
        return outcome

    if not spec["trace"]:
        budget = 0.0
        while True:
            tag = f"pass{len(result['passes'])}"
            done = untraced(tag, repeated if result["passes"] else jobs)
            result["passes"].append(done)
            budget += math.fsum(r["seconds"] for r in done["jobs"]
                                if r["key"] in repeated_keys)
            if not repeated or \
                    budget * (1 + 1 / len(result["passes"])) > spec["seconds"]:
                break
    else:
        # the traced artifacts are compared with these; the `once` jobs
        # are left out here, because running them twice would not fit
        result["passes"].append(untraced("untraced", repeated))
        tracer = tracing.Tracer()
        missing = tracer.install(tracing.TARGETS)
        try:
            traced = run_pass(cli, modules, jobs, out_root / "traced", tracer)
        finally:
            tracer.uninstall()
        metrics, reached = tracing.layer_metrics(
            tracer, [job["metric"] for _, job in jobs])
        result["traced"] = traced
        result["layers"] = metrics
        result["reached"] = reached
        result["missing"] = missing
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
