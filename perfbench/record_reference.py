"""Regenerates reference.json: exit codes and key outputs of pinned jobs.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/record_reference.py

Pinned jobs do not depend on the run seed, so one run of each records what
every benchmark run compares against. Run it only at a commit whose
outputs are the intended reference; reference.json records the commit
that added the benchmark.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from minecon import cli

import checks
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            scenarios, jobs = workloads.build(workload, seed=0)
            for job in jobs:
                if not job.pinned or job.key in reference:
                    continue
                path = tmp / f"{job.scenario}.txt"
                path.write_text(workloads.scenario_text(scenarios[job.scenario]))
                out = tmp / job.key.replace("/", "_")
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main([job.argv[0], str(path), *job.argv[1:],
                                     "--out", str(out)])
                entry = {"argv": list(job.argv), "scenario": job.scenario,
                         "expected_exit": 0, "exit_at_record": code}
                if code == 0:
                    entry["outputs"] = checks.key_outputs(list(job.argv), out)
                else:
                    entry["error_at_record"] = err.getvalue().strip()
                reference[job.key] = entry
                print(job.key, code, file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
