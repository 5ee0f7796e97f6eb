"""Times what a fresh interpreter pays before its first job.

Usage: python3 perfbench/setup_probe.py SCENARIO...

Imports ``minecon.cli`` and loads every scenario file, then prints two
floats: the seconds that took, and the median calibration-kernel time
around and during it (calibrate.py).
"""

import statistics
import sys
from time import perf_counter

import calibrate


def main(paths) -> None:
    sampler = calibrate.Sampler(interval_s=0.01)
    sampler.start()
    start = perf_counter()
    from minecon import cli
    for path in paths:
        cli.load_scenario(path)
    seconds = sampler.stop(start)
    print(repr(seconds), repr(statistics.median(sampler.samples)))


if __name__ == "__main__":
    main(sys.argv[1:])
