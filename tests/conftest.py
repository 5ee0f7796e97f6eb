"""Shared fixtures: scenario files on disk and an in-process CLI runner."""

import pytest

from minecon import cli, mcsim

REFERENCE = {"E": 10, "M": 1, "P0": 1000, "W": 100, "gamma": 0.5,
             "c_e": 1, "c_r": 0.001, "tau": 1, "N": 100}


def write_scenario(directory, name="scenario.txt", **overrides):
    params = dict(REFERENCE)
    params.update(overrides)
    path = directory / name
    lines = [f"{key} = {value}" for key, value in params.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def epochs_whole_array(network, share, config):
    """simulate_epochs' draws as one whole-array call makes them, kept as
    the oracle of its blocks: every Poisson count, then every binomial
    draw, from one generator."""
    rng = mcsim._generator(config)
    w = mcsim.poisson_sample(rng, network.expected_blocks,
                             config.sample_count)
    return w, mcsim.binomial_sample(rng, w, share.win_probability)


@pytest.fixture
def fresh_store():
    """The samplers' table store, emptied before the test and after it."""
    mcsim._Store.cache_clear()
    yield mcsim._Store
    mcsim._Store.cache_clear()


@pytest.fixture
def reference_file(tmp_path):
    return write_scenario(tmp_path)
