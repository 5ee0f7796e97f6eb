"""Shared fixtures: scenario files on disk and an in-process CLI runner."""

import numpy as np
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


def first_win_epochs_whole_array(network, share, config):
    """estimate_first_win_time's epochs as it drew each stage in one array,
    kept as the oracle of its histogram: the epoch-1 sweep, then K and the
    Gamma draws of the trials it lost; one int64 epoch per trial."""
    e, q = network.expected_blocks, share.win_probability
    rng = mcsim._generator(config)
    n = config.sample_count
    w = mcsim.poisson_sample(rng, e, n)
    win_given_w = mcsim._win_given_w(w, q) if q < 1.0 else w > 0
    lost = np.flatnonzero(~(rng.random(n) < win_given_w))
    blocks = mcsim.gamma_sample(
        rng, mcsim._first_won_block(rng.random(lost.size), q))
    epochs = np.ones(n, dtype=np.int64)
    epochs[lost] += np.ceil(blocks / e).astype(np.int64)
    return epochs


@pytest.fixture
def fresh_store():
    """The samplers' table store, emptied before the test and after it."""
    mcsim._Store.cache_clear()
    yield mcsim._Store
    mcsim._Store.cache_clear()


@pytest.fixture
def reference_file(tmp_path):
    return write_scenario(tmp_path)
