"""Tests for how sweep workers get their repository
(repro.parallel.simulations).

A worker warms up one of two ways, both exercised here:

- fork platforms: the parent builds and fully warms the repository
  (``warm_closures``) *before* the executor forks, so workers inherit
  the closure memo and their initializer is a no-op; the parent lets
  go of it again when the pool closes;
- spawn platforms (macOS, Windows): each worker rebuilds the
  repository from its :class:`RepositorySpec`, run end to end here in
  a subprocess with the fork context forced off.

Either way the simulation results must stay bit-identical to the
serial path — the inherited state is a pure warm-up optimisation,
never an input.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sweep import alpha_sweep
from repro.htc.simulator import SimulationConfig
from repro.parallel import RepositorySpec, SimulationPool
from repro.parallel.simulations import (
    _WORKER_REPOSITORY,
    _init_simulation_worker,
)
from repro.util.units import GB


def tiny_config(**kw):
    base = dict(
        capacity=20 * GB, n_unique=15, repeats=3, max_selection=6,
        n_packages=300, repo_total_size=10 * GB, seed=4,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestPackedClosures:
    def test_warm_closures_memoises_everything(self):
        repo = RepositorySpec.from_config(tiny_config()).build()
        repo.warm_closures()
        assert set(repo._closures) == set(repo.ids)


class TestWorkerInitializer:
    def test_inherited_warm_repository_is_kept(self):
        spec = RepositorySpec.from_config(tiny_config())
        repo = spec.build()
        old = _WORKER_REPOSITORY[:]
        try:
            _WORKER_REPOSITORY[0] = spec
            _WORKER_REPOSITORY[1] = repo
            _init_simulation_worker(spec)
            # same object: the pre-installed repository was not rebuilt
            assert _WORKER_REPOSITORY[1] is repo
        finally:
            _WORKER_REPOSITORY[0] = old[0]
            _WORKER_REPOSITORY[1] = old[1]


class TestPoolSharedUniverse:
    def test_parallel_pool_reports_shared_universe(self):
        config = tiny_config()
        with SimulationPool(RepositorySpec.from_config(config), 2) as pool:
            if not pool.parallel:
                pytest.skip("platform cannot start worker processes")
            assert pool.shared_universe

    def test_serial_pool_has_no_shared_universe(self):
        with SimulationPool(RepositorySpec.from_config(tiny_config()), 1) as pool:
            assert not pool.shared_universe

    def test_shared_universe_sweep_bit_identical_to_serial(self):
        config = tiny_config()
        spec = RepositorySpec.from_config(config)
        with SimulationPool(spec, workers=2) as pool:
            parallel = alpha_sweep(
                config, alphas=[0.5, 0.8], repetitions=2, pool=pool
            )
        serial = alpha_sweep(
            config, alphas=[0.5, 0.8], repetitions=2, workers=1
        )
        for name in serial.raw:
            assert np.array_equal(serial.raw[name], parallel.raw[name])

    def test_close_releases_the_parents_repository(self):
        spec = RepositorySpec.from_config(tiny_config())
        with SimulationPool(spec, 2) as pool:
            if not pool.shared_universe:
                pytest.skip("no fork: the parent installs nothing")
            assert _WORKER_REPOSITORY[1] is pool._repository()
        assert _WORKER_REPOSITORY == [None, None]

    def test_close_leaves_a_later_pools_repository(self):
        spec = RepositorySpec.from_config(tiny_config())
        with SimulationPool(spec, 2) as first:
            if not first.shared_universe:
                pytest.skip("no fork: the parent installs nothing")
            with SimulationPool(spec, 2) as second:
                first.close()
                assert _WORKER_REPOSITORY[1] is second._repository()
        assert _WORKER_REPOSITORY == [None, None]


SRC = str(Path(__file__).resolve().parents[2] / "src")

# Runs a 2-worker sweep on real spawn workers: the pool's executor gets
# the spawn context and the simulation pool sees no fork, as on macOS
# and Windows.  The config is tiny_config(); the sweep's raw arrays go
# to the path in argv[1].
SPAWN_SWEEP = """
import multiprocessing, sys
import numpy as np
from repro.analysis.sweep import alpha_sweep
from repro.htc.simulator import SimulationConfig
from repro.parallel import RepositorySpec, SimulationPool, pool, simulations
from repro.util.units import GB

spawn = multiprocessing.get_context("spawn")
pool._mp_context = lambda: spawn
simulations._mp_context = lambda: None
config = SimulationConfig(
    capacity=20 * GB, n_unique=15, repeats=3, max_selection=6,
    n_packages=300, repo_total_size=10 * GB, seed=4,
)
with SimulationPool(RepositorySpec.from_config(config), 2) as sims:
    assert sims.parallel
    result = alpha_sweep(config, alphas=[0.5, 0.8], repetitions=2, pool=sims)
np.savez(sys.argv[1], **result.raw)
"""


class TestSpawnWorkers:
    def test_spawn_sweep_equals_serial_with_a_clean_stderr(self, tmp_path):
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        out = tmp_path / "raw.npz"
        run = subprocess.run(
            [sys.executable, "-c", SPAWN_SWEEP, str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr
        parallel = np.load(out)
        serial = alpha_sweep(
            tiny_config(), alphas=[0.5, 0.8], repetitions=2, workers=1
        )
        assert sorted(parallel.files) == sorted(serial.raw)
        for name in serial.raw:
            assert np.array_equal(serial.raw[name], parallel[name])
