"""The claims ledger: EXPERIMENTS.md's statements, executed at quick scale.

Tiny-scale shape assertions live next to each experiment; this module
re-verifies the central quantitative claims at the default (quick) scale so
a calibration regression that only manifests beyond tiny cannot slip
through.  Marked slow; deselect with ``-m 'not slow'``.
"""

import numpy as np
import pytest

from repro.analysis.efficiency import find_operational_zone
from repro.analysis.sweep import alpha_sweep
from repro.experiments.common import QUICK, base_config
from repro.packages.sft import build_experiment_repository

pytestmark = pytest.mark.slow

SEED = 2020


@pytest.fixture(scope="module")
def quick_repo():
    return build_experiment_repository(
        "sft", seed=SEED, n_packages=QUICK.n_packages,
        target_total_size=QUICK.repo_total_size,
    )


@pytest.fixture(scope="module")
def quick_sweep():
    return alpha_sweep(
        base_config(QUICK, seed=SEED),
        alphas=QUICK.alphas(),
        repetitions=QUICK.repetitions,
    )


class TestFig4Claims:
    def test_lru_regime_has_no_merges(self, quick_sweep):
        assert quick_sweep.metric("merges")[0] == 0

    def test_inserts_and_deletes_in_lockstep_at_low_alpha(self, quick_sweep):
        inserts = quick_sweep.metric("inserts")[0]
        deletes = quick_sweep.metric("deletes")[0]
        assert 0 < deletes <= inserts <= deletes * 1.2

    def test_merge_collapse_at_alpha_one(self, quick_sweep):
        merges = quick_sweep.metric("merges")
        assert merges[-1] < 0.5 * merges.max()

    def test_unique_meets_total_at_alpha_one(self, quick_sweep):
        unique = quick_sweep.metric("unique_bytes")[-1]
        total = quick_sweep.metric("cached_bytes")[-1]
        assert unique == pytest.approx(total, rel=0.01)

    def test_write_amplification_exceeds_one_at_high_alpha(self, quick_sweep):
        wamp = quick_sweep.metric("write_amplification")
        assert wamp[:3].max() < 1.0  # hits keep low-alpha below requested
        assert wamp.max() > 1.3


class TestFig8Claims:
    def test_operational_zone_contains_recommended_alpha(self, quick_sweep):
        zone = find_operational_zone(quick_sweep)
        assert zone.valid
        assert zone.contains(0.8) or abs(zone.lower - 0.8) <= 0.05

    def test_extremes_excluded(self, quick_sweep):
        zone = find_operational_zone(quick_sweep)
        assert zone.lower > 0.4
        # α=1 violates the container-efficiency floor
        assert quick_sweep.metric("container_efficiency")[-1] < 0.2


class TestFig3Claims:
    def test_five_x_amplification_for_small_selections(self, quick_repo):
        from repro.analysis.calibration import closure_amplification

        # ~1% of the repository, the paper's "less than 100 packages" regime
        amp = closure_amplification(
            quick_repo, selection_size=QUICK.n_packages // 100, trials=25,
            seed=SEED,
        )
        assert 3.0 < amp < 9.0

    def test_amplification_monotone_decay(self, quick_repo):
        from repro.analysis.calibration import closure_amplification

        sizes = [20, 80, 320]
        amps = [
            closure_amplification(quick_repo, s, trials=15, seed=SEED)
            for s in sizes
        ]
        assert amps[0] > amps[1] > amps[2]
