"""Tests for the merge-write-mode ablation knob (full vs delta rewrite)."""

import pytest

from repro.core.cache import LandlordCache
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 10 for i in range(20)}
SIZE_OF = PackageIndex.of(SIZE)


def cache(mode):
    return LandlordCache(10_000, 0.9, SIZE_OF,
                         merge_write_mode=mode)


class TestMergeWriteMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="merge_write_mode"):
            cache("incremental")

    def test_full_mode_rewrites_whole_image(self):
        c = cache("full")
        c.request(frozenset({"p0", "p1", "p2"}))  # 30 written
        c.request(frozenset({"p0", "p1", "p3"}))  # merge -> 40 rewritten
        assert c.stats.bytes_written == 30 + 40

    def test_delta_mode_writes_only_added_content(self):
        c = cache("delta")
        c.request(frozenset({"p0", "p1", "p2"}))  # 30 written
        c.request(frozenset({"p0", "p1", "p3"}))  # merge adds p3 -> +10
        assert c.stats.bytes_written == 30 + 10

    def test_modes_agree_on_everything_but_writes(self):
        streams = [
            frozenset({"p0", "p1", "p2"}),
            frozenset({"p0", "p1", "p3"}),
            frozenset({"p4", "p5"}),
            frozenset({"p0", "p1"}),
        ]
        full, delta = cache("full"), cache("delta")
        for spec in streams:
            a = full.request(spec)
            b = delta.request(spec)
            assert a.action == b.action
            assert a.image.packages == b.image.packages
        assert full.cached_bytes == delta.cached_bytes
        assert full.unique_bytes == delta.unique_bytes
        assert full.stats.merges == delta.stats.merges
        assert full.stats.bytes_written > delta.stats.bytes_written

    def test_delta_write_amplification_stays_near_one(self, small_sft):
        """The mechanism ablation: with delta writes, even lax alpha does
        not inflate I/O — Figure 4c's blow-up is the full rewrite."""
        from repro.htc.simulator import SimulationConfig, simulate
        from repro.util.units import GB

        base = SimulationConfig(
            alpha=0.9, capacity=90 * GB, n_unique=40, repeats=4,
            max_selection=10, n_packages=600, repo_total_size=45 * GB,
            seed=3, record_timeline=False,
        )
        full = simulate(base, repository=small_sft)
        delta = simulate(base.with_(merge_write_mode="delta"),
                         repository=small_sft)
        assert delta.stats.write_amplification < 1.0
        assert full.stats.write_amplification > delta.stats.write_amplification
