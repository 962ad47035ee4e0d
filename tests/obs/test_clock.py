"""Tests for repro.obs.clock — the hybrid span clock.

The clock underpins every wall-clock stamp in the tracing stack
(span starts, exemplar timestamps), so this file pins the anchor
arithmetic, the frozen test clock, and the one process-wide default.
"""

import time

import pytest

from repro.obs import FrozenClock, HybridClock, default_clock


class TestHybridClock:
    def test_wall_of_maps_through_the_anchor(self):
        clock = HybridClock(epoch=1000.0, anchor=50.0)
        assert clock.wall_of(50.0) == 1000.0
        assert clock.wall_of(53.5) == 1003.5
        assert clock.wall_of(49.0) == 999.0

    def test_epoch_property(self):
        assert HybridClock(epoch=1234.0, anchor=0.0).epoch == 1234.0

    def test_monotonic_is_perf_counter_timebase(self):
        clock = HybridClock()
        lo = time.perf_counter()
        mono = clock.monotonic()
        hi = time.perf_counter()
        assert lo <= mono <= hi

    def test_now_tracks_real_wall_clock(self):
        clock = HybridClock()
        assert abs(clock.now() - time.time()) < 1.0

    def test_monotonic_never_steps_backwards(self):
        clock = HybridClock()
        readings = [clock.monotonic() for _ in range(100)]
        assert readings == sorted(readings)


class TestFrozenClock:
    def test_starts_at_its_epoch(self):
        clock = FrozenClock(start=500.0)
        assert clock.monotonic() == 500.0
        assert clock.now() == 500.0

    def test_advance_moves_both_faces(self):
        clock = FrozenClock(start=100.0)
        assert clock.advance(2.5) == 102.5
        assert clock.monotonic() == 102.5
        assert clock.now() == 102.5

    def test_wall_of_is_identity_on_the_counter(self):
        clock = FrozenClock(start=100.0)
        clock.advance(7.0)
        assert clock.wall_of(103.0) == 103.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="forward"):
            FrozenClock().advance(-1.0)

    def test_default_start_is_stable(self):
        # Frozen runs must be byte-identical across sessions.
        assert FrozenClock().monotonic() == 1_700_000_000.0


class TestDefaultClock:
    def test_one_real_clock_per_process(self):
        clock = default_clock()
        assert clock is default_clock()
        assert not isinstance(clock, FrozenClock)
