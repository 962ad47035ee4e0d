"""Crash-injection suite: kill the wrapper at every persistence call
site and prove recovery is bit-identical to an uninterrupted run."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import LandlordCache
from repro.testing.faults import (
    CRASH_SITES,
    TORN_SITES,
    CrashPoint,
    SimulatedCrash,
    checkpoint,
)
from repro.testing.harness import WrapperHarness, decision_key
from repro.packages.repository import PackageIndex

SIZE = {f"p{i}": 7 + (i % 5) for i in range(16)}
SIZE_OF = PackageIndex.of(SIZE)
CAPACITY = 120
ALPHA = 0.8


def make_stream(n, seed, universe=16, lo=1, hi=4):
    """Deterministic pseudo-random request stream."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(n):
        k = int(rng.integers(lo, hi + 1))
        picks = rng.choice(universe, size=k, replace=False)
        stream.append(sorted(f"p{int(i)}" for i in picks))
    return stream


def baseline_run(stream):
    """The uninterrupted, purely in-memory reference run."""
    cache = LandlordCache(CAPACITY, ALPHA, SIZE_OF)
    decisions = [decision_key(cache.request(frozenset(s))) for s in stream]
    return decisions, cache.stats


class TestCrashPointUnit:
    def test_checkpoint_is_noop_when_disarmed(self):
        checkpoint("state:write")  # must not raise

    def test_fires_at_matching_site_only(self):
        with CrashPoint("state:synced") as cp:
            checkpoint("journal:append")
            assert not cp.fired
            with pytest.raises(SimulatedCrash):
                checkpoint("state:synced")
        assert cp.fired

    def test_fires_on_nth_hit(self):
        with CrashPoint("journal:append", hits=3) as cp:
            checkpoint("journal:append")
            checkpoint("journal:append")
            assert not cp.fired
            with pytest.raises(SimulatedCrash):
                checkpoint("journal:append")
        assert cp.fired

    def test_fires_at_most_once(self):
        with CrashPoint("journal:append") as cp:
            with pytest.raises(SimulatedCrash):
                checkpoint("journal:append")
            checkpoint("journal:append")  # already fired: no-op
        assert cp.fired

    def test_nested_arming_rejected(self):
        with CrashPoint("state:write"):
            with pytest.raises(RuntimeError, match="already armed"):
                with CrashPoint("state:torn"):
                    pass

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown crash site"):
            CrashPoint("nowhere")
        with pytest.raises(ValueError, match="hits"):
            CrashPoint("state:write", hits=0)
        with pytest.raises(ValueError, match="fraction"):
            CrashPoint("state:torn", torn=1.5)
        with pytest.raises(ValueError, match="no in-flight write"):
            CrashPoint("state:synced", torn=0.5)

    def test_error_is_raised_in_place_of_the_crash(self):
        fault = OSError(28, "No space left on device")
        with CrashPoint("journal:torn", error=fault) as cp:
            with pytest.raises(OSError) as excinfo:
                checkpoint("journal:torn")
        assert cp.fired and excinfo.value is fault

    def test_a_crash_runs_no_exception_handler(self):
        # A dead process cleans nothing up: ``except Exception`` must
        # not see the simulated death.
        with CrashPoint("state:write"):
            with pytest.raises(SimulatedCrash):
                try:
                    checkpoint("state:write")
                except Exception:  # noqa: BLE001 - the point of the test
                    pytest.fail("a simulated crash was handled")

    def test_torn_write_truncates_in_flight_bytes(self, tmp_path):
        path = tmp_path / "file.txt"
        with open(path, "w") as fh:
            fh.write("durable-prefix;")
            fh.flush()
            start = fh.tell()
            fh.write("x" * 100)
            fh.flush()
            with CrashPoint("journal:torn", torn=0.5) as cp:
                with pytest.raises(SimulatedCrash):
                    checkpoint("journal:torn", fh=fh, start=start)
        assert cp.fired
        text = path.read_text()
        assert text.startswith("durable-prefix;")
        assert len(text) == start + 50


def crash_cases():
    """Every crash site, with torn variants where a write is in flight."""
    cases = [(site, None) for site in CRASH_SITES]
    for site in TORN_SITES:
        cases.append((site, 0.3))
        cases.append((site, 0.7))
    return cases


class TestCrashRecovery:
    @pytest.mark.parametrize("site,torn", crash_cases())
    def test_every_site_recovers_identically(self, tmp_path, site, torn):
        stream = make_stream(30, seed=101)
        expected, expected_stats = baseline_run(stream)
        harness = WrapperHarness(
            tmp_path, SIZE_OF, CAPACITY, ALPHA, snapshot_every=3
        )
        got = harness.run(stream, crash_site=site, crash_at=7, torn=torn)
        assert got == expected
        final, _, _ = harness._recover()
        assert final.stats == expected_stats

    @pytest.mark.parametrize("site", ["journal:synced", "state:write"])
    def test_repeated_crashes_along_one_stream(self, tmp_path, site):
        stream = make_stream(24, seed=202)
        expected, expected_stats = baseline_run(stream)
        harness = WrapperHarness(
            tmp_path, SIZE_OF, CAPACITY, ALPHA, snapshot_every=2
        )
        # crash over and over at successive instants, recovering between
        for crash_at in (0, 5, 11, 17):
            try:
                with CrashPoint(site):
                    while True:
                        done = harness.processed_requests()
                        if done > crash_at or done >= len(stream):
                            break
                        harness.submit(stream[done])
            except SimulatedCrash:
                pass
        got = harness.run(stream)  # finish cleanly
        assert got == expected
        final, _, _ = harness._recover()
        assert final.stats == expected_stats

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        site=st.sampled_from(CRASH_SITES),
        crash_at=st.integers(0, 19),
        torn=st.sampled_from([None, 0.2, 0.8]),
    )
    def test_random_streams_random_crashes(self, seed, site, crash_at, torn):
        if torn is not None and site not in TORN_SITES:
            torn = None
        stream = make_stream(20, seed=seed)
        expected, expected_stats = baseline_run(stream)
        with tempfile.TemporaryDirectory() as tmp:
            harness = WrapperHarness(
                Path(tmp), SIZE_OF, CAPACITY, ALPHA,
                snapshot_every=1 + seed % 4,
            )
            got = harness.run(
                stream, crash_site=site, crash_at=crash_at, torn=torn
            )
            assert got == expected
            final, _, _ = harness._recover()
            assert final.stats == expected_stats


@pytest.fixture(scope="module")
def thousand_stream():
    return make_stream(1000, seed=42)


@pytest.fixture(scope="module")
def thousand_baseline(thousand_stream):
    return baseline_run(thousand_stream)


class TestThousandRequestAcceptance:
    """The acceptance criterion: a 1k-request run crashed at every
    persistence call site recovers bit-identically."""

    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_1k_run_survives_crash_at(
        self, tmp_path, site, thousand_stream, thousand_baseline
    ):
        expected, expected_stats = thousand_baseline
        torn = 0.5 if site in TORN_SITES else None
        harness = WrapperHarness(
            tmp_path, SIZE_OF, CAPACITY, ALPHA, snapshot_every=25
        )
        got = harness.run(
            thousand_stream, crash_site=site, crash_at=500, torn=torn
        )
        assert got == expected
        final, _, _ = harness._recover()
        assert final.stats == expected_stats
