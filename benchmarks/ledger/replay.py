"""``replay_zone`` and ``replay_wide``: the decision kernel, in process."""

from __future__ import annotations

from typing import Dict, List, Optional

from harness import clock, digest, percentile, proc_status_mb
from workload import (
    ZONE_ALPHA, ZONE_CAPACITY, Workload, cache_layer_times,
    counts_of, decisions_add_up, pretty_json, registry_sums,
)

from repro.core.cache import LandlordCache
from repro.core.persistence import save_state
from repro.obs import MetricsRegistry

UNBOUNDED = 10 ** 18
WINDOW = 256               # submit_batch window == the daemon's --max-batch
ENGINE_CHECK_REQUESTS = 1500


class Replay(Workload):
    """An in-process ``LandlordCache`` fed the whole stream, once per lap."""

    capacity = 0
    alpha = 0.0
    batched = False

    def prepare(self) -> None:
        self.first_digests: List[str] = []  # per stream, of its first lap

    def new_cache(self, registry=None, engine="vectorized") -> LandlordCache:
        return LandlordCache(self.capacity, self.alpha, self.repo.size_of,
                             metrics=registry, engine=engine)

    def drive(self, cache: LandlordCache, specs) -> List[tuple]:
        """Feed ``specs``; returns ``(start, end)`` of every call."""
        calls = []
        after = self.speed.after
        if self.batched:
            for i in range(0, len(specs), WINDOW):
                t0 = clock()
                cache.submit_batch(specs[i:i + WINDOW], batch_size=WINDOW)
                t1 = clock()
                calls.append((t0, t1))
                after(t1 - t0)
        else:
            for spec in specs:
                t0 = clock()
                cache.request(spec)
                t1 = clock()
                calls.append((t0, t1))
                after(t1 - t0)
        return calls

    def lap(self, index: int, traced: bool) -> dict:
        self.cache = None  # let the previous lap's cache go first
        registry = MetricsRegistry() if traced else None
        rss_before = proc_status_mb("VmRSS")
        self.cache = cache = self.new_cache(registry)
        specs = self.streams_of_specs[index % self.streams]
        cpu = self.cpu_s()
        calls = self.drive(cache, specs)
        cpu = self.cpu_s() - cpu
        self.attempted += len(specs)
        latencies = [end - start for start, end in calls]
        lap = {
            "traced": traced,
            "ops": len(specs),
            "wall_s": sum(latencies),  # the reference passes between are not
            "cpu_s": cpu,
            "latencies": latencies,
            "counts": counts_of(cache),
        }
        if index == 0:
            # Only the first lap grows the heap from nothing; later laps
            # reuse what the previous cache freed.
            images = lap["counts"]["core.cache.live_images"]
            growth = proc_status_mb("VmRSS") - rss_before
            self.layer["core.cache.bytes_per_image"] = (
                growth * 2 ** 20 / images if images else 0.0)
            t0 = clock()
            cache.snapshot()
            self.layer["core.cache.snapshot_ms"] = (clock() - t0) * 1e3
        if index < self.streams:
            self.first_digests.append(digest(cache.snapshot()))
        if traced:
            lap["registry"] = registry.snapshot()
            lap["calls"] = calls
        return lap

    def finish(self) -> None:
        for i, lap in enumerate(self.laps):
            self.checks.check(
                f"{self.name}.decisions_add_up[{i}]",
                decisions_add_up(lap["counts"], lap["ops"]),
                "hits + merges + inserts != requests")
        self.check_laps_agree()
        last_digest = digest(self.cache.snapshot())
        first_digest = self.first_digests[self.laps[-1]["stream"]]
        self.checks.check(
            f"{self.name}.first_and_last_lap_state",
            last_digest == first_digest,
            f"{first_digest[:12]} != {last_digest[:12]}")
        prefix = self.specs[:ENGINE_CHECK_REQUESTS]
        states = []
        for engine in ("naive", "vectorized"):
            cache = self.new_cache(engine=engine)
            for spec in prefix:
                cache.request(spec)
            states.append(digest(cache.snapshot()))
        self.checks.check(
            f"{self.name}.engines_agree", states[0] == states[1],
            f"naive {states[0][:12]} != vectorized {states[1][:12]} after "
            f"{len(prefix)} requests")
        image = self.work.fresh("image")
        save_state(image / "state.json", self.cache, {"ledger": self.name})
        self.recover(image, last_digest, 0)

    def state_digest(self) -> Optional[str]:
        return self.first_digests[0]

    def per_layer(self) -> Dict[str, float]:
        out = super().per_layer()
        out.update(self.fingerprint())
        lap = self.fastest_traced_lap()
        if lap is None:
            return out
        out.update(self.layer_times(lap))
        unit, scale = ("window_ms", 1e3) if self.batched else ("request_us", 1e6)
        out[f"core.cache.{unit}_p50"] = percentile(lap["latencies"], 50) * scale
        out[f"core.cache.{unit}_p99"] = percentile(lap["latencies"], 99) * scale
        self.artifacts["registry.json"] = pretty_json(lap["registry"])
        name = "core.cache.submit_batch" if self.batched else "core.cache.request"
        calls = lap["calls"]
        parent = self.spans.add("lap", calls[0][0], calls[-1][1], None, "fastest")
        for i, (start, end) in enumerate(calls):
            self.spans.add(name, start, end, parent, i)
        return out

    @staticmethod
    def layer_times(lap: dict) -> Dict[str, float]:
        """Seconds of one traced lap in each kernel layer."""
        sums = registry_sums(lap["registry"])
        times = cache_layer_times(sums)
        # What the cache's own request timer does not see: interning and
        # window prediction in submit_batch, the lock, the call itself.
        times["core.cache.outside_request_s"] = (
            sum(lap["latencies"]) - sums("landlord_request_seconds"))
        return times

    def reconcile(self) -> Optional[dict]:
        lap = self.fastest_traced_lap()
        if lap is None:
            return None
        return {"what": "the fastest traced lap", "total_s": lap["wall_s"],
                "parts": self.layer_times(lap)}


class ReplayZone(Replay):
    name = "replay_zone"
    unique, repeats = 600, 3
    capacity, alpha, batched = ZONE_CAPACITY, ZONE_ALPHA, False


class ReplayWide(Replay):
    name = "replay_wide"
    unique, repeats = 1000, 5
    # How costly a wide replay is depends on which specs were drawn: one
    # stream in five was measured a quarter slower than the rest at the
    # same counts.  Four streams per run average that out.
    streams = 4
    capacity, alpha, batched = UNBOUNDED, 0.5, True
