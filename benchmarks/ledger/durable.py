"""``durable_recover``: the journal and the snapshots, written and read back."""

from __future__ import annotations

from typing import Dict, List, Optional

from harness import clock, digest, percentile, proc_wchar
from workload import (
    SNAPSHOT_EVERY, ZONE_ALPHA, ZONE_CAPACITY, Workload, cache_layer_times,
    counts_of, pretty_json, registry_sums, scaled,
)

from repro.core.cache import LandlordCache
from repro.core.journal import JournaledState
from repro.obs import MetricsRegistry

DURABLE_WINDOW = 32


class DurableRecover(Workload):
    """Group-commit writes with checkpoints, a log-only tail, a recovery."""

    name = "durable_recover"
    checkpointed = 960   # phase A ops at scale 1
    log_only = 640       # phase B ops at scale 1: the tail recovery replays

    def sizes(self) -> Dict[str, int]:
        # Phase A must end on a checkpoint so the tail is exactly phase B.
        n_a = scaled(self.checkpointed, self.scale)
        n_a = -(-n_a // SNAPSHOT_EVERY) * SNAPSHOT_EVERY
        n_b = scaled(self.log_only, self.scale, floor=DURABLE_WINDOW)
        return {"unique_specs": n_a + n_b, "repeats": 1,
                "checkpointed_ops": n_a, "log_only_ops": n_b,
                "window": DURABLE_WINDOW, "snapshot_every": SNAPSHOT_EVERY}

    def prepare(self) -> None:
        self.ops = [("request", {"packages": sorted(spec)})
                    for spec in self.specs]
        self.n_a = self.sizes()["checkpointed_ops"]

    def drive(self, store: JournaledState, cache, metadata, ops) -> List[tuple]:
        """Apply ``ops`` in windows; one ``(start, end, timings)`` each."""
        windows = []
        for i in range(0, len(ops), DURABLE_WINDOW):
            timings: dict = {}
            t0 = clock()
            store.apply_batch(cache, metadata, ops[i:i + DURABLE_WINDOW],
                              timings=timings)
            t1 = clock()
            windows.append((t0, t1, timings))
            self.speed.after(t1 - t0)
        return windows

    def lap(self, index: int, traced: bool) -> dict:
        image = self.work.fresh("durable")
        state = image / "state.json"
        registry = MetricsRegistry() if traced else None
        metadata = {"ledger": self.name}
        cache = LandlordCache(ZONE_CAPACITY, ZONE_ALPHA, self.repo.size_of,
                              metrics=registry)
        store = JournaledState(state, snapshot_every=SNAPSHOT_EVERY,
                               metrics=registry)
        store.initialise(cache, metadata)
        wchar, cpu, mark = proc_wchar(), self.cpu_s(), self.speed.mark()
        checkpointed = self.drive(store, cache, metadata, self.ops[:self.n_a])
        wchar, cpu = proc_wchar() - wchar, self.cpu_s() - cpu
        self.speed.sample()
        factor = self.speed.factor(  # of phase A alone
            mark, self.speed.LAP_SENSITIVITY)
        store.journal.close()
        phase_a = registry.snapshot() if traced else None
        snapshot_bytes = state.stat().st_size

        log = JournaledState(state, snapshot_every=10 ** 9)
        tail = self.ops[self.n_a:]
        log_only = self.drive(log, cache, metadata, tail)
        # Dropped without flush(): the files are now what a crash leaves.
        log.journal.close()
        journal_bytes = log.journal.path.stat().st_size
        live = digest(cache.snapshot())
        self.recover(image, live, len(tail), once=True)
        self.attempted += len(self.ops)
        self.last_image = image

        latencies = [end - start for start, end, _ in checkpointed]
        lap = {
            "traced": traced,
            "ops": self.n_a,
            "wall_s": sum(latencies),  # the reference passes between are not
            "cpu_s": cpu,
            "factor": factor,
            "latencies": latencies,
            "digest": live,
            "counts": dict(counts_of(cache), **{
                "core.persistence.snapshots": self.n_a // SNAPSHOT_EVERY,
                "core.persistence.snapshot_bytes": snapshot_bytes,
                "core.journal.bytes_per_op": journal_bytes / len(tail),
                "core.journal.write_bytes_per_op": wchar / self.n_a,
            }),
            "windows": checkpointed,
            "log_only_rps": len(tail) / sum(
                end - start for start, end, _ in log_only),
        }
        if traced:
            lap["registry"] = phase_a
        return lap

    @staticmethod
    def flushed(window_index: int) -> bool:
        """Did this phase A window cross a checkpoint boundary?"""
        first = window_index * DURABLE_WINDOW + 1
        last = first + DURABLE_WINDOW - 1
        return last // SNAPSHOT_EVERY > (first - 1) // SNAPSHOT_EVERY

    def finish(self) -> None:
        self.check_laps_agree()
        digests = {lap["digest"] for lap in self.laps}
        self.checks.check(f"{self.name}.lap_states_identical",
                          len(digests) == 1,
                          f"{len(digests)} different final states")
        # One recovery a lap is few; every lap leaves the same image.
        self.recover(self.last_image, self.laps[-1]["digest"],
                     len(self.ops) - self.n_a)

    def state_digest(self) -> Optional[str]:
        return self.laps[0]["digest"]

    @classmethod
    def window_parts(cls, lap: dict) -> Dict[str, List[float]]:
        parts: Dict[str, List[float]] = {"append": [], "apply": [], "flush": []}
        for i, (start, end, timings) in enumerate(lap["windows"]):
            fsync_s, apply_s = timings["fsync"][1], timings["apply"][1]
            parts["append"].append(fsync_s)
            parts["apply"].append(apply_s)
            if cls.flushed(i):
                parts["flush"].append(end - start - fsync_s - apply_s)
        return parts

    def per_layer(self) -> Dict[str, float]:
        out = super().per_layer()
        out.update(self.fingerprint())
        out["core.journal.log_only_rps"] = max(
            lap["log_only_rps"] for lap in self.laps)
        lap = self.fastest_traced_lap()
        if lap is None:
            return out
        parts = self.window_parts(lap)
        out["core.journal.append_ms_p50"] = percentile(parts["append"], 50) * 1e3
        out["core.journal.append_ms_p99"] = percentile(parts["append"], 99) * 1e3
        out["core.journal.apply_ms_p50"] = percentile(parts["apply"], 50) * 1e3
        out["core.persistence.flush_ms_p50"] = percentile(parts["flush"], 50) * 1e3
        out["core.persistence.flush_ms_p99"] = percentile(parts["flush"], 99) * 1e3
        out.update(self.layer_times(lap))
        out["core.journal.fsyncs"] = registry_sums(lap["registry"])(
            "journal_fsync_seconds", "count")
        self.artifacts["registry.json"] = pretty_json(lap["registry"])
        self.add_spans(lap)
        return out

    def add_spans(self, lap: dict) -> None:
        windows = lap["windows"]
        parent = self.spans.add("lap", windows[0][0], windows[-1][1], None,
                                "fastest")
        for i, (start, end, timings) in enumerate(windows):
            window = self.spans.add("core.journal.apply_batch", start, end,
                                    parent, i)
            fsync_at, fsync_s = timings["fsync"]
            apply_at, apply_s = timings["apply"]
            self.spans.add("core.journal.append", fsync_at,
                           fsync_at + fsync_s, window, i)
            self.spans.add("core.cache.submit_batch", apply_at,
                           apply_at + apply_s, window, i)
            if self.flushed(i):
                self.spans.add("core.persistence.flush", apply_at + apply_s,
                               end, window, i)

    def layer_times(self, lap: dict) -> Dict[str, float]:
        """Seconds of one traced lap's phase A in each layer."""
        sums = registry_sums(lap["registry"])
        parts = self.window_parts(lap)
        times = cache_layer_times(sums)
        times["core.cache.outside_request_s"] = (
            sum(parts["apply"]) - sums("landlord_request_seconds"))
        times["core.journal.fsync_s"] = sums("journal_fsync_seconds")
        times["core.journal.encode_write_s"] = (
            sum(parts["append"]) - times["core.journal.fsync_s"])
        times["core.persistence.flush_s"] = sum(parts["flush"])
        return times

    def reconcile(self) -> Optional[dict]:
        lap = self.fastest_traced_lap()
        if lap is None:
            return None
        return {"what": "phase A of the fastest traced lap",
                "total_s": lap["wall_s"], "parts": self.layer_times(lap)}
