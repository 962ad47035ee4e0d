"""What the four ledger workloads share.

Each workload is a fixed unit of work — a *lap* — that is set up, then
repeated for ``--seconds`` with every lap of a stream starting from the
same state, so laps are identical work and their exact counts are the
workload's fingerprint.  What differs between laps is then the machine,
which :class:`harness.MachineSpeed` measures beside them.

Layers are measured from outside: timed calls into public functions,
public counters, a ``MetricsRegistry`` attached through the public
hooks, the daemon's ``/metrics``, ``/statusz`` and ``/traces``, and
``/proc``.  In a traced run every second round of laps carries the
instrumentation, so one run yields both the per-layer numbers and what
the instrumentation cost (traced laps vs plain laps).
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from harness import (
    REPO_SEED, Checks, ColdForker, MachineSpeed, SpanLog, Workspace,
    at_reference_speed, check_recovery, clock, copy_state, digest, median,
    percentile, proc_status_mb,
)

from repro.core.cache import LandlordCache
from repro.core.journal import JournaledState, recover_state, replay
from repro.core.persistence import load_bundle, save_state
from repro.htc.workload import DependencyWorkload, build_stream
from repro.obs import build_status
from repro.packages.sft import build_experiment_repository
from repro.util.rng import spawn
from repro.util.units import GB

ZONE_CAPACITY = 1400 * GB  # Figure 5's cache, twice the repository
ZONE_ALPHA = 0.8
MAX_SELECTION = 100        # the paper's "up to 100 packages"
SNAPSHOT_EVERY = 64        # the daemon's default checkpoint cadence
RECOVERY_MAX = 40          # one image is recovered up to this often
RECOVERY_BUDGET_S = 5.0    # ... or for this long, but at least three times


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


# -- reading the program's public counters ----------------------------------


def registry_sums(snapshot: dict) -> Callable[[str, str], float]:
    """``sums(name, "sum"|"count")`` over a ``MetricsRegistry.snapshot()``."""
    def sums(name: str, field: str = "sum") -> float:
        family = snapshot["families"].get(name)
        return sum(s[field] for s in family["series"]) if family else 0.0
    return sums


def parse_prometheus(text: str) -> Dict[str, float]:
    """``/metrics`` text → ``{"name{labels}": value}`` (labels verbatim)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def scrape_sums(before: Dict[str, float],
                after: Dict[str, float]) -> Callable[[str, str], float]:
    """The same reader over the difference of two ``/metrics`` scrapes;
    ``field=""`` reads a plain counter."""
    def sums(name: str, field: str = "sum") -> float:
        sample = f"{name}_{field}" if field else name
        return sum(value - before.get(series, 0.0)
                   for series, value in after.items()
                   if series == sample or series.startswith(sample + "{"))
    return sums


def cache_layer_times(sums: Callable[[str, str], float]) -> Dict[str, float]:
    """Split ``landlord_request_seconds`` into the kernel's layers."""
    parts = {
        "core.cache.merge_rewrite_s": sums("landlord_merge_rewrite_seconds"),
        "core.engine.eviction_s": sums("landlord_eviction_seconds"),
        "core.engine.subset_scan_s": sums("landlord_subset_scan_seconds"),
        "core.engine.candidate_probe_s": sums("landlord_candidate_probe_seconds"),
    }
    parts["core.cache.self_s"] = (
        sums("landlord_request_seconds") - sum(parts.values()))
    return parts


def cache_counts(lifetime: dict, examined: float, images: int,
                 engine: dict) -> Dict[str, float]:
    """The exact counts of a replay, from ``/statusz``-shaped blocks."""
    prefilter = engine.get("prefilter", {})
    batch = engine.get("batch", {})
    requests = lifetime["requests"]
    rows = prefilter.get("rows_scanned", 0)
    return {
        "core.cache.hits": lifetime["hits"],
        "core.cache.merges": lifetime["merges"],
        "core.cache.inserts": lifetime["inserts"],
        "core.cache.evictions": lifetime["evictions"],
        "core.cache.candidates_examined": examined,
        "core.cache.bytes_written": lifetime["bytes_written"],
        "core.cache.live_images": images,
        "core.cache.hit_ratio": lifetime["hits"] / requests if requests else 0.0,
        "core.engine.rows_scanned": rows,
        "core.engine.windowed_scans": prefilter.get("windowed", 0),
        "core.engine.full_scans": prefilter.get("full", 0),
        "core.engine.scan_selectivity": rows / examined if examined else 0.0,
        "core.engine.lsh_probes": prefilter.get("lsh_probes", 0),
        "core.engine.lsh_conclusive": prefilter.get("lsh_conclusive", 0),
        "core.engine.batch_windows": batch.get("windows", 0),
        "core.engine.repredictions": batch.get("repredictions", 0),
        "core.engine.dirty_share": (
            batch.get("dirty", 0) / batch["requests"]
            if batch.get("requests") else 0.0),
        "core.engine.compactions": (
            engine.get("compaction", {}).get("compactions", 0)),
    }


def counts_of(cache: LandlordCache) -> Dict[str, float]:
    status = build_status(cache)
    return cache_counts(status["lifetime"], cache.stats.candidates_examined,
                        len(cache), status.get("engine", {}))


def decisions_add_up(counts: Dict[str, float], requests: int) -> bool:
    return (counts["core.cache.hits"] + counts["core.cache.merges"]
            + counts["core.cache.inserts"]) == requests


# -- recovery, run in a cold process ----------------------------------------

RECOVERY_PIECES = {
    "core.persistence.load_bundle": "core.persistence.load_bundle_s",
    "core.journal.entries": "core.journal.entries_s",
    "core.journal.replay": "core.journal.replay_s",
    "core.persistence.save_state": "core.persistence.save_state_s",
    "core.journal.compact": "core.journal.compact_s",
}


def recover_job(size_of, state_path: str, pieces: bool) -> dict:
    """Recover one crash image; runs inside a :class:`ColdForker` process.

    Without ``pieces`` it times ``recover_state`` itself — the end-to-end
    number.  With ``pieces`` it calls the public parts of
    ``recover_state`` one by one, in its order, and times each.
    """
    if not pieces:
        t0, cpu0 = clock(), time.process_time()
        cache, _, replayed = recover_state(state_path, package_size=size_of)
        elapsed, cpu = clock() - t0, time.process_time() - cpu0
        return {"recover_s": elapsed, "cpu_s": cpu, "replayed": replayed,
                "digest": digest(cache.snapshot())}
    timed: List[tuple] = []

    def call(name, fn):
        t0 = clock()
        value = fn()
        timed.append((name, t0, clock()))
        return value

    store = JournaledState(state_path)
    bundle = call("core.persistence.load_bundle",
                  lambda: load_bundle(store.state_path, size_of))
    entries = call("core.journal.entries", store.journal.entries)
    replayed = call("core.journal.replay", lambda: replay(
        bundle.cache, entries, after_seq=bundle.journal_seq))
    # recover_state finds the covered sequence number by reading the
    # whole journal again; that read is not one of the named pieces.
    seq = call("core.journal.last_seq", lambda: store.journal.last_seq)
    call("core.persistence.save_state", lambda: save_state(
        store.state_path, bundle.cache, bundle.metadata, journal_seq=seq))
    call("core.journal.compact", lambda: store.journal.compact(seq))
    return {"pieces": timed, "replayed": len(replayed),
            "digest": digest(bundle.cache.snapshot())}


# -- the common shape -------------------------------------------------------


class Workload:
    """Set-up, laps until the deadline, checks, metrics."""

    name = ""
    unique = 0     # distinct specs sampled at scale 1
    repeats = 1    # stream = unique specs x repeats, shuffled
    streams = 1    # independent streams sampled; lap i runs stream i % streams

    def __init__(self, seed: int, scale: float, traced: bool,
                 work: Workspace, speed: MachineSpeed) -> None:
        self.seed = seed
        self.scale = scale
        self.traced = traced
        self.work = work
        self.speed = speed
        self.spans = SpanLog()
        self.checks = Checks()
        self.layer: Dict[str, float] = {}
        self.laps: List[dict] = []
        self.recoveries: List[tuple] = []   # (wall_s, cpu_s, speed factor)
        self.piece_runs: List[List[tuple]] = []
        self.forker: Optional[ColdForker] = None
        self.attempted = 0
        self.failed_ops = 0
        self.artifacts: Dict[str, str] = {}
        self.rss_mb = 0.0

    def sizes(self) -> Dict[str, int]:
        """The counts this run used (after ``--scale``)."""
        return {"unique_specs": scaled(self.unique, self.scale, floor=8),
                "repeats": self.repeats, "streams": self.streams}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        t0 = clock()
        self.repo = build_experiment_repository("sft", seed=REPO_SEED)
        t1 = clock()
        # Forked here on purpose: the cold processes know the repository
        # and nothing else.
        size_of = self.repo.size_of
        self.forker = ColdForker(
            lambda path, pieces: recover_job(size_of, path, pieces))
        t2 = clock()
        self.streams_of_specs = [
            build_stream(
                DependencyWorkload(self.repo, MAX_SELECTION),
                spawn(self.seed, "ledger", self.name, k),
                n_unique=self.sizes()["unique_specs"],
                repeats=self.repeats,
            ) for k in range(self.streams)]
        self.specs = self.streams_of_specs[0]
        t3 = clock()
        self.layer["packages.repository.build_s"] = t1 - t0
        self.layer["htc.workload.stream_s"] = t3 - t2
        self.prepare()

    def prepare(self) -> None:
        """Workload-specific set-up after repository and stream exist."""

    def teardown(self) -> None:
        if self.forker is not None:
            self.forker.close()
            self.forker = None

    # -- measuring ---------------------------------------------------------

    def measure(self, seconds: float) -> None:
        self.begin()
        deadline = clock() + seconds
        min_laps = self.streams * (2 if self.traced else 1)
        index = 0
        while index < min_laps or (clock() < deadline and self.more_work()):
            # Without this the previous laps' cyclic garbage lingers and
            # peak RSS grows with the number of laps the machine managed.
            gc.collect()
            mark = self.speed.mark()
            self.speed.sample()
            lap = self.lap(index, traced=self.traced
                           and index // self.streams % 2 == 1)
            self.speed.sample()
            lap.setdefault("factor", self.speed.factor(
                mark, self.speed.LAP_SENSITIVITY))
            lap["stream"] = index % self.streams
            self.laps.append(lap)
            index += 1
        self.rss_mb = self.peak_rss_mb()  # before the checks allocate
        self.finish()

    def cpu_s(self) -> float:
        """CPU seconds so far of every process that does the timed work."""
        return time.process_time() - self.speed.cpu_spent

    def begin(self) -> None:
        """Just before the first lap."""

    def more_work(self) -> bool:
        return True

    def lap(self, index: int, traced: bool) -> dict:
        raise NotImplementedError

    def finish(self) -> None:
        """After the last lap: untimed checks and one-off measurements."""

    def check_laps_agree(self) -> None:
        first = {lap["stream"]: lap["counts"] for lap in reversed(self.laps)}
        different = sum(1 for lap in self.laps
                        if lap["counts"] != first[lap["stream"]])
        self.checks.check(
            f"{self.name}.laps_identical", different == 0,
            f"{different} of {len(self.laps)} laps counted differently")

    def peak_rss_mb(self) -> float:
        return proc_status_mb("VmHWM")

    # -- recovery ----------------------------------------------------------

    def recover(self, image: Path, want_digest: str,
                want_replayed: Optional[int], once: bool = False) -> None:
        """Recover copies of a crash image in cold processes.

        ``recover_state`` rewrites what it recovers, so every pass gets
        its own copy; a traced run adds passes that go piece by piece.
        Unless ``once``, passes repeat for ``RECOVERY_BUDGET_S`` seconds.
        """
        began, passes = clock(), 0
        while passes < (1 if once else 3) or not once and (
                passes < RECOVERY_MAX
                and clock() - began < RECOVERY_BUDGET_S):
            copy = copy_state(image, self.work.fresh("recover"))
            mark = self.speed.mark()
            self.speed.sample()
            result = self.forker.call(str(copy / "state.json"), False)
            self.speed.sample()
            shutil.rmtree(copy)
            passes += 1
            if check_recovery(self.checks, self.name, result, want_digest,
                              want_replayed):
                self.recoveries.append((result["recover_s"], result["cpu_s"],
                                        self.speed.factor(mark)))
        for _ in range(0 if not self.traced else 1 if once else 3):
            copy = copy_state(image, self.work.fresh("pieces"))
            result = self.forker.call(str(copy / "state.json"), True)
            shutil.rmtree(copy)
            if check_recovery(self.checks, self.name + ".pieces", result,
                              want_digest, want_replayed):
                self.piece_runs.append(
                    [tuple(piece) for piece in result["pieces"]])

    def recovery_layers(self) -> Dict[str, float]:
        """The quickest piece-by-piece recovery, and what the pieces leave
        of the quickest whole one."""
        out = {metric: 0.0 for metric in RECOVERY_PIECES.values()}
        out["core.journal.recover_unattributed_s"] = 0.0
        if not self.piece_runs:
            return out
        pieces = min(self.piece_runs, key=lambda run: run[-1][2] - run[0][1])
        ident = "quickest"
        parent = self.spans.add("recover", pieces[0][1], pieces[-1][2],
                                None, ident)
        for name, start, end in pieces:
            self.spans.add(name, start, end, parent, ident)
            if name in RECOVERY_PIECES:
                out[RECOVERY_PIECES[name]] += end - start
        if self.recoveries:
            out["core.journal.recover_unattributed_s"] = (
                min(wall for wall, *_ in self.recoveries) - sum(out.values()))
        return out

    # -- results -----------------------------------------------------------

    def laps_of(self, traced: bool, stream: Optional[int] = None) -> List[dict]:
        return [lap for lap in self.laps
                if lap["traced"] == traced and lap["ops"]
                and stream in (None, lap["stream"])]

    def rate(self, traced: bool, as_measured: bool = False) -> float:
        """Operations per second over one round of the streams — each
        stream's laps of one kind pooled, so that a stream the deadline
        cut short counts as much as the others — with each lap at the
        reference speed unless ``as_measured``."""
        ops = seconds = 0.0
        for stream in range(self.streams):
            laps = self.laps_of(traced, stream)
            if not laps:
                return 0.0
            ops += sum(lap["ops"] for lap in laps) / len(laps)
            seconds += sum(
                lap["wall_s"] if as_measured else at_reference_speed(
                    lap["wall_s"], lap["cpu_s"], lap["factor"])
                for lap in laps) / len(laps)
        return ops / seconds

    def fastest_traced_lap(self) -> Optional[dict]:
        """Of the first stream, whose counts are the fingerprint."""
        return max(self.laps_of(True, stream=0), default=None,
                   key=lambda lap: lap["ops"] / lap["wall_s"])

    def end_to_end(self) -> Dict[str, float]:
        """Every timing with its CPU-busy part at the reference speed."""
        return {
            "throughput_ops": self.rate(False),
            "recover_s": median([at_reference_speed(*recovery)
                                 for recovery in self.recoveries]),
            "peak_rss_mb": self.rss_mb,
        }

    def latencies_ms(self) -> Dict[str, float]:
        """Caller-observed latency of one operation, plain laps pooled.

        In a closed loop the median is the reciprocal of throughput; the
        tail is the extra information, and on a shared sandbox it does
        not repeat within a bound on every workload — so these stay
        per-layer numbers.
        """
        pooled = [s for lap in self.laps_of(False) for s in lap["latencies"]]
        return {f"ops.latency_p{q}_ms": percentile(pooled, q) * 1e3
                for q in (50, 95, 99)}

    def as_measured(self) -> Dict[str, float]:
        """The same numbers before scaling, for the record."""
        factors = [lap["factor"] for lap in self.laps_of(False)]
        return {"machine.speed_factor": sum(factors) / len(factors),
                "raw.throughput_ops": self.rate(False, as_measured=True),
                "raw.recover_s": median([w for w, *_ in self.recoveries])}

    def per_layer(self) -> Dict[str, float]:
        out = dict(self.layer)
        out.update(self.recovery_layers())
        out.update(self.as_measured())
        out.update(self.latencies_ms())
        plain, traced = self.rate(False), self.rate(True)
        out["trace.overhead_share"] = (
            1 - traced / plain if plain and traced else 0.0)
        return out

    def fingerprint(self) -> Dict[str, float]:
        """Exact counts of one lap — identical on every run of one seed."""
        return self.laps[0]["counts"] if self.laps else {}

    def state_digest(self) -> Optional[str]:
        """Hash of the state one lap ends in, where laps are deterministic."""
        return None

    def reconcile(self) -> Optional[dict]:
        """``{"what", "total_s", "parts"}`` for the fastest traced lap."""
        return None


def pretty_json(value: object) -> str:
    return json.dumps(value, indent=1, sort_keys=True)
