"""Job-wrapper driver for crash-recovery property tests.

:class:`WrapperHarness` runs a request stream the way ``repro-landlord
submit`` does — every request is one full wrapper invocation against the
durable store (recover, journal, apply, snapshot) — while letting tests
kill the "process" at any persistence call site and then carry on, as a
site's real submission pipeline would after a node reboot.

The central property the harness exposes: for any crash site and crash
instant, *the completed stream's decisions and statistics are
bit-identical to an uninterrupted run*.  A request is either durably
journalled (and recovery replays it, reproducing its exact decision) or
wholly lost (and the driver re-submits it) — never half-applied.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cache import CacheDecision, LandlordCache
from repro.core.journal import JournaledState
from repro.core.persistence import StateNotFound
from repro.packages.repository import PackageIndex
from repro.testing.faults import CrashPoint, SimulatedCrash

__all__ = ["WrapperHarness", "decision_key"]

PathLike = Union[str, Path]


def decision_key(decision: CacheDecision) -> tuple:
    """Collapse a :class:`CacheDecision` to a comparable value tuple."""
    return (
        decision.action.value,
        decision.image.id,
        decision.image.size,
        decision.requested_bytes,
        decision.bytes_added,
        tuple(decision.evicted),
    )


class WrapperHarness:
    """Drive submit-style invocations against one durable state directory.

    Each :meth:`submit` is a complete, independent wrapper run: recover
    the cache from disk (snapshot + journal tail), journal the request,
    apply it, and snapshot when due — nothing is shared in memory between
    invocations, exactly like consecutive CLI runs.

    Args:
        directory: where the state and journal files live.
        package_size: the :class:`~repro.packages.repository.PackageIndex`
            the caches number and size packages by.
        capacity / alpha: cache configuration on first initialisation.
        snapshot_every: forwarded to :class:`JournaledState`.
        cache_kwargs: remaining policy knobs for the cache.
    """

    def __init__(
        self,
        directory: PathLike,
        package_size: PackageIndex,
        capacity: int,
        alpha: float,
        snapshot_every: int = 1,
        **cache_kwargs: object,
    ):
        self._directory = Path(directory)
        self._package_size = package_size
        self._capacity = capacity
        self._alpha = alpha
        self._snapshot_every = snapshot_every
        self._cache_kwargs = cache_kwargs
        #: decisions by 0-based request index, filled by submits and by
        #: journal replay during recovery (replay of an already-recorded
        #: request must agree — asserted in :meth:`_record`).
        self.decisions: Dict[int, tuple] = {}

    def _store(self) -> JournaledState:
        return JournaledState(
            self._directory / "state.json",
            snapshot_every=self._snapshot_every,
        )

    def _fresh_cache(self) -> LandlordCache:
        return LandlordCache(
            self._capacity, self._alpha, self._package_size,
            **self._cache_kwargs,  # type: ignore[arg-type]
        )

    def _record(self, index: int, decision: CacheDecision) -> None:
        key = decision_key(decision)
        known = self.decisions.get(index)
        if known is not None and known != key:
            raise AssertionError(
                f"replayed decision for request {index} diverged: "
                f"{known} != {key}"
            )
        self.decisions[index] = key

    def _recover(self) -> Tuple[LandlordCache, dict, JournaledState]:
        store = self._store()
        try:
            # journal seq N is request index N-1: the harness journals
            # requests only, and initialise() resets numbering to 1.
            # Decisions must be captured via on_replay, at decision time
            # — a decision's image object keeps mutating as later tail
            # entries merge into it.
            cache, metadata, _replayed = store.load(
                self._package_size,
                on_replay=lambda entry, result: self._record(
                    entry.seq - 1, result
                ),
                **self._cache_kwargs,
            )
        except StateNotFound:
            cache = self._fresh_cache()
            metadata = {}
            store.initialise(cache, metadata)
        return cache, metadata, store

    def submit(self, packages: Sequence[str]) -> CacheDecision:
        """One wrapper invocation: recover, journal, apply, snapshot.

        The decision is recorded via the store's ``on_result`` hook —
        i.e. delivered the instant it is computed, before the snapshot
        and compaction housekeeping — so a crash during housekeeping
        never strands a decision the snapshot already covers.
        """
        cache, metadata, store = self._recover()
        index = cache.stats.requests
        return store.apply(
            cache, metadata, "request",
            on_result=lambda _entry, result: self._record(index, result),
            packages=sorted(packages),
        )

    def processed_requests(self) -> int:
        """How many requests the durable state currently accounts for."""
        try:
            cache, _metadata, _replayed = self._store().load(
                self._package_size, **self._cache_kwargs
            )
        except StateNotFound:
            return 0
        return cache.stats.requests

    def run(
        self,
        stream: Sequence[Sequence[str]],
        crash_site: Optional[str] = None,
        crash_at: int = 0,
        torn: Optional[float] = None,
    ) -> List[tuple]:
        """Run a whole stream, optionally crashing once and recovering.

        With ``crash_site`` set, the crash point is armed from request
        ``crash_at`` onward until it fires (a site may not be reached by
        every submit — e.g. snapshot sites between periodic snapshots);
        the harness then resumes exactly where the durable state says it
        should, re-submitting a lost request or skipping a journalled
        one.  Returns the decision keys for the full stream, in order.

        The stream is positioned at the durable request count, not at 0
        — like the real driver, which never re-submits work an earlier
        (possibly crashed) run already completed.
        """
        armed: Optional[CrashPoint] = None
        fired = False
        index = self.processed_requests()
        while index < len(stream):
            arm_now = (
                crash_site is not None and not fired and index >= crash_at
            )
            try:
                if arm_now:
                    armed = CrashPoint(crash_site, torn=torn)
                    with armed:
                        self.submit(stream[index])
                    fired = armed.fired
                else:
                    self.submit(stream[index])
            except SimulatedCrash:
                fired = True
                # next loop iteration re-recovers from disk; resume from
                # however many requests actually survived the crash
                index = self.processed_requests()
                continue
            index += 1
        # a final clean recovery folds any journal tail into self.decisions
        self._recover()
        return [self.decisions[i] for i in range(len(stream))]
