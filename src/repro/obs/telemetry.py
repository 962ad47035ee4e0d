"""Cluster-wide telemetry: per-worker views plus one deterministic aggregate.

The embedded ``/metrics`` server (``repro.obs.server``) exposes *one*
registry, but a sweep fans out over worker processes — the fleet
problem the CMS XCache migration solved with per-instance labels on a
shared scrape endpoint.  :class:`TelemetryAggregator` closes that gap
in the parent process.  It needs no transport of its own: every sweep
cell's metrics snapshot already returns to the parent inside its
``SimulationResult``, and :class:`~repro.parallel.SimulationPool`
ingests each one from the pool's completion loop, tagged with the
cell's submission index and the pid of the worker that ran it.

The aggregator keeps one registry per worker (for ``worker="..."``-
labelled series) plus an *aggregated* view.  Cells are folded strictly
in submission index order (contiguous-prefix folding), which makes the
aggregate bit-identical to a serial run of the same work: IEEE float
sums (for example ``landlord_merge_distance_sum``) depend on fold
order, so "merge whenever a result arrives" would drift while "fold
cell *k* only after cells *0..k-1*" replays exactly the serial merge
order.

The aggregator is itself a registry as far as
:class:`~repro.obs.server.ObsServer` is concerned (``to_prometheus`` /
``to_openmetrics``), so ``sweep --serve`` serves it directly.  The
fleet exposition interleaves, under each family's single ``# TYPE``
block, the aggregated series (no ``worker`` label) followed by every
worker's series with a ``worker`` label prepended — legal in both the
classic Prometheus text format and OpenMetrics, and validated by
:mod:`repro.obs.promcheck` in both.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    family_header_lines,
    render_family_lines,
)

__all__ = ["TelemetryAggregator"]

#: Counter families surfaced per worker in ``/statusz`` (and from there
#: in the ``top`` dashboard's per-worker rows).
_STATUS_COUNTERS = (
    ("requests", "landlord_requests_total"),
    ("hits", "landlord_hits_total"),
    ("merges", "landlord_merges_total"),
    ("inserts", "landlord_inserts_total"),
    ("evictions", "landlord_evictions_total"),
)


class _WorkerState:
    """Aggregator-side record of one reporting worker."""

    __slots__ = ("registry", "cells")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.cells = 0


class TelemetryAggregator:
    """Fold per-task telemetry into per-worker views plus one aggregate.

    Args:
        expected_cells: for sweep runs, the total cell count — lets
            ``/statusz`` report fold progress.

    Thread-safe: ingest (the sweep's completion loop) and rendering
    (scrape threads) serialise on one internal re-entrant lock, exposed
    as :attr:`lock` so an embedding server can share it.
    """

    def __init__(self, expected_cells: Optional[int] = None) -> None:
        self.expected_cells = expected_cells
        self.lock = threading.RLock()
        self._workers: Dict[str, _WorkerState] = {}
        self._folded = MetricsRegistry()
        self._pending: Dict[int, dict] = {}
        self._next_index = 0
        self._duplicates = 0
        self._complete = False

    # -- ingest ------------------------------------------------------------

    def ingest_cells(
        self, worker: str, cells: Sequence[Tuple[int, dict]]
    ) -> None:
        """Ingest per-task snapshots tagged with submission indices.

        Each cell lands in ``worker``'s view immediately and queues for
        the aggregate, which only ever folds the contiguous index prefix
        — the determinism contract described in the module docstring.
        Duplicate indices are dropped and counted.
        """
        with self.lock:
            state = self._workers.get(worker)
            if state is None:
                state = self._workers[worker] = _WorkerState()
            for index, snap in cells:
                index = int(index)
                if index < self._next_index or index in self._pending:
                    self._duplicates += 1
                    continue
                state.registry.merge_snapshot(snap)
                state.cells += 1
                self._pending[index] = snap
            while self._next_index in self._pending:
                self._folded.merge_snapshot(
                    self._pending.pop(self._next_index)
                )
                self._next_index += 1

    def mark_complete(self) -> None:
        """Record that the run driving this aggregator has finished."""
        with self.lock:
            self._complete = True

    # -- views -------------------------------------------------------------

    def aggregate(self) -> MetricsRegistry:
        """A copy of the index-folded fleet totals.

        Once every cell has been folded this is bit-identical to the
        registry a serial run of the same cells produces.
        """
        with self.lock:
            out = MetricsRegistry()
            out.merge_snapshot(self._folded.snapshot())
            return out

    def worker_registries(self) -> List[Tuple[str, MetricsRegistry]]:
        """``(worker, registry)`` pairs in sorted worker order."""
        with self.lock:
            return [
                (worker, self._workers[worker].registry)
                for worker in sorted(self._workers)
            ]

    def status(self) -> dict:
        """The ``/statusz`` ``telemetry`` block (drives ``top`` rows)."""
        with self.lock:
            workers = {}
            for worker in sorted(self._workers):
                state = self._workers[worker]
                entry: dict = {"cells": state.cells}
                for short, family_name in _STATUS_COUNTERS:
                    family = state.registry.get(family_name)
                    if family is not None:
                        entry[short] = sum(
                            child.value for _, child in family.series()
                        )
                workers[worker] = entry
            status: dict = {"workers": workers, "complete": self._complete}
            if (
                self.expected_cells is not None
                or self._next_index
                or self._pending
                or self._duplicates
            ):
                status["cells"] = {
                    "folded": self._next_index,
                    "pending": len(self._pending),
                    "duplicates": self._duplicates,
                    "expected": self.expected_cells,
                }
            return status

    # -- rendering ---------------------------------------------------------

    def _render(self, openmetrics: bool) -> str:
        # With no worker reporting yet this is exactly what an empty
        # registry renders ("" or "# EOF").
        with self.lock:
            workers = [
                (worker, registry)
                for worker, registry in self.worker_registries()
                if len(registry)
            ]
            lines: List[str] = []
            for family in self.aggregate().families():
                lines.extend(family_header_lines(family, openmetrics))
                lines.extend(render_family_lines(family, openmetrics))
                for worker, registry in workers:
                    child = registry.get(family.name)
                    if child is not None:
                        lines.extend(
                            render_family_lines(
                                child, openmetrics,
                                extra_labels=(("worker", worker),),
                            )
                        )
            if openmetrics:
                lines.append("# EOF")
            return "\n".join(lines) + "\n" if lines else ""

    def to_prometheus(self) -> str:
        """Fleet exposition: aggregate + ``worker``-labelled series."""
        return self._render(openmetrics=False)

    def to_openmetrics(self) -> str:
        """Fleet exposition in OpenMetrics (exemplars + ``# EOF``)."""
        return self._render(openmetrics=True)
