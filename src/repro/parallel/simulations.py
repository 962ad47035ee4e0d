"""Simulation workers: fan simulation configs out over a shared repository.

The repository is the expensive shared input of every sweep — one build
per worker *process*, not per task, is the difference between linear
speedup and a pickling regression.  Two ways to get it into workers:

- :class:`RepositorySpec` — a tiny picklable recipe; each worker rebuilds
  the repository deterministically from the seed (preferred: ships bytes
  proportional to four scalars);
- a prebuilt :class:`~repro.packages.repository.Repository` — pickled
  once per worker through the pool initializer (for repositories loaded
  from files or otherwise not reconstructible from a spec).

:class:`SimulationPool` wraps both behind one interface and is reusable
across batches, so a multi-sweep experiment (Figure 6 runs seven sweeps)
pays worker start-up and repository construction once.

Live fleet telemetry rides the result channel: each cell's metrics
snapshot already returns to the parent inside its
:class:`~repro.htc.simulator.SimulationResult`, so a pool given a
:class:`~repro.obs.telemetry.TelemetryAggregator` feeds it from the
completion loop, keyed by the pid of the worker that ran the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.htc.simulator import SimulationConfig, SimulationResult, simulate
from repro.packages.repository import Repository
from repro.packages.sft import build_experiment_repository
from repro.parallel.pool import (
    _execute_bounded,
    _make_executor,
    _mp_context,
    resolve_workers,
)

__all__ = ["RepositorySpec", "SimulationPool"]


@dataclass(frozen=True)
class RepositorySpec:
    """Picklable recipe for rebuilding an experiment repository in workers.

    Equal specs build identical repositories (construction is seeded), so
    a worker can cache by spec.  A spec with ``seed=None`` would *not*
    rebuild deterministically — callers must ship the built
    :class:`Repository` object instead in that case.
    """

    kind: str
    seed: Optional[int]
    n_packages: int
    total_size: int

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "RepositorySpec":
        """The spec matching what :func:`simulate` would build itself."""
        return cls(
            kind=config.repo_kind,
            seed=config.seed,
            n_packages=config.n_packages,
            total_size=config.repo_total_size,
        )

    def build(self) -> Repository:
        """Construct the repository this spec describes."""
        return build_experiment_repository(
            self.kind,
            seed=self.seed,
            n_packages=self.n_packages,
            target_total_size=self.total_size,
        )


RepositorySource = Union[RepositorySpec, Repository]

# Per-worker-process repository, installed by the pool initializer.  Keyed
# by spec so a worker surviving across pools with the same spec reuses it.
# The parent pre-installs this *before* forking (see SimulationPool), so
# fork-platform workers inherit the warm repository and closure memo and
# their initializer is a no-op; the parent clears it again on close.
_WORKER_REPOSITORY: List[object] = [None, None]  # [key, repository]
# Per-worker-process span recorder (see repro.obs.spans): each sweep
# cell runs under its own ``sweep_cell`` trace, so the same waterfall
# model that explains daemon submits explains slow cells.
_WORKER_SPANS: List[object] = [None]


def worker_span_recorder():
    """This process's sweep-span recorder (lazily created, bounded)."""
    if _WORKER_SPANS[0] is None:
        from repro.obs.spans import SpanRecorder

        _WORKER_SPANS[0] = SpanRecorder(limit=1024)
    return _WORKER_SPANS[0]


def _traced_simulate(
    config: SimulationConfig, repository, spans
) -> SimulationResult:
    """Run one cell under a ``sweep_cell`` span (one trace per cell)."""
    with spans.start(
        "sweep_cell", attrs=(("alpha", f"{config.alpha:g}"),)
    ):
        return simulate(config, repository=repository)


def _source_key(source: RepositorySource) -> object:
    return source if isinstance(source, RepositorySpec) else id(source)


def _materialise(source: RepositorySource) -> Repository:
    return source.build() if isinstance(source, RepositorySpec) else source


def _init_simulation_worker(source: RepositorySource) -> None:
    """Pool initializer: build/install the shared repository once.

    Two cases: the parent pre-installed the warm repository before
    forking, so this process inherited it and returns immediately; or
    (spawn platforms) the repository is rebuilt here from the source.
    """
    key = _source_key(source)
    if _WORKER_REPOSITORY[0] == key and _WORKER_REPOSITORY[1] is not None:
        return  # inherited warm via fork (or reused across pools)
    repository = _materialise(source)
    _WORKER_REPOSITORY[0] = key
    _WORKER_REPOSITORY[1] = repository


def _simulate_task(config: SimulationConfig) -> SimulationResult:
    """Run one simulation against the worker's installed repository."""
    repository = _WORKER_REPOSITORY[1]
    return _traced_simulate(config, repository, worker_span_recorder())


class SimulationPool:
    """A reusable worker pool bound to one shared repository.

    Usage::

        with SimulationPool(RepositorySpec.from_config(cfg), workers=8) as pool:
            results = pool.run(cell_configs, labels=cell_labels)

    ``run`` returns :class:`SimulationResult`\\ s in submission order —
    bit-identical to calling :func:`simulate` serially over the same
    configs — regardless of worker count or completion order.  When the
    platform cannot start a pool (or ``workers=1``), the pool degrades to
    an in-process loop over a single locally built repository.

    ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetryAggregator`)
    ingests every cell's metrics snapshot as its result reaches the
    parent — under worker ``pid-<pid>``, or ``main`` on the serial path
    — with cell indices unique across batches of a reused pool.  ``run``
    returns only after its last cell was ingested, so a scrape taken
    after it is complete.
    """

    def __init__(
        self,
        source: RepositorySource,
        workers: Optional[int] = None,
        telemetry=None,
    ):
        if isinstance(source, RepositorySpec) and source.seed is None:
            raise ValueError(
                "RepositorySpec with seed=None cannot be rebuilt "
                "deterministically in workers; pass the built Repository"
            )
        self.workers = resolve_workers(workers)
        self._source = source
        self.telemetry = telemetry
        self._local_repo: Optional[Repository] = None
        #: This process's span recorder — serial runs record into it
        #: directly; worker processes each hold their own (same model).
        self.spans = worker_span_recorder()
        self._executor = None
        self._tasks_dispatched = 0
        #: Whether workers inherited the parent's warm repository (fork
        #: pools); spawn and serial pools build their own.
        self.shared_universe = False
        if self.workers > 1:
            if _mp_context() is not None:
                # fork is available: build + fully warm the repository in
                # the parent *before* the executor forks, so every worker
                # inherits the closure memo and its initializer no-ops.
                repository = self._repository()
                repository.warm_closures()
                _WORKER_REPOSITORY[0] = _source_key(source)
                _WORKER_REPOSITORY[1] = repository
                self.shared_universe = True
            self._executor = _make_executor(
                self.workers, _init_simulation_worker, (source,)
            )

    @property
    def parallel(self) -> bool:
        """Whether batches actually fan out to worker processes."""
        return self._executor is not None

    def _repository(self) -> Repository:
        if self._local_repo is None:
            self._local_repo = _materialise(self._source)
        return self._local_repo

    def run(
        self,
        configs: Sequence[SimulationConfig],
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int, str], None]] = None,
    ) -> List[SimulationResult]:
        """Execute a batch of simulation configs; results by input index."""
        configs = list(configs)
        if labels is None:
            labels = [f"simulation {i}" for i in range(len(configs))]
        else:
            labels = [str(label) for label in labels]
            if len(labels) != len(configs):
                raise ValueError("labels must match configs one-to-one")
        if not configs:
            return []
        offset = self._tasks_dispatched
        self._tasks_dispatched += len(configs)
        if self._executor is None:
            repository = self._repository()
            results = []
            for i, config in enumerate(configs):
                result = _traced_simulate(config, repository, self.spans)
                self._ingest(offset + i, result, "main")
                results.append(result)
                if progress is not None:
                    progress(i + 1, len(configs), labels[i])
            return results
        return _execute_bounded(
            self._executor, _simulate_task, configs, labels, progress,
            self.workers,
            on_result=lambda index, result, pid: self._ingest(
                offset + index, result, f"pid-{pid}"
            ),
        )

    def _ingest(
        self, index: int, result: SimulationResult, worker: str
    ) -> None:
        """Hand one finished cell's metrics to the attached aggregator."""
        if self.telemetry is not None and result.metrics is not None:
            self.telemetry.ingest_cells(worker, [(index, result.metrics)])

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        No worker forks after the shutdown, so the parent lets go of
        the repository this pool pre-installed for them.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self.shared_universe and _WORKER_REPOSITORY[1] is self._local_repo:
            _WORKER_REPOSITORY[0] = _WORKER_REPOSITORY[1] = None

    def __enter__(self) -> "SimulationPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: shut workers down."""
        self.close()


def merge_result_metrics(results, registry) -> int:
    """Fold per-run metrics snapshots into a parent registry, in order.

    Each :class:`~repro.htc.simulator.SimulationResult` produced with
    ``collect_metrics=True`` carries its worker-local registry snapshot;
    merging them in submission order makes the parent registry
    independent of worker count and completion order — the deterministic
    families (everything not ``*_seconds``) come out bit-identical to a
    serial run.  Returns the number of snapshots merged (results without
    one are skipped).
    """
    merged = 0
    for result in results:
        snap = getattr(result, "metrics", None)
        if snap is not None:
            registry.merge_snapshot(snap)
            merged += 1
    return merged
