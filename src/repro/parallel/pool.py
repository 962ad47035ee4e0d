"""Bounded, order-preserving process-pool map with a serial fallback.

Design constraints (they shape every choice here):

- **Determinism** — results are returned keyed by submission index, never
  by completion order, so any worker count produces identical output.
- **Bounded memory** — tasks are submitted in chunks with at most
  ``workers * INFLIGHT_FACTOR`` futures outstanding; a million-cell sweep
  never materialises a million pickled futures.
- **Attributable failure** — a task that raises in a worker surfaces in
  the parent as :class:`ParallelExecutionError` naming the failing task's
  label (e.g. ``alpha=0.40 rep=3``) with the worker traceback attached.
- **Graceful degradation** — if the platform cannot start a pool or
  pickle the payload, execution falls back to the serial path with a
  warning instead of failing; ``workers=1`` is always the serial path.
- **One worker-count rule** — explicit argument > ``REPRO_WORKERS`` >
  all CPUs (:func:`resolve_workers`), for library calls and the CLI.

Every chunk comes back tagged with the pid of the worker that ran it,
and the completion loop hands each result to an optional
``on_result(index, result, pid)`` callback in the parent — the one
channel per-task telemetry travels on (see
:class:`repro.parallel.SimulationPool`).

Worker processes prefer the ``fork`` start method (cheap on Linux, and
inherits interned state); platforms without it use their default method.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ParallelExecutionError",
    "parallel_map",
    "resolve_workers",
]

# At most this many chunks in flight per worker (bounds pickled backlog).
INFLIGHT_FACTOR = 4
# Chunks never grow beyond this many tasks (keeps progress responsive).
MAX_CHUNK = 32


class ParallelExecutionError(RuntimeError):
    """A task failed inside a worker process.

    Carries the task's ``label`` and submission ``index`` so the failing
    cell of a sweep — not just "something in the pool" — is identifiable,
    plus the worker-side traceback in the message.
    """

    def __init__(self, label: str, index: int, worker_traceback: str):
        super().__init__(
            f"parallel task {label!r} (index {index}) failed in worker:\n"
            f"{worker_traceback}"
        )
        self.label = label
        self.index = index
        self.worker_traceback = worker_traceback


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > all CPUs.

    ``workers=None`` with ``REPRO_WORKERS`` unset means every CPU, for
    library calls and the CLI alike; pass ``workers=1`` for serial.  A
    count below 1 — from any source — is rejected rather than silently
    clamped.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is None:
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
    if workers < 1:
        raise ValueError(
            f"workers must be a positive integer, got {workers} "
            "(use workers=1 for serial execution)"
        )
    return workers


def _mp_context():
    """The preferred multiprocessing context (``fork`` where available)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _make_executor(workers, initializer, initargs):
    """Create a process pool, or ``None`` if the platform cannot."""
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=initializer,
            initargs=initargs,
        )
    except (NotImplementedError, OSError, ValueError, PermissionError) as exc:
        warnings.warn(
            f"cannot start a process pool ({exc!r}); running serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def _run_chunk(fn: Callable[[Any], Any], chunk: Sequence[Tuple[int, Any]]):
    """Worker-side chunk loop: this worker's pid, then per-task success
    flag and result or traceback."""
    out = []
    for index, item in chunk:
        try:
            out.append((index, True, fn(item)))
        except BaseException:  # noqa: BLE001 - reported in the parent
            out.append((index, False, traceback.format_exc()))
    return os.getpid(), out


def _chunked(items: Sequence[Any], chunk_size: int) -> List[List[Tuple[int, Any]]]:
    indexed = list(enumerate(items))
    return [
        indexed[start : start + chunk_size]
        for start in range(0, len(indexed), chunk_size)
    ]


def _auto_chunk(n_items: int, workers: int) -> int:
    """Chunk size balancing IPC overhead against scheduling granularity."""
    return max(1, min(MAX_CHUNK, n_items // (workers * INFLIGHT_FACTOR * 2)))


def _execute_bounded(
    executor: ProcessPoolExecutor,
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    labels: Sequence[str],
    progress: Optional[Callable[[int, int, str], None]],
    workers: int,
    chunk_size: Optional[int] = None,
    on_result: Optional[Callable[[int, Any, int], None]] = None,
) -> List[Any]:
    """Submit chunks with a bounded in-flight window; results by index.

    ``on_result(index, result, pid)`` fires in the parent for each task
    as its chunk completes, just before ``progress``; ``pid`` is the
    worker process that ran it.
    """
    chunks = _chunked(items, chunk_size or _auto_chunk(len(items), workers))
    results: List[Any] = [None] * len(items)
    total = len(items)
    done = 0
    pending: Dict[Any, int] = {}  # future -> index of its chunk's first item
    next_chunk = 0

    def submit_one() -> None:
        nonlocal next_chunk
        if next_chunk < len(chunks):
            chunk = chunks[next_chunk]
            future = executor.submit(_run_chunk, fn, chunk)
            pending[future] = chunk[0][0]
            next_chunk += 1

    def failures_of(future) -> List[Tuple[int, str]]:
        return [
            (index, payload)
            for index, ok, payload in future.result()[1]
            if not ok
        ]

    for _ in range(max(1, workers * INFLIGHT_FACTOR)):
        submit_one()
    while pending:
        finished, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            del pending[future]
        failures = [f for future in finished for f in failures_of(future)]
        if failures:
            # The first failing task is the lowest index, as _serial_map
            # reports it — not whichever chunk happened to finish first.
            # Chunks start in submission order, so every chunk of lower
            # indices has started and may hold an earlier failure: wait
            # for those, cancel the rest.
            first = min(failures)[0]
            for future, start in pending.items():
                if start < first:
                    failures.extend(failures_of(future))
                else:
                    future.cancel()
            index, payload = min(failures)
            raise ParallelExecutionError(labels[index], index, payload)
        for future in finished:
            pid, out = future.result()
            for index, _ok, payload in out:
                results[index] = payload
                done += 1
                if on_result is not None:
                    on_result(index, payload, pid)
                if progress is not None:
                    progress(done, total, labels[index])
            submit_one()
    return results


def _serial_map(fn, items, labels, progress, initializer, initargs):
    """The serial fallback: same contract, current process."""
    if initializer is not None:
        initializer(*initargs)
    results = []
    total = len(items)
    for i, item in enumerate(items):
        results.append(fn(item))
        if progress is not None:
            progress(i + 1, total, labels[i])
    return results


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    labels: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[int, int, str], None]] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` across worker processes, order-preserving.

    ``fn`` must be a module-level callable (pickled by reference) and
    ``items`` picklable.  ``initializer(*initargs)`` runs once per worker
    — the place to build expensive shared state (the serial path calls it
    once in-process).  ``progress(done, total, label)`` fires in the
    parent as each task completes.  ``workers`` resolves via
    :func:`resolve_workers` (explicit > ``REPRO_WORKERS`` > all CPUs);
    1 runs serially, and platforms that cannot fork/pickle fall back
    serially with a warning.
    Raises :class:`ParallelExecutionError` naming the first failing task.
    """
    items = list(items)
    if labels is None:
        labels = [f"task {i}" for i in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError("labels must match items one-to-one")
    if not items:
        return []
    n_workers = min(resolve_workers(workers), len(items))
    if n_workers <= 1:
        return _serial_map(fn, items, labels, progress, initializer, initargs)
    executor = _make_executor(n_workers, initializer, initargs)
    if executor is None:
        return _serial_map(fn, items, labels, progress, initializer, initargs)
    try:
        with executor:
            return _execute_bounded(
                executor, fn, items, labels, progress, n_workers, chunk_size
            )
    except (pickle.PicklingError, BrokenProcessPool) as exc:
        warnings.warn(
            f"process-pool execution failed ({exc!r}); retrying serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _serial_map(fn, items, labels, progress, initializer, initargs)
