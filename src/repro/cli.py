"""Command-line interface: ``repro-landlord <command>`` / ``python -m repro``.

Commands:

- ``fig1`` … ``fig8`` — regenerate each paper figure/table;
- ``ablations`` — the design-choice ablation studies;
- ``all`` — run every figure at the chosen scale;
- ``sweep`` — a standalone α sweep with explicit grid and worker count;
- ``bench`` — time a sweep serially vs in parallel and save the numbers;
- ``trace`` — two modes: generate a workload trace file for external
  replay, or (with ``--url``) render a running daemon's distributed
  request traces as per-stage ASCII waterfalls;
- ``replay`` — run a saved trace through a configured cache;
- ``submit`` — the paper's job-wrapper deployment: prepare one job's
  container against a persistent on-disk cache state (write-ahead
  journalled; crash-safe) and exit, or forward the spec to a running
  daemon with ``--remote URL``;
- ``serve`` — run LANDLORD as a concurrent multi-client daemon: a
  loopback HTTP (and optional UNIX-socket) endpoint accepting JSON
  spec submissions from many clients through one journalled cache,
  with batching, admission control, and the full observability
  surface on the same port;
- ``cache-status`` — inspect a persistent cache state (replays any
  journal tail left by a crashed wrapper; ``--metrics-out`` adds the
  journal fsync histogram and eviction breakdown);
- ``recover`` — explicit crash recovery: fold the journal tail into a
  fresh snapshot and compact the journal;
- ``explain`` — why did a request hit/merge/insert?  Renders the
  decision trace a ``submit --trace`` invocation recorded;
- ``metrics`` — render a saved metrics registry as a table, Prometheus
  text exposition format, or JSON;
- ``top`` — the live dashboard: replay a recorded ``--events-out``
  stream frame by frame, or attach to a running ``serve`` (or
  ``sweep --serve``) endpoint and poll its ``/statusz``;
- ``calibrate`` — measure a repository's structural statistics.

Operational telemetry: ``serve`` exposes ``/metrics`` (Prometheus),
``/healthz``, ``/statusz`` and ``/traces/<n>`` on its port until
SIGTERM; ``--alert-rules FILE`` (on ``serve`` and ``replay``)
evaluates declarative SLO alert rules and makes the command exit
non-zero when any rule fired — the CI gate.

Every figure command accepts ``--scale quick|paper``, ``--seed`` and
``--json PATH``; sweep-shaped ones also take ``--workers N`` (default:
all CPUs; ``REPRO_WORKERS`` overrides).  Bad input (a missing or
malformed file, an unparseable flag value) is one line on stderr and
exit status 2.  See ``repro-landlord <command> --help``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections.abc import Mapping
from contextlib import closing, contextmanager
from types import ModuleType
from typing import Callable, Iterator, Optional, Sequence

__all__ = ["main"]


class _Figures(Mapping):
    """Figure command -> experiment module, imported on first lookup.

    ``submit``, ``serve`` and ``recover`` never run an experiment, so
    importing ``repro.cli`` must not import thirteen of them.
    """

    _MODULES = {
        "fig1": "fig1_layering",
        "fig2": "fig2_benchmarks",
        "fig3": "fig3_image_size",
        "fig4": "fig4_cache_behavior",
        "fig5": "fig5_single_run",
        "fig6": "fig6_sensitivity",
        "fig7": "fig7_dependencies",
        "fig8": "fig8_limits",
        "ablations": "ablations",
        "baselines": "baselines",
        "tenancy": "tenancy_overhead",
        "federation": "federation_study",
        "adaptive": "adaptive_study",
    }

    def __getitem__(self, command: str) -> ModuleType:
        return importlib.import_module(
            f"repro.experiments.{self._MODULES[command]}"
        )

    def __contains__(self, command: object) -> bool:
        return command in self._MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(self._MODULES)

    def __len__(self) -> int:
        return len(self._MODULES)


_FIGURES = _Figures()


class _InputError(Exception):
    """Bad input (a file, a flag value, a state): :func:`main` prints
    the message as one line on stderr and exits 2 — no traceback."""


def _read(what: str, path: str, load: Callable, *args, **kwargs):
    """``load(path, ...)``, a failure to read the file becoming an
    :class:`_InputError` that names ``what`` and ``path``."""
    try:
        return load(path, *args, **kwargs)
    except OSError as exc:
        raise _InputError(
            f"cannot read {what} {path}: {exc.strerror or exc}"
        ) from exc
    except (ValueError, SyntaxError) as exc:
        raise _InputError(f"bad {what} {path}: {exc}") from exc


# -- shared flag groups ----------------------------------------------------


def _site_args(parser: argparse.ArgumentParser, repo: bool = False,
               scale: Optional[str] = None) -> None:
    """``--scale``/``--seed`` (and ``--repo``): the site repository."""
    parser.add_argument("--scale", choices=["tiny", "quick", "paper"],
                        default=scale,
                        help="experiment scale (default: "
                        + (scale or "quick, or paper if REPRO_FULL=1") + ")")
    parser.add_argument("--seed", type=int, default=2020,
                        help="repository and workload seed "
                        "(default: %(default)s)")
    if repo:
        parser.add_argument("--repo", default=None, metavar="FILE",
                            help="load the site's real repository from a "
                            "JSON-lines file instead of the synthetic one")


def _capacity(text: str) -> int:
    """argparse type of ``--capacity``: a size such as ``300GB``."""
    from repro.util.units import parse_bytes

    try:
        return parse_bytes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cache_args(parser: argparse.ArgumentParser, alpha: float) -> None:
    """``--alpha``/``--capacity``: the cache replay, submit and serve
    build (a persistent state keeps the α and capacity it was
    initialised with)."""
    parser.add_argument("--alpha", type=float, default=alpha,
                        help="merge threshold (default: %(default)s)")
    parser.add_argument("--capacity", type=_capacity, default=None,
                        help="cache capacity, e.g. 300GB (default: the "
                        "scale's)")


def _state_args(parser: argparse.ArgumentParser,
                snapshot_every: Optional[int] = None) -> None:
    """The site plus its durable state: submit/serve/cache-status/recover."""
    _site_args(parser, repo=True)
    parser.add_argument("--state", default=".landlord-state.json",
                        help="cache state file (default: %(default)s)")
    parser.add_argument("--journal", default=None, metavar="FILE",
                        help="write-ahead journal file "
                        "(default: <state>.journal)")
    if snapshot_every is not None:
        parser.add_argument("--snapshot-every", type=int,
                            default=snapshot_every, metavar="N",
                            help="rewrite the full snapshot every N "
                            "journalled requests, relying on journal "
                            "replay in between (default: %(default)s)")


def _obs_args(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by submit and serve."""
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="accumulate a metrics registry in FILE across "
                        "invocations (JSON; load, record, save)")
    parser.add_argument("--trace-file", metavar="FILE", default=None,
                        help="decision-trace sidecar "
                        "(default: <state>.trace.jsonl)")
    parser.add_argument("--trace", action="store_true",
                        help="record decision traces to the sidecar "
                        "(inspect with `repro-landlord explain INDEX`)")


def _serve_args(parser: argparse.ArgumentParser,
                serves: Optional[str] = None) -> None:
    """``--serve PORT`` (when the command ``serves`` something on the
    side) and ``--port-file``."""
    if serves is not None:
        parser.add_argument("--serve", type=int, default=None,
                            metavar="PORT",
                            help=f"serve {serves} on 127.0.0.1:PORT "
                            "(0 = ephemeral) until SIGTERM/SIGINT")
    parser.add_argument("--port-file", metavar="FILE", default=None,
                        help="write the bound port to FILE once listening "
                        "(atomic; removed on shutdown; lets scripts use "
                        "port 0)")


def _alert_args(parser: argparse.ArgumentParser) -> None:
    """The alert-rule flags shared by serve and replay."""
    from repro.obs import DEFAULT_WINDOW

    parser.add_argument("--alert-rules", metavar="FILE", default=None,
                        help="evaluate declarative alert rules (JSON list "
                        "of {name, expr, for} entries) over the rolling "
                        "window after every request; exit 1 if any fired")
    parser.add_argument("--alert-log", metavar="FILE", default=None,
                        help="append alert firing/resolved transitions "
                        "as JSON lines (the audit log)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        metavar="N",
                        help="rolling-window size in requests for SLO "
                        "series (default: %(default)s)")


# -- the site, its state, its observability --------------------------------


def _site_repository(args: argparse.Namespace):
    """``(scale, repository)``: the ``--repo`` file, else the synthetic
    repository of ``--scale``/``--seed``."""
    from repro.experiments.common import get_scale

    scale = get_scale(args.scale)
    repo_file = getattr(args, "repo", None)
    if repo_file:
        from repro.packages.io import load_repository

        return scale, _read("repository file", repo_file, load_repository)
    from repro.packages.sft import build_experiment_repository

    return scale, build_experiment_repository(
        "sft", seed=args.seed, n_packages=scale.n_packages,
        target_total_size=scale.repo_total_size,
    )


@contextmanager
def _site_lock(state: str, remedy: str, wait: bool = False,
               serve: bool = False) -> Iterator[None]:
    """Hold the site's writer lock: ``flock`` on ``<state>.lock``.

    The writing commands (``submit``, ``serve``, ``recover``) take it
    before they read the state and release it after their last write,
    so a second writer cannot compact the journal from under a live
    daemon's append handle.  The kernel drops the lock when the holder
    dies, so a crash leaves none behind; the file itself is never
    removed (unlinking a lock file races with the next opener).

    Every holder empties the file when it takes the lock; a ``serve``
    holder then writes ``serve <pid>`` into it and empties it again on
    the way out, so while the lock is held the file names a live
    daemon or nothing.  A site already held is an :class:`_InputError`
    ending in ``remedy``.  A ``wait``ing writer (``submit``, whose peers
    hold the lock for one request each) instead polls until the lock is
    free, re-reading the file each time, and raises that error only
    once the file names a ``serve``, which holds its site until SIGTERM.
    """
    import fcntl
    import os
    import time

    path = f"{state}.lock"
    try:
        handle = open(path, "a+b", buffering=0)
    except OSError as exc:
        raise _InputError(
            f"cannot open site lock {path}: {exc.strerror or exc}"
        ) from exc
    with handle:
        while True:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if not wait or os.pread(handle.fileno(), 6, 0) == b"serve ":
                    raise _InputError(
                        f"site {state} is in use by another writer "
                        f"(it holds {path}); {remedy}"
                    ) from None
                time.sleep(0.02)
        handle.truncate(0)
        if serve:
            handle.write(f"serve {os.getpid()}\n".encode())
        try:
            yield
        finally:
            if serve:
                handle.truncate(0)


def _open_site_state(args: argparse.Namespace, site,
                     initialise: bool = False):
    """Open the durable cache over ``site``, the ``(scale, repository)``
    of :func:`_site_repository`.

    Loads the snapshot and replays the journal tail (a writer calls
    this under :func:`_site_lock`).  A state built for
    another repository, or a state or journal that is corrupt or
    unreadable, is an :class:`_InputError` — real data is never silently
    reinitialised.
    With ``initialise`` (submit, serve) a missing state starts a fresh
    cache from ``--alpha``/``--capacity`` and the replay is reported
    here; the read-side commands report ``replayed`` themselves.

    Returns ``(store, cache, metadata, replayed)``.
    """
    from repro.core.cache import LandlordCache
    from repro.core.journal import JournalError, JournaledState
    from repro.core.persistence import StateError, StateNotFound
    from repro.util.units import format_bytes

    scale, repo = site
    repo_meta = (
        {"file": args.repo, "n_packages": len(repo)}
        if args.repo
        else {"scale": scale.name, "seed": args.seed,
              "n_packages": scale.n_packages}
    )
    store = JournaledState(
        args.state, args.journal,
        snapshot_every=getattr(args, "snapshot_every", 1),
    )
    try:
        cache, metadata, replayed = store.load(repo.size_of)
    except StateNotFound as exc:
        if not initialise:
            raise _InputError(str(exc)) from exc
        capacity = scale.capacity if args.capacity is None else args.capacity
        try:
            cache = LandlordCache(capacity, args.alpha, repo.size_of)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        metadata = {"repository": repo_meta}
        store.initialise(cache, metadata)
        print(f"initialised new cache: capacity "
              f"{format_bytes(capacity)}, alpha {args.alpha}")
        return store, cache, metadata, []
    except (StateError, JournalError) as exc:
        raise _InputError(str(exc)) from exc
    if metadata.get("repository") != repo_meta:
        raise _InputError(
            f"state {args.state} was built for repository "
            f"{metadata.get('repository')}, not {repo_meta}"
        )
    if initialise and replayed:
        print(f"replayed {len(replayed)} journalled operation(s) "
              "not yet covered by the snapshot")
    return store, cache, metadata, replayed


def _attach_obs(args: argparse.Namespace, cache, store,
                serving: bool = False):
    """Wire ``--metrics-out`` and ``--trace`` onto an opened cache.

    Runs *after* load/replay so journalled history already covered by
    the snapshot is not double-counted.  A ``serving`` process always
    carries a registry — it is the scrape endpoint.  Returns
    ``(registry, tracer)``, each possibly ``None``.
    """
    from repro.obs import DecisionTracer, MetricsRegistry, load_registry

    registry = tracer = None
    if args.metrics_out or serving:
        registry = (
            _read("metrics file", args.metrics_out, load_registry,
                  missing_ok=True)
            if args.metrics_out
            else MetricsRegistry()
        )
        cache.enable_metrics(registry)
        store.enable_metrics(registry)
    if args.trace:
        tracer = DecisionTracer(limit=1024)
        cache.enable_tracing(tracer)
    return registry, tracer


def _alert_rules(path: str):
    """The rules of an ``--alert-rules`` file (bad file: exit 2)."""
    from repro.obs import load_rules

    return _read("alert rules", path, load_rules)


def _finish_alerts(alerts, alert_log: Optional[str]) -> int:
    """Print the alert outcome, write the audit log, gate the exit code
    (0 when no rules were evaluated)."""
    if alerts is None:
        return 0
    from repro.obs import write_transitions

    for row in alerts.summary():
        print(f"alert {row['name']} [{row['state']}]: {row['expr']} "
              f"for {row['for']}")
    if alert_log:
        write_transitions(alerts.transitions, alert_log, append=True)
        print(f"{len(alerts.transitions)} alert transition(s) "
              f"appended to {alert_log}")
    if alerts.fired_ever:
        fired = sorted({t.rule for t in alerts.transitions
                        if t.state == "firing"})
        print(f"ALERT: {', '.join(fired)} fired during this run",
              file=sys.stderr)
    return alerts.exit_code


def _trace_path(args: argparse.Namespace) -> str:
    """Resolve the decision-trace sidecar path for a state file."""
    return args.trace_file or f"{args.state}.trace.jsonl"


# -- serving until SIGTERM -------------------------------------------------


def _write_port_file(path: str, port: int) -> None:
    """Atomically publish a bound port: write a tmp file, then rename.

    Readers polling the file (the CI smoke scripts) therefore never see
    an empty or half-written file — the rename is the publication.
    """
    from pathlib import Path

    port_path = Path(path)
    try:
        port_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = port_path.with_name(port_path.name + ".tmp")
        tmp.write_text(f"{port}\n", encoding="utf-8")
        tmp.replace(port_path)
    except OSError as exc:
        raise _InputError(
            f"cannot write port file {path}: {exc.strerror or exc}"
        ) from exc


def _remove_port_file(path: str) -> None:
    """Best-effort unlink of a published port file.

    Tolerates the file being missing or its path being unusable (the
    write may itself have been the setup failure that brought us here).
    """
    from pathlib import Path

    try:
        Path(path).unlink()
    except OSError:
        pass


def _serve_until_signal(server, port_file: Optional[str],
                        on_listening: Callable[[int], str]) -> None:
    """Start ``server``, publish its port, block until SIGTERM/SIGINT.

    The one serving loop behind ``serve`` and ``sweep --serve``.
    ``server`` has ``start() -> port`` and ``stop()`` (an
    :class:`~repro.obs.ObsServer` or a
    :class:`~repro.service.LandlordDaemon`) and already shares one
    re-entrant lock with the state it renders, so a scrape never sees
    a half-applied mutation.  ``on_listening(port)`` runs once the port
    is published (the sweep runs its cells there) and returns the
    banner printed before blocking.

    Hardened (each caller is regression-tested in
    ``tests/obs/test_server.py``): the port file is written atomically
    (tmp + rename — pollers never read a torn value) and unlinked on
    every exit path; everything after start runs inside the ``try``,
    so a setup failure (bad port-file path, signal registration off
    the main thread) still stops the server; the handlers are installed
    before the server starts, so a signal that arrives once the port is
    published — while ``on_listening`` runs — still drains and cleans
    up; the previous signal handlers are restored on the way out.
    """
    import os
    import signal
    import threading

    stop = threading.Event()
    previous = {}
    owner = os.getpid()

    def on_signal(signum, _frame):
        if os.getpid() == owner:
            stop.set()
        else:  # a sweep worker forked while serving: the signal is its own
            signal.signal(signum, previous[signum])
            os.kill(os.getpid(), signum)

    try:
        previous = {
            sig: signal.signal(sig, on_signal)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        port = server.start()
        if port_file:
            _write_port_file(port_file, port)
        print(on_listening(port))
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
        if port_file:
            _remove_port_file(port_file)


# -- commands --------------------------------------------------------------


def _cmd_all(argv: Sequence[str]) -> int:
    for name, module in _FIGURES.items():
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        status = module.main(argv)
        if status:
            return status
    return 0


def _cmd_sweep(argv: Sequence[str]) -> int:
    from repro.analysis.report import sweep_table
    from repro.analysis.sweep import alpha_sweep, default_alphas
    from repro.experiments.common import base_config, get_scale
    from repro.parallel import resolve_workers

    parser = argparse.ArgumentParser(
        prog="repro-landlord sweep",
        description="Run one alpha sweep with an explicit grid and worker "
        "count (the building block behind fig4/fig6/fig7/fig8).",
    )
    _site_args(parser)
    parser.add_argument("--repetitions", type=int, default=None,
                        help="simulations per grid point (default: scale's)")
    parser.add_argument("--alpha", nargs=3, type=float, default=None,
                        metavar=("LO", "HI", "STEP"),
                        help="grid bounds and step (default: scale's grid)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (default: all CPUs; "
                        "REPRO_WORKERS overrides; 1 = serial)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also save the sweep as JSON")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="collect per-run cache metrics and save the "
                        "aggregated registry (.json = JSON snapshot, "
                        "anything else = Prometheus text format)")
    _serve_args(parser, serves="live fleet telemetry (per-worker series "
                "plus the aggregate of the cells finished so far) during "
                "and after the sweep")
    args = parser.parse_args(argv)
    if args.port_file and args.serve is None:
        parser.error("--port-file requires --serve")
    if args.repetitions is not None and args.repetitions < 1:
        parser.error(f"--repetitions must be >= 1, got {args.repetitions}")
    scale = get_scale(args.scale)
    if args.alpha is None:
        alphas = scale.alphas()
    else:
        lo, hi, step = args.alpha
        if not 0 <= lo <= hi <= 1:
            parser.error(f"--alpha bounds must satisfy 0 <= LO <= HI <= 1, "
                         f"got {lo} {hi}")
        if step <= 0:
            parser.error(f"--alpha STEP must be positive, got {step}")
        try:
            alphas = default_alphas(step=step, lo=lo, hi=hi)
        except ValueError as exc:
            parser.error(f"--alpha STEP: {exc}")
    repetitions = args.repetitions or scale.repetitions
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    registry = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    total_cells = int(alphas.size) * repetitions
    progress_state = {"done": 0, "total": total_cells, "last": ""}

    def sweep_progress(message: str) -> None:
        progress_state["done"] += 1
        progress_state["last"] = message

    aggregator = None
    if args.serve is not None:
        from repro.obs import TelemetryAggregator

        aggregator = TelemetryAggregator(expected_cells=total_cells)

    def run(port: Optional[int] = None) -> str:
        if port is not None:
            print(f"telemetry on http://127.0.0.1:{port} "
                  "(/metrics /statusz)")
        sweep = alpha_sweep(
            base_config(scale, seed=args.seed),
            alphas=alphas,
            repetitions=repetitions,
            label="sweep",
            workers=workers,
            metrics=registry,
            telemetry=aggregator,
            progress=sweep_progress if aggregator is not None else None,
        )
        if aggregator is not None:
            aggregator.mark_complete()
        print(f"alpha sweep: {alphas.size} points x {repetitions} "
              f"repetitions ({scale.name} scale, {workers} workers)")
        print(sweep_table(
            sweep,
            ["cache_efficiency", "container_efficiency",
             "write_amplification", "merges"],
        ))
        if args.json:
            import json as _json

            with open(args.json, "w", encoding="utf-8") as fh:
                _json.dump(sweep.to_jsonable(), fh, indent=2)
                fh.write("\n")
            print(f"\nresults saved to {args.json}")
        if registry is not None:
            from repro.obs import save_registry

            save_registry(registry, args.metrics_out)
            print(f"metrics saved to {args.metrics_out}")
        return (f"sweep done; telemetry still on "
                f"http://127.0.0.1:{port} (SIGTERM to stop)")

    if aggregator is None:
        run()
        return 0
    from repro.obs import ObsServer

    server = ObsServer(
        registry=aggregator,
        status_fn=lambda: {
            "telemetry": aggregator.status(),
            "sweep": dict(progress_state),
        },
        lock=aggregator.lock,
        port=args.serve,
    )
    _serve_until_signal(server, args.port_file, run)
    return 0


def _cmd_bench(argv: Sequence[str]) -> int:
    import json as _json
    import os
    import time

    import numpy as np

    from repro.analysis.sweep import alpha_sweep
    from repro.experiments.common import base_config, get_scale
    from repro.parallel import RepositorySpec, SimulationPool, resolve_workers

    parser = argparse.ArgumentParser(
        prog="repro-landlord bench",
        description="Time one alpha sweep serially and in parallel, verify "
        "the two results are bit-identical, and save the numbers.",
    )
    _site_args(parser, scale="quick")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="parallel worker count (default: all CPUs; "
                        "REPRO_WORKERS overrides)")
    parser.add_argument("--output", default="BENCH_sweep.json",
                        metavar="PATH",
                        help="JSON file to write (default: %(default)s)")
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    config = base_config(scale, seed=args.seed)
    alphas = scale.alphas()
    repetitions = scale.repetitions

    start = time.perf_counter()
    serial = alpha_sweep(config, alphas=alphas, repetitions=repetitions,
                         label="bench", workers=1)
    serial_seconds = time.perf_counter() - start
    # One explicit pool for the whole parallel sweep: worker warm-up is
    # paid once (the parent pre-warms the repository and forks it into
    # workers; spawn workers each rebuild it) and amortised across every
    # sweep cell.
    start = time.perf_counter()
    with SimulationPool(RepositorySpec.from_config(config), workers) as pool:
        shared_universe = pool.shared_universe
        parallel = alpha_sweep(config, alphas=alphas, repetitions=repetitions,
                               label="bench", pool=pool)
    parallel_seconds = time.perf_counter() - start

    identical = (
        np.array_equal(serial.alphas, parallel.alphas)
        and serial.raw.keys() == parallel.raw.keys()
        and all(
            np.array_equal(serial.raw[name], parallel.raw[name])
            for name in serial.raw
        )
    )
    speedup = (
        round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 0 else None
    )
    # A speedup expectation only makes sense when real parallelism is
    # available: on a single-CPU host (or workers > CPUs) process
    # fan-out adds pickling/IPC cost with no cores to recoup it on, so
    # the payload flags the measurement as degraded instead of letting
    # a sub-1x "speedup" read as a regression.
    cpu_count = os.cpu_count() or 1
    degraded = cpu_count < workers
    payload = {
        "scale": scale.name,
        "seed": args.seed,
        "cells": int(alphas.size * repetitions),
        "workers": workers,
        "cpu_count": cpu_count,
        "degraded_single_cpu": degraded,
        "shared_universe": bool(shared_universe),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": speedup,
        "identical": bool(identical),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        _json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"{payload['cells']} cells: serial {serial_seconds:.2f}s, "
          f"parallel {parallel_seconds:.2f}s with {workers} workers "
          f"(speedup {speedup}x, identical={identical})")
    if degraded:
        print(f"note: only {cpu_count} CPU(s) for {workers} workers — "
              "no speedup expected; measurement flagged degraded")
    print(f"saved to {args.output}")
    return 0 if identical else 1


def _cmd_trace(argv: Sequence[str]) -> int:
    # Dual-mode command: with --url (or --url=URL) it is the
    # distributed-trace waterfall viewer against a running daemon;
    # without, the workload-trace generator (kept for scripts and tests).
    if any(arg == "--url" or arg.startswith("--url=") for arg in argv):
        return _cmd_trace_waterfall(argv)
    from repro.htc.simulator import SimulationConfig, make_workload
    from repro.htc.trace import save_trace
    from repro.htc.workload import build_stream, jobs_from_specs
    from repro.util.rng import spawn

    parser = argparse.ArgumentParser(prog="repro-landlord trace")
    parser.add_argument("output", help="trace file to write (JSON lines)")
    _site_args(parser)
    parser.add_argument("--scheme", choices=["deps", "random", "drift"], default="deps")
    args = parser.parse_args(argv)
    scale, repo = _site_repository(args)
    config = SimulationConfig(
        n_unique=scale.n_unique,
        repeats=scale.repeats,
        scheme=args.scheme,
        max_selection=scale.max_selection,
        n_packages=scale.n_packages,
        repo_total_size=scale.repo_total_size,
        seed=args.seed,
    )
    workload = make_workload(config, repo)
    rng = spawn(args.seed, "workload", args.scheme, config.n_unique)
    stream = build_stream(workload, rng, config.n_unique, config.repeats)
    count = save_trace(args.output, jobs_from_specs(stream))
    print(f"wrote {count} requests to {args.output}")
    return 0


def _cmd_trace_waterfall(argv: Sequence[str]) -> int:
    """``repro-landlord trace --url <daemon>``: per-stage waterfalls.

    Fetches recent distributed traces from a running daemon's
    ``/traces?format=json`` endpoint and renders each as an ASCII
    waterfall (admission / queue / fsync / apply / ack).  A positional
    trace-id prefix filters to one trace (paste it from a
    ``submit --remote`` reply, an ``explain`` narrative, or a
    ``/metrics`` bucket exemplar); ``--slowest N`` surfaces the worst
    offenders; ``--follow`` tails new traces until interrupted.
    """
    import time as _time

    from repro.obs.spans import render_waterfall
    from repro.service import LandlordClient, ServiceError

    parser = argparse.ArgumentParser(
        prog="repro-landlord trace --url",
        description="Render distributed request traces from a running "
        "daemon as per-stage ASCII waterfalls.",
    )
    parser.add_argument("trace_id", nargs="?", default=None,
                        help="trace-id prefix to show (default: all "
                        "recent traces)")
    parser.add_argument("--url", required=True,
                        help="daemon endpoint (http://host:port or "
                        "unix:/path)")
    parser.add_argument("--last", type=int, default=10, metavar="N",
                        help="fetch the newest N traces "
                        "(default: %(default)s)")
    parser.add_argument("--slowest", type=int, default=None, metavar="N",
                        help="show only the N slowest fetched traces, "
                        "worst first")
    parser.add_argument("--follow", action="store_true",
                        help="keep polling and print traces as they "
                        "arrive (Ctrl-C to stop)")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="--follow poll interval "
                        "(default: %(default)s)")
    parser.add_argument("--width", type=int, default=32, metavar="COLS",
                        help="waterfall bar width (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.last < 1:
        parser.error("--last must be >= 1")

    def fetch() -> list:
        client = LandlordClient(args.url)
        try:
            payload = client.traces(args.last)
        finally:
            client.close()
        traces = payload.get("traces", [])
        if args.trace_id:
            traces = [
                t for t in traces
                if t["trace_id"].startswith(args.trace_id)
            ]
        return traces

    def show(traces: list) -> None:
        if args.slowest is not None:
            traces = sorted(
                traces, key=lambda t: t["duration"], reverse=True
            )[:max(0, args.slowest)]
        for trace in traces:
            print(render_waterfall(trace, width=args.width))
            print()

    try:
        traces = fetch()
    except (ServiceError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    if not args.follow:
        if not traces:
            what = (
                f"trace {args.trace_id}..." if args.trace_id
                else "traces"
            )
            print(f"no {what} held by {args.url} "
                  "(the span ring is bounded — submit again and re-run)")
            return 1
        show(traces)
        return 0
    seen = {trace["trace_id"] for trace in traces}
    show(traces)
    try:
        while True:
            _time.sleep(max(0.05, args.interval))
            try:
                fresh = [
                    t for t in fetch() if t["trace_id"] not in seen
                ]
            except ServiceError:
                break  # daemon went away; a follow just ends
            seen.update(t["trace_id"] for t in fresh)
            show(fresh)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_replay(argv: Sequence[str]) -> int:
    from repro.core.cache import LandlordCache
    from repro.htc.simulator import simulate_stream
    from repro.htc.trace import iter_trace
    from repro.util.units import format_bytes

    parser = argparse.ArgumentParser(prog="repro-landlord replay")
    parser.add_argument("trace", help="trace file to replay")
    _site_args(parser)
    _cache_args(parser, alpha=0.75)
    parser.add_argument("--events-out", metavar="FILE", default=None,
                        help="record the cache-event log and write it as a "
                        "JSONL stream (consumable by "
                        "repro.analysis.report.timeline_from_events)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="record cache metrics and save the registry "
                        "(.json = JSON snapshot, else Prometheus text)")
    _alert_args(parser)
    args = parser.parse_args(argv)
    stream = _read("trace file", args.trace,
                   lambda path: [job.packages for job in iter_trace(path)])
    scale, repo = _site_repository(args)
    capacity = scale.capacity if args.capacity is None else args.capacity
    try:
        cache = LandlordCache(capacity, args.alpha, repo.size_of,
                              record_events=bool(args.events_out))
    except ValueError as exc:
        parser.error(str(exc))
    registry = None
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    slo = alerts = None
    if args.alert_rules:
        from repro.obs import AlertEngine, SloTracker

        alerts = AlertEngine(_alert_rules(args.alert_rules),
                             registry=registry)
        slo = SloTracker(window=args.window)
    result = simulate_stream(cache, stream, record_timeline=False,
                             metrics=registry, slo=slo, alerts=alerts)
    stats = result.stats
    print(f"requests={stats.requests} hits={stats.hits} merges={stats.merges} "
          f"inserts={stats.inserts} deletes={stats.deletes}")
    print(f"cache efficiency {100 * result.cache_efficiency:.1f}%  "
          f"container efficiency {100 * result.container_efficiency:.1f}%")
    print(f"requested {format_bytes(stats.requested_bytes)}  "
          f"written {format_bytes(stats.bytes_written)}  "
          f"cached {format_bytes(result.cached_bytes)}")
    if args.events_out:
        from repro.obs import write_event_stream

        write_event_stream(cache.events, args.events_out)
        print(f"{len(cache.events)} events written to {args.events_out}")
    if registry is not None:
        from repro.obs import save_registry

        save_registry(registry, args.metrics_out)
        print(f"metrics saved to {args.metrics_out}")
    return _finish_alerts(alerts, args.alert_log)


def _load_specfile(path: str, repo) -> "frozenset[str]":
    """Read a job specification from a file.

    Formats by extension: ``.py`` (scan imports), ``.sh`` (module loads),
    ``.json`` ({"packages": [...]} or a bare list), anything else (one
    requirement per line, ``#`` comments).  Names are resolved against the
    repository; an unreadable spec or an unresolvable requirement is an
    :class:`_InputError`.
    """
    from pathlib import Path

    from repro.specs import (
        PackageResolver,
        spec_from_module_script,
        spec_from_python_source,
    )

    def resolve(path: str):
        text = Path(path).read_text(encoding="utf-8")
        resolver = PackageResolver(repo)
        if path.endswith(".py"):
            return spec_from_python_source(text, resolver, filename=path)
        if path.endswith(".sh"):
            return spec_from_module_script(text, resolver)
        if path.endswith(".json"):
            import json as _json

            data = _json.loads(text)
            names = data.get("packages") if isinstance(data, dict) else data
            if not isinstance(names, list):
                raise ValueError('want {"packages": [...]} or a JSON list')
            return resolver.resolve(names)
        names = [
            line.split("#", 1)[0].strip()
            for line in text.splitlines()
        ]
        return resolver.resolve([n for n in names if n])

    report = _read("spec file", path, resolve)
    if report.unresolved:
        raise _InputError(
            f"unresolvable requirements in spec file {path}: "
            + ", ".join(report.unresolved)
        )
    return report.spec.packages


def _cmd_submit(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-landlord submit",
        description="Prepare a container image for one job (the paper's "
        "job-wrapper deployment); cache state persists across invocations, "
        "write-ahead journalled so a crashed wrapper loses nothing.",
    )
    parser.add_argument("specfile", help=".py/.sh/.json/.txt job spec")
    _state_args(parser, snapshot_every=1)
    _cache_args(parser, alpha=0.8)
    parser.add_argument("--no-closure", action="store_true",
                        help="treat the spec as already closed")
    _obs_args(parser)
    parser.add_argument("--remote", metavar="URL", default=None,
                        help="forward the spec to a running "
                        "`repro-landlord serve` daemon at URL "
                        "(http://host:port or unix:/path) instead of "
                        "touching local state")
    parser.add_argument("--remote-retries", type=int, default=5,
                        metavar="N",
                        help="with --remote, retry up to N times when the "
                        "daemon signals backpressure (HTTP 429; "
                        "default: %(default)s)")
    args = parser.parse_args(argv)
    if args.snapshot_every < 1:
        parser.error("--snapshot-every must be >= 1")

    # The job's closed spec comes first, so a bad spec touches no site
    # and parsing it is not part of the lock hold.
    site = _site_repository(args)
    repo = site[1]
    packages = _load_specfile(args.specfile, repo)
    closed = sorted(packages if args.no_closure else repo.closure(packages))
    if args.remote:
        return _submit_remote(args, closed)
    with _site_lock(args.state, "submit through its daemon with --remote URL",
                    wait=True):
        return _submit_local(args, site, closed)


def _submit_local(args: argparse.Namespace, site, closed: list) -> int:
    """``submit`` against the site's own state (the lock is held)."""
    from repro.util.units import format_bytes

    store, cache, metadata, _ = _open_site_state(args, site, initialise=True)
    registry, tracer = _attach_obs(args, cache, store)
    with closing(store.journal):  # submit appends once, then only reads
        decision = store.apply(cache, metadata, "request", packages=closed)
    print(
        f"{decision.action.value}: image {decision.image.id} "
        f"({decision.image.package_count} pkgs, "
        f"{format_bytes(decision.image.size)}; requested "
        f"{format_bytes(decision.requested_bytes)})"
    )
    if decision.evicted:
        print(f"evicted: {', '.join(decision.evicted)}")
    if args.metrics_out:
        from repro.obs import save_registry

        save_registry(registry, args.metrics_out)
    if tracer is not None:
        from repro.core.events import EventKind
        from repro.obs import write_event_stream

        events = tracer.drain()
        write_event_stream(events, _trace_path(args), append=True)
        for event in events:
            if event.kind is not EventKind.DELETE:
                print(f"traced request #{event.request_index} -> "
                      f"`repro-landlord explain {event.request_index} "
                      f"--state {args.state}`")
    return 0


def _submit_remote(args: argparse.Namespace, closed: list) -> int:
    """Forward one job's closed spec to a running daemon
    (``submit --remote``).

    The spec was resolved and dependency-closed locally against the same
    site repository the daemon serves; it is POSTed through
    :class:`~repro.service.LandlordClient` with bounded retry on
    backpressure.  State/journal flags are ignored — the daemon owns
    durability; a printed decision has already been journalled there.
    """
    from repro.service import LandlordClient, ServiceError, SubmitRejected
    from repro.util.units import format_bytes

    try:
        client = LandlordClient(args.remote)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    try:
        reply = client.submit(closed, retries=max(0, args.remote_retries))
    except SubmitRejected as exc:
        print(f"daemon rejected the submission: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        raise _InputError(str(exc)) from exc
    finally:
        client.close()
    print(
        f"{reply['action']}: image {reply['image']} "
        f"({reply['image_packages']} pkgs, "
        f"{format_bytes(reply['image_bytes'])}; requested "
        f"{format_bytes(reply['requested_bytes'])}) "
        f"[request #{reply['request_index']} via {args.remote}]"
    )
    if reply["evicted"]:
        print(f"evicted: {', '.join(reply['evicted'])}")
    if reply.get("trace_id"):
        print(
            f"trace {reply['trace_id']} (waterfall: repro-landlord "
            f"trace {reply['trace_id'][:8]} --url {args.remote})"
        )
    return 0


def _cmd_serve(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-landlord serve",
        description="Run LANDLORD as a concurrent multi-client daemon: "
        "accept JSON spec submissions (POST /submit) from many clients "
        "through one journalled cache — every request is write-ahead "
        "journalled before it is acknowledged and adjacent queued "
        "requests are applied as single batched passes — while serving "
        "/metrics, /healthz, /statusz and /traces on the same port.  "
        "SIGTERM drains the queue, writes a final covering snapshot, "
        "and compacts the journal.",
    )
    _state_args(parser, snapshot_every=64)
    _cache_args(parser, alpha=0.8)
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port on 127.0.0.1 (0 = ephemeral; "
                        "default: %(default)s)")
    _serve_args(parser)
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="additionally serve on a UNIX-domain socket "
                        "at PATH")
    parser.add_argument("--max-queue", type=int, default=1024, metavar="N",
                        help="admission-queue bound; submissions beyond it "
                        "are rejected with HTTP 429 (default: %(default)s)")
    parser.add_argument("--max-batch", type=int, default=256, metavar="N",
                        help="largest request window applied as one "
                        "batched pass (default: %(default)s)")
    parser.add_argument("--span-limit", type=int, default=4096, metavar="N",
                        help="bounded ring of pipeline spans behind "
                        "/traces and `repro-landlord trace` "
                        "(default: %(default)s)")
    _obs_args(parser)
    _alert_args(parser)
    args = parser.parse_args(argv)
    if args.snapshot_every < 1:
        parser.error("--snapshot-every must be >= 1")
    if args.max_queue < 1:
        parser.error("--max-queue must be >= 1")
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.span_limit < 1:
        parser.error("--span-limit must be >= 1")
    with _site_lock(args.state, "retry once that writer exits", serve=True):
        return _serve(args)


def _serve(args: argparse.Namespace) -> int:
    """``serve`` once the flags are valid (the lock is held)."""
    from repro.obs import AlertEngine, SloTracker
    from repro.service import LandlordDaemon

    site = _site_repository(args)
    store, cache, metadata, _ = _open_site_state(args, site, initialise=True)
    registry, tracer = _attach_obs(args, cache, store, serving=True)
    slo = SloTracker(window=args.window)
    cache.enable_slo(slo)
    alerts = (
        AlertEngine(_alert_rules(args.alert_rules), registry=registry)
        if args.alert_rules else None
    )
    # The daemon attaches one lock to the cache and its own endpoint.
    daemon = LandlordDaemon(
        store, cache, metadata,
        port=args.port,
        socket_path=args.socket,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        registry=registry,
        slo=slo,
        alerts=alerts,
        tracer=tracer,
        trace_path=_trace_path(args) if args.trace else None,
        known_package=frozenset(site[1].ids).__contains__,  # a C-level test
        span_limit=args.span_limit,
    )

    def listening(port: int) -> str:
        endpoints = f"http://127.0.0.1:{port}"
        if args.socket:
            endpoints += f" and unix:{args.socket}"
        return (f"landlord daemon on {endpoints} "
                "(POST /submit; /metrics /healthz /statusz /traces; "
                "SIGTERM drains and snapshots)")

    _serve_until_signal(daemon, args.port_file, listening)
    print(f"daemon stopped: {daemon.accepted} accepted, "
          f"{daemon.rejected} rejected, {daemon.batches} batch(es); "
          "state flushed")
    if args.metrics_out:
        from repro.obs import save_registry

        save_registry(registry, args.metrics_out)
    return _finish_alerts(alerts, args.alert_log)


def _cmd_explain(argv: Sequence[str]) -> int:
    from pathlib import Path

    from repro.obs import by_request, explain, iter_event_stream

    parser = argparse.ArgumentParser(
        prog="repro-landlord explain",
        description="Explain one cache decision from the trace sidecar a "
        "`submit --trace` invocation recorded: the candidates considered "
        "with their Jaccard distances, conflict rejections, the chosen "
        "operation, and any eviction victims with their reason.",
    )
    parser.add_argument("index", type=int,
                        help="request index to explain (0-based; shown by "
                        "`submit --trace` as it records)")
    parser.add_argument("--state", default=".landlord-state.json",
                        help="cache state file the trace sidecar belongs "
                        "to (default: %(default)s)")
    parser.add_argument("--trace-file", metavar="FILE", default=None,
                        help="decision-trace sidecar "
                        "(default: <state>.trace.jsonl)")
    args = parser.parse_args(argv)
    trace_path = _trace_path(args)
    if not Path(trace_path).exists():
        raise _InputError(f"no trace file at {trace_path} — run "
                          "`repro-landlord submit --trace ...` first")
    try:
        # Later records win: an appended sidecar that re-traced an index
        # (e.g. after a state reset) resolves to the most recent one.
        records = {
            record[0].request_index: record
            for record in by_request(iter_event_stream(trace_path))
        }
    except ValueError as exc:
        raise _InputError(f"cannot read trace file: {exc}") from exc
    record = records.get(args.index)
    if record is None:
        held = sorted(records)
        span = f"{held[0]}..{held[-1]}" if held else "none"
        print(f"request #{args.index} is not in {trace_path} "
              f"(traced indices: {span})", file=sys.stderr)
        return 1
    print(explain(record))
    return 0


def _cmd_metrics(argv: Sequence[str]) -> int:
    from repro.obs import load_registry
    from repro.obs.metrics import Histogram
    from repro.util.tables import render_table

    parser = argparse.ArgumentParser(
        prog="repro-landlord metrics",
        description="Render a saved metrics registry (the JSON file a "
        "--metrics-out flag wrote) as a summary table, Prometheus or "
        "OpenMetrics text exposition format, or canonical JSON.",
    )
    parser.add_argument("file", help="metrics registry JSON file")
    parser.add_argument("--format",
                        choices=["table", "prom", "openmetrics", "json"],
                        default="table")
    args = parser.parse_args(argv)
    registry = _read("metrics file", args.file, load_registry)
    if args.format == "prom":
        print(registry.to_prometheus(), end="")
        return 0
    if args.format == "openmetrics":
        print(registry.to_openmetrics(), end="")
        return 0
    if args.format == "json":
        import json as _json

        print(_json.dumps(registry.to_json(), indent=1, sort_keys=True))
        return 0
    rows = []
    for family in registry.families():
        for key, child in family.series():
            labels = ",".join(
                f"{name}={value}"
                for name, value in zip(family.labelnames, key)
            )
            name = f"{family.name}{{{labels}}}" if labels else family.name
            if isinstance(family, Histogram):
                rows.append([
                    name,
                    child.count,
                    "-" if child.count == 0 else f"{child.mean:.3g}",
                    "-" if child.count == 0 else f"{child.quantile(0.5):.3g}",
                    "-" if child.count == 0 else f"{child.quantile(0.95):.3g}",
                ])
            else:
                value = child.value
                shown = (
                    str(int(value)) if float(value).is_integer()
                    else f"{value:.6g}"
                )
                rows.append([name, shown, "", "", ""])
    print(render_table(rows, header=["metric", "value/count", "mean",
                                     "p50", "p95"]))
    return 0


def _metrics_status_report(path: str) -> "list[str]":
    """Summarise a saved registry for ``cache-status``: the eviction
    breakdown and the journal fsync latency histogram."""
    from repro.obs import load_registry

    registry = _read("metrics file", path, load_registry)
    lines = [f"metrics ({path}):"]
    evictions = registry.get("landlord_evictions_total")
    if evictions is not None:
        parts = [
            f"{value} by {reason}"
            for (reason,), child in evictions.series()
            for value in [int(child.value)]
        ]
        lines.append("  evictions: " + (", ".join(parts) or "none"))
    fsync = registry.get("journal_fsync_seconds")
    if fsync is not None and fsync.series():
        child = fsync.series()[0][1]
        if child.count:
            lines.append(
                f"  journal fsync: {child.count} syncs, "
                f"mean {child.mean * 1e3:.2f} ms, "
                f"p50 {child.quantile(0.5) * 1e3:.2f} ms, "
                f"p95 {child.quantile(0.95) * 1e3:.2f} ms, "
                f"p99 {child.quantile(0.99) * 1e3:.2f} ms"
            )
    appends = registry.get("journal_appends_total")
    if appends is not None and appends.series():
        lines.append(
            f"  journal appends: {int(appends.series()[0][1].value)}"
        )
    return lines


def _cmd_cache_status(argv: Sequence[str]) -> int:
    from pathlib import Path

    from repro.util.tables import render_table
    from repro.util.units import format_bytes

    parser = argparse.ArgumentParser(prog="repro-landlord cache-status")
    _state_args(parser)
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="metrics registry accumulated by `submit "
                        "--metrics-out`; reports the journal fsync latency "
                        "histogram and the eviction breakdown")
    args = parser.parse_args(argv)
    _store, cache, _metadata, replayed = _open_site_state(
        args, _site_repository(args)
    )
    if replayed:
        print(f"journal: {len(replayed)} operation(s) pending beyond the "
              "snapshot (run `repro-landlord recover` to compact)")
    stats = cache.stats
    print(
        f"cache: {len(cache)} images, {format_bytes(cache.cached_bytes)} / "
        f"{format_bytes(cache.capacity)} "
        f"(unique {format_bytes(cache.unique_bytes)}, "
        f"efficiency {100 * cache.cache_efficiency:.0f}%), alpha {cache.alpha}"
    )
    print(
        f"lifetime: {stats.requests} requests — {stats.hits} hits, "
        f"{stats.merges} merges, {stats.inserts} inserts, "
        f"{stats.deletes} evictions; {format_bytes(stats.bytes_written)} "
        f"written"
    )
    if stats.deletes:
        print(f"eviction breakdown: {stats.evictions_capacity} by "
              f"capacity, {stats.evictions_idle} by idling")
    engine = getattr(cache, "_engine", None)
    prefilter = dict(getattr(engine, "prefilter_stats", None) or {})
    if prefilter.get("windowed") or prefilter.get("full"):
        print(f"prefilter: {prefilter['windowed']} windowed and "
              f"{prefilter['full']} full merge scan(s), "
              f"{prefilter['rows_scanned']} row(s) scanned")
    compaction = dict(getattr(engine, "compaction_stats", None) or {})
    if compaction.get("compactions"):
        print(f"engine: {compaction['compactions']} compaction(s) "
              f"reclaiming {compaction['rows_reclaimed']} row(s)")
    rows = [
        [img.id, img.package_count, format_bytes(img.size),
         img.merge_count, img.last_used]
        for img in sorted(cache.images, key=lambda i: -i.last_used)
    ]
    print(render_table(rows, header=["image", "pkgs", "size", "merges",
                                     "last used"]))
    if args.metrics_out:
        if Path(args.metrics_out).exists():
            for line in _metrics_status_report(args.metrics_out):
                print(line)
        else:
            print(f"no metrics file at {args.metrics_out}")
    return 0


def _cmd_recover(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-landlord recover",
        description="Explicit crash recovery: load the snapshot, replay "
        "the write-ahead journal tail, write a fresh snapshot covering "
        "it, and compact the journal.",
    )
    _state_args(parser)
    args = parser.parse_args(argv)
    with _site_lock(args.state, "retry once that writer exits"):
        store, cache, metadata, replayed = _open_site_state(
            args, _site_repository(args)
        )
        store.flush(cache, metadata)
    print(f"recovered: replayed {len(replayed)} journalled operation(s); "
          f"state covers {cache.stats.requests} requests "
          f"({len(cache)} images)")
    return 0


def _cmd_top(argv: Sequence[str]) -> int:
    from repro.obs import DEFAULT_WINDOW

    parser = argparse.ArgumentParser(
        prog="repro-landlord top",
        description="A top-style dashboard over a LANDLORD cache: replay "
        "a recorded --events-out JSONL stream frame by frame, or attach "
        "to a running `serve` (or `sweep --serve`) endpoint and poll "
        "/statusz.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-events", metavar="FILE",
                        help="replay a CacheEvent JSONL stream "
                        "(e.g. from `replay --events-out`)")
    source.add_argument("--url", metavar="URL",
                        help="poll a running observability endpoint, "
                        "e.g. http://127.0.0.1:9464")
    parser.add_argument("--every", type=int, default=100, metavar="N",
                        help="replay: one frame per N requests "
                        "(default: %(default)s)")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        metavar="N",
                        help="replay: rolling-window size "
                        "(default: %(default)s)")
    parser.add_argument("--capacity", type=_capacity, default=None,
                        help="replay: cache capacity (e.g. 300GB) so the "
                        "occupancy bar can be drawn")
    parser.add_argument("--alpha", type=float, default=None,
                        help="replay: merge threshold to display")
    parser.add_argument("--alert-rules", metavar="FILE", default=None,
                        help="replay: evaluate alert rules while "
                        "replaying (default: the built-in rule set)")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="attach: poll period (default: %(default)s)")
    parser.add_argument("--iterations", type=int, default=0, metavar="N",
                        help="attach: stop after N polls (0 = forever)")
    parser.add_argument("--width", type=int, default=76,
                        help="frame width in columns (default: %(default)s)")
    parser.add_argument("--headless", action="store_true",
                        help="print every frame sequentially instead of "
                        "redrawing in place (for pipes, logs, and CI)")
    args = parser.parse_args(argv)
    if args.from_events:
        return _top_from_events(args)
    return _top_attach(args)


def _print_frame(frame: str, headless: bool) -> None:
    """One dashboard frame: redraw in place, or append when headless."""
    if headless:
        print(frame)
        print()
    else:
        # ANSI clear + home, like watch(1); frames replace each other.
        print("\x1b[2J\x1b[H" + frame, flush=True)


def _top_from_events(args: argparse.Namespace) -> int:
    """`top --from-events`: frames from a recorded JSONL stream."""
    from repro.obs import AlertEngine, frames_from_events

    alerts = (
        AlertEngine(_alert_rules(args.alert_rules)) if args.alert_rules
        else AlertEngine()
    )
    try:
        for frame in frames_from_events(
            args.from_events,
            every=args.every,
            window=args.window,
            alerts=alerts,
            capacity=args.capacity,
            alpha=args.alpha,
            width=args.width,
        ):
            _print_frame(frame, args.headless)
    except FileNotFoundError as exc:
        raise _InputError(f"no event stream at {args.from_events}") from exc
    return 0


def _top_attach(args: argparse.Namespace) -> int:
    """`top --url`: poll a live /statusz endpoint and redraw."""
    import json as _json
    import time
    import urllib.error
    import urllib.request

    from repro.obs import render_frame
    from repro.obs.dashboard import HISTORY_SERIES

    url = args.url.rstrip("/") + "/statusz"
    history: "dict[str, list[float]]" = {
        name: [] for name in HISTORY_SERIES
    }
    polls = 0
    while True:
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                status = _json.load(response)
        except (urllib.error.URLError, OSError) as exc:
            raise _InputError(f"cannot reach {url}: {exc}") from exc
        series = status.get("window", {}).get("series", {})
        for name in HISTORY_SERIES:
            value = (
                status.get("occupancy") if name == "occupancy"
                else series.get(name)
            )
            history[name].append(
                float("nan") if value is None else float(value)
            )
        _print_frame(
            render_frame(status, width=args.width, history=history),
            args.headless,
        )
        polls += 1
        if args.iterations and polls >= args.iterations:
            return 0
        time.sleep(args.interval)


def _cmd_calibrate(argv: Sequence[str]) -> int:
    from repro.analysis.calibration import calibration_report

    parser = argparse.ArgumentParser(
        prog="repro-landlord calibrate",
        description="Measure a repository's structural statistics "
        "(closure amplification, core concentration, inter-spec "
        "distances) — the quantities the merge threshold lives against.",
    )
    _site_args(parser, repo=True)
    args = parser.parse_args(argv)
    _scale, repo = _site_repository(args)
    report = calibration_report(repo, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0


#: Every non-figure command: drives both dispatch and the help listing.
_COMMANDS: "dict[str, Callable[[Sequence[str]], int]]" = {
    "all": _cmd_all,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "replay": _cmd_replay,
    "submit": _cmd_submit,
    "serve": _cmd_serve,
    "cache-status": _cmd_cache_status,
    "recover": _cmd_recover,
    "explain": _cmd_explain,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "calibrate": _cmd_calibrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch a repro-landlord command; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = sorted([*_FIGURES, *_COMMANDS])
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("commands:", ", ".join(commands))
        return 0
    command, rest = argv[0], argv[1:]
    if command in _FIGURES:
        run = _FIGURES[command].main
    else:
        run = _COMMANDS.get(command)
    if run is None:
        print(f"unknown command: {command!r}; available: "
              f"{', '.join(commands)}", file=sys.stderr)
        return 2
    try:
        return run(rest)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
