"""Benchmark: the observability layer's disabled path must be ~free.

The instrumentation contract (DESIGN.md, "Observability") is that a
cache with no registry attached pays only ``is not None`` guards on its
hot paths — budgeted at <2% of request time.  That cost cannot be
measured by diffing two binaries, so this benchmark bounds it from
measurements of the current one:

1. time the guard pattern itself (slot attribute load + ``is None``
   test) in isolation, per evaluation;
2. time the Figure-4-style request workload end to end, uninstrumented,
   to get the per-request budget;
3. assert ``guards_per_request x guard_cost < 2%`` of a request.

A deliberately generous ``GUARDS_PER_REQUEST`` (about 3x the real site
count in ``LandlordCache.request``) keeps the bound honest against
refactors that add sites.

The *enabled* path — metrics registry plus rolling-window SLO tracker
attached, the full live-telemetry configuration ``serve`` runs — is
bounded too, at ≤25%: attaching telemetry is opt-in, so it
may cost real time, but "opt-in" must never become "unusable in
production".  The bound is deliberately loose (perf_counter calls and
histogram bucketing dominate it) and exists to catch regressions that
would make operators turn telemetry off.

Running this file writes ``BENCH_obs.json`` at the repository root, the
committed record of both ratios.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from repro.experiments.common import base_config, get_scale
from repro.htc.simulator import simulate
from repro.packages.sft import build_experiment_repository

REPO_ROOT = Path(__file__).resolve().parents[1]
OVERHEAD_BOUND = 0.02
# Full telemetry (metrics + SLO window) may cost real time, bounded so
# it stays deployable; see the module docstring.
ENABLED_OVERHEAD_BOUND = 0.25
# LandlordCache.request has ~8 `is not None` guard evaluations on the
# insert path (the worst case); budget triple that.
GUARDS_PER_REQUEST = 24


class _Holder:
    __slots__ = ("_ins", "_tracer")

    def __init__(self):
        self._ins = None
        self._tracer = None


def _guard_cost_seconds(n: int = 2_000_000) -> float:
    """Per-evaluation cost of the hot-path guard pattern."""
    holder = _Holder()
    t0 = perf_counter()
    for _ in range(n):
        pass
    empty = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(n):
        ins = holder._ins
        if ins is not None:  # pragma: no cover - never true here
            raise AssertionError
    guarded = perf_counter() - t0
    return max(guarded - empty, 0.0) / n


def _exemplar_cost_seconds(n: int = 200_000) -> float:
    """Per-observation cost of attaching an exemplar to a histogram.

    The enabled path now stamps ``landlord_request_seconds`` buckets
    with a ``request=<index>`` exemplar (the click-through to
    ``explain``); this isolates what that stamp adds on top of a plain
    ``observe`` so the committed record shows exemplars are not what
    operators would turn telemetry off over.
    """
    from repro.obs.metrics import MetricsRegistry

    hist = MetricsRegistry().histogram(
        "bench_exemplar_seconds", "exemplar cost probe"
    )
    t0 = perf_counter()
    for i in range(n):
        hist.observe(0.004)
    plain = perf_counter() - t0
    t0 = perf_counter()
    for i in range(n):
        hist.observe(0.004, exemplar=(("request", str(i)),))
    stamped = perf_counter() - t0
    return max(stamped - plain, 0.0) / n


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def test_disabled_path_overhead_under_bound():
    scale = get_scale("tiny")
    config = base_config(scale, seed=2020, alpha=0.75,
                         record_timeline=False)
    repository = build_experiment_repository(
        config.repo_kind, seed=config.seed,
        n_packages=config.n_packages,
        target_total_size=config.repo_total_size,
    )
    n_requests = config.n_unique * config.repeats

    enabled = config.with_(collect_metrics=True, collect_slo=True)
    disabled_s = _best_of(lambda: simulate(config, repository=repository))
    enabled_s = _best_of(lambda: simulate(enabled, repository=repository))
    guard_s = _guard_cost_seconds()
    exemplar_s = _exemplar_cost_seconds()

    per_request = disabled_s / n_requests
    disabled_overhead = GUARDS_PER_REQUEST * guard_s / per_request
    enabled_overhead = enabled_s / disabled_s - 1
    # One exemplar stamp per request (the landlord_request_seconds
    # observe site) as a fraction of the uninstrumented request budget.
    exemplar_overhead = exemplar_s / per_request

    payload = {
        "scale": "tiny",
        "seed": 2020,
        "requests": n_requests,
        "disabled_seconds": round(disabled_s, 4),
        "enabled_seconds": round(enabled_s, 4),
        "enabled_overhead_ratio": round(enabled_overhead, 4),
        "enabled_bound": ENABLED_OVERHEAD_BOUND,
        "guard_ns": round(guard_s * 1e9, 2),
        "guards_per_request": GUARDS_PER_REQUEST,
        "disabled_overhead_ratio": round(disabled_overhead, 6),
        "bound": OVERHEAD_BOUND,
        "exemplar_ns": round(exemplar_s * 1e9, 2),
        "exemplar_overhead_ratio": round(exemplar_overhead, 6),
    }
    (REPO_ROOT / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert disabled_overhead < OVERHEAD_BOUND, payload
    assert enabled_overhead < ENABLED_OVERHEAD_BOUND, payload
    # Exemplar stamping rides inside the enabled budget; it must stay a
    # small slice of it, not a second telemetry tax.
    assert exemplar_overhead < ENABLED_OVERHEAD_BOUND, payload
    # sanity: the instrumented run must still be the same simulation
    assert simulate(config, repository=repository).stats == simulate(
        enabled, repository=repository
    ).stats
