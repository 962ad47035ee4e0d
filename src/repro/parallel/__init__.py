"""Process-pool fan-out for embarrassingly parallel experiment workloads.

The paper's protocol (§VI) evaluates every figure as a grid of independent
simulations — *"at each choice of α (in steps of 0.05) we performed a set
of 20 simulated runs"* — which this subsystem executes across worker
processes instead of serially:

- :mod:`repro.parallel.seeds` — ``SeedSequence``-based derivation of
  per-repetition seeds, shared by the serial and parallel paths so both
  produce bit-identical results;
- :mod:`repro.parallel.pool` — the generic bounded, chunked,
  order-preserving process-pool map with a clean serial fallback;
- :mod:`repro.parallel.simulations` — simulation-specific workers: a
  :class:`SimulationPool` whose worker processes build the (expensive,
  shared) :class:`~repro.packages.repository.Repository` once each.

Worker counts resolve as: explicit argument > ``REPRO_WORKERS`` env var >
all CPUs, for library calls and the CLI alike (``workers=1`` is serial).
Results are keyed by task index, never by completion order, so any worker
count — including the serial fallback — yields identical output.
"""

from repro.parallel.pool import (
    ParallelExecutionError,
    parallel_map,
    resolve_workers,
)
from repro.parallel.seeds import repetition_seed_sequence, repetition_seeds
from repro.parallel.simulations import (
    RepositorySpec,
    SimulationPool,
    merge_result_metrics,
)

__all__ = [
    "ParallelExecutionError",
    "parallel_map",
    "resolve_workers",
    "repetition_seed_sequence",
    "repetition_seeds",
    "RepositorySpec",
    "SimulationPool",
    "merge_result_metrics",
]
