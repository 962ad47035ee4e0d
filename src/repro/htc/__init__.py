"""High-throughput-computing substrate.

Models the job side of the paper's evaluation:

- :mod:`repro.htc.job` — jobs (a spec plus a runtime).
- :mod:`repro.htc.arrivals` — submit-time processes (Poisson, diurnal,
  campaign bursts) for throughput questions.
- :mod:`repro.htc.workload` — the paper's two image-request generation
  schemes (§VI, *Simulating HTC Jobs*): dependency-tree-based and uniform
  random, plus repeated-stream assembly.
- :mod:`repro.htc.lhc` — the seven LHC benchmark applications of Figure 2
  as model workloads over per-experiment repositories.
- :mod:`repro.htc.simulator` — the trace-driven cache simulation with
  per-request time series (Figures 4–8).
- :mod:`repro.htc.trace` — save/load/replay of job streams.
"""

from repro.htc.arrivals import (
    assign_arrival_times,
    campaign_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.htc.job import Job
from repro.htc.simulator import (
    SimulationConfig,
    SimulationResult,
    simulate,
    simulate_stream,
)
from repro.htc.workload import (
    DependencyWorkload,
    RandomWorkload,
    WorkloadScheme,
    build_stream,
)

__all__ = [
    "Job",
    "poisson_arrivals",
    "diurnal_arrivals",
    "campaign_arrivals",
    "assign_arrival_times",
    "WorkloadScheme",
    "DependencyWorkload",
    "RandomWorkload",
    "build_stream",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
    "simulate_stream",
]
