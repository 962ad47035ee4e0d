"""repro — a reproduction of LANDLORD (IPDPS 2020).

*Solving the Container Explosion Problem for Distributed High Throughput
Computing*, T. Shaffer, N. Hazekamp, J. Blomer, D. Thain.

LANDLORD manages a bounded cache of container images for streams of HTC
jobs by operating on container *specifications* (declarative package sets):
requests are served by superset reuse, merged into Jaccard-near images
(threshold α), or inserted fresh, with LRU eviction — trading container
bloat and merge I/O against cache storage.

Quick start::

    from repro import Landlord, build_sft_repository
    from repro.util.units import GB

    repo = build_sft_repository(n_packages=2000, target_total_size=150 * GB)
    landlord = Landlord(repo, capacity=300 * GB, alpha=0.8)
    prepared = landlord.prepare(repo.ids[:25])   # one job's requirements
    print(prepared.action, prepared.image.size)

Subpackages: :mod:`repro.core` (the contribution), :mod:`repro.packages`
(software repositories), :mod:`repro.cvmfs` (Shrinkwrap image-build cost
model), :mod:`repro.containers` (images, layering, registry),
:mod:`repro.htc` (workloads, simulator, traces), :mod:`repro.specs`
(specification inference), :mod:`repro.analysis` (sweeps, metrics),
:mod:`repro.experiments` (every paper figure).
"""

from repro.core import (
    ImageSpec,
    Landlord,
    LandlordCache,
    PreparedContainer,
    jaccard_distance,
    jaccard_similarity,
)
from repro.htc import SimulationConfig, simulate
from repro.packages import Repository, build_sft_repository

__version__ = "1.0.0"

__all__ = [
    "ImageSpec",
    "jaccard_distance",
    "jaccard_similarity",
    "LandlordCache",
    "Landlord",
    "PreparedContainer",
    "Repository",
    "build_sft_repository",
    "SimulationConfig",
    "simulate",
    "__version__",
]
