"""LANDLORD's core: specification-level container cache management.

This subpackage implements the paper's contribution proper:

- :mod:`repro.core.spec` — container *specifications* (declarative package
  sets) with subset-satisfaction and merge (union) semantics, the key insight
  of §IV.
- :mod:`repro.core.similarity` — Jaccard distance/similarity and related set
  metrics (§V, "Similarity Metric").
- :mod:`repro.core.cache` — :class:`LandlordCache`, Algorithm 1: reuse a
  superset image, else merge into a near image (Jaccard distance < α), else
  insert; LRU eviction under a byte capacity; full operation/byte accounting.
- :mod:`repro.core.policies` — the baseline strategies the paper compares
  against (exact-match LRU, single all-purpose image, full-repo image,
  no caching).
- :mod:`repro.core.landlord` — the job-wrapper facade that ties spec
  inference, the cache, and image building together.
"""

from repro.core.adaptive import AdaptationEvent, AlphaController
from repro.core.cache import CacheDecision, CacheStats, CachedImage, LandlordCache
from repro.core.engine import ENGINES, NaiveEngine, VectorizedEngine, make_engine
from repro.core.federation import FederatedLandlord, FederationStats
from repro.core.events import CacheEvent, EventKind
from repro.core.landlord import Landlord, PreparedContainer
from repro.core.policies import (
    ExactLRUPolicy,
    FullRepoPolicy,
    ImageProvider,
    NoCachePolicy,
    SingleImagePolicy,
)
from repro.core.similarity import (
    containment,
    jaccard_distance,
    jaccard_similarity,
    overlap_coefficient,
)
from repro.core.spec import ImageSpec
from repro.core.tenancy import MultiTenantLandlord, TenantDecision

__all__ = [
    "ImageSpec",
    "jaccard_distance",
    "jaccard_similarity",
    "containment",
    "overlap_coefficient",
    "LandlordCache",
    "CachedImage",
    "CacheDecision",
    "CacheStats",
    "CacheEvent",
    "EventKind",
    "ENGINES",
    "NaiveEngine",
    "VectorizedEngine",
    "make_engine",
    "ImageProvider",
    "ExactLRUPolicy",
    "SingleImagePolicy",
    "FullRepoPolicy",
    "NoCachePolicy",
    "Landlord",
    "PreparedContainer",
    "MultiTenantLandlord",
    "TenantDecision",
    "AlphaController",
    "AdaptationEvent",
    "FederatedLandlord",
    "FederationStats",
]
