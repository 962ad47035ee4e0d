"""Baseline image-management strategies.

The paper frames LANDLORD against the "imperfect solutions" of §III and the
two degenerate corners of its own α spectrum:

- :class:`ExactLRUPolicy` — cache images, reuse only on *identical* (or
  subset) requests, never merge.  Equivalent to ``LandlordCache(alpha=0)``;
  provided both as a convenience and as an independent implementation used
  to cross-check the α=0 limit in integration tests.
- :class:`SingleImagePolicy` — maintain one all-purpose image that absorbs
  every request (the α=1 corner / "full-repo image" behaviour grown lazily).
- :class:`FullRepoPolicy` — materialise the *entire* repository as one image
  up front; every request is then a hit against a huge container.
- :class:`NoCachePolicy` — build a fresh exact image for every request and
  throw it away; the floor for write I/O comparisons.

All implement the :class:`ImageProvider` protocol so the simulator can drive
any of them interchangeably.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Union

from repro.core.cache import CacheDecision, CacheStats, LandlordCache
from repro.core.events import EventKind
from repro.core.spec import ImageSpec
from repro.packages.repository import PackageIndex

__all__ = [
    "ImageProvider",
    "ExactLRUPolicy",
    "SingleImagePolicy",
    "FullRepoPolicy",
    "NoCachePolicy",
]

SpecLike = Union[ImageSpec, AbstractSet[str]]


class ImageProvider:
    """Protocol: anything that can serve image requests for job specs."""

    stats: CacheStats

    def request(self, spec: SpecLike) -> CacheDecision:
        """Serve one job request; see LandlordCache.request."""
        raise NotImplementedError

    @property
    def cached_bytes(self) -> int:
        raise NotImplementedError

    @property
    def unique_bytes(self) -> int:
        raise NotImplementedError

    @property
    def cache_efficiency(self) -> float:
        if self.cached_bytes == 0:
            return 1.0
        return self.unique_bytes / self.cached_bytes


class ExactLRUPolicy(LandlordCache):
    """Pure LRU image cache: subset reuse, no merging (the α=0 corner)."""

    def __init__(
        self,
        capacity: int,
        package_size: PackageIndex,
        **kwargs: object,
    ):
        kwargs.setdefault("record_events", False)
        super().__init__(capacity, 0.0, package_size, **kwargs)  # type: ignore[arg-type]


class SingleImagePolicy(ImageProvider):
    """One ever-growing all-purpose image (the α=1 corner).

    Unlike ``LandlordCache(alpha=1)`` — which still requires a *strictly*
    positive overlap because Algorithm 1 tests ``d_j < α`` — this policy
    merges unconditionally, including fully disjoint requests.  It does so
    by anchoring every request with a shared zero-byte meta-package, so the
    Jaccard distance to the resident image is always below 1; the anchor
    costs nothing and never affects byte accounting.  Capacity is
    unenforced: the point of this baseline is the image outgrowing any
    practical limit.
    """

    #: zero-size meta-package present in every request and in the image.
    ANCHOR = "single-image-anchor/0.0"

    def __init__(self, package_size: PackageIndex, record_events: bool = False):
        # The repository's packages plus the anchor, sized 0.
        sized = PackageIndex.of(
            dict(zip(package_size.ids, package_size.sizes.tolist()),
                 **{self.ANCHOR: 0})
        )
        self._inner = LandlordCache(
            capacity=1 << 62,
            alpha=1.0,
            package_size=sized,
            record_events=record_events,
        )

    @property
    def stats(self) -> CacheStats:
        return self._inner.stats

    @property
    def events(self) -> list:
        return self._inner.events

    @property
    def cached_bytes(self) -> int:
        return self._inner.cached_bytes

    @property
    def unique_bytes(self) -> int:
        return self._inner.unique_bytes

    def request(self, spec: SpecLike) -> CacheDecision:
        """Serve a request; always merges into the single resident image."""
        packages = spec.packages if isinstance(spec, ImageSpec) else frozenset(spec)
        return self._inner.request(packages | {self.ANCHOR})

    def __len__(self) -> int:
        return len(self._inner)


class FullRepoPolicy(ImageProvider):
    """Build the whole repository as a single image up front (§III).

    Every request is then a hit; container efficiency is
    ``requested / repo_size`` per job, and the initial build is charged as
    one enormous write (the paper's 24-hour NERSC full-repo deployments).
    """

    def __init__(
        self,
        all_packages: Iterable[str],
        package_size: PackageIndex,
        record_events: bool = False,
    ):
        self._cache = LandlordCache(
            capacity=1 << 62,
            alpha=0.0,
            package_size=package_size,
            record_events=record_events,
        )
        full = frozenset(all_packages)
        if not full:
            raise ValueError("FullRepoPolicy needs a non-empty repository")
        decision = self._cache.request(full)
        self._image = decision.image
        # The bootstrap build is part of setup cost, not of the request
        # stream the experiments account; reset the counters.
        build_bytes = self._cache.stats.bytes_written
        self._cache.stats = CacheStats()
        self.setup_bytes_written = build_bytes

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cached_bytes(self) -> int:
        return self._cache.cached_bytes

    @property
    def unique_bytes(self) -> int:
        return self._cache.unique_bytes

    def request(self, spec: SpecLike) -> CacheDecision:
        """Serve a request from the one full-repository image (always a hit)."""
        decision = self._cache.request(spec)
        if decision.action is not EventKind.HIT:
            raise KeyError(
                "request contains packages outside the repository image"
            )
        return decision

    def __len__(self) -> int:
        return 1


class NoCachePolicy(ImageProvider):
    """Build every requested image from scratch, keep nothing.

    ``bytes_written`` equals ``requested_bytes`` by construction; the floor
    of Figure 4c's "Requested Writes" line.
    """

    def __init__(self, package_size: PackageIndex):
        self._scratch = LandlordCache(
            capacity=1 << 62, alpha=0.0, package_size=package_size
        )
        self.stats = self._scratch.stats

    @property
    def cached_bytes(self) -> int:
        return 0

    @property
    def unique_bytes(self) -> int:
        return 0

    @property
    def cache_efficiency(self) -> float:
        return 1.0

    def request(self, spec: SpecLike) -> CacheDecision:
        """Build the exact requested image from scratch (never cached)."""
        packages = spec.packages if isinstance(spec, ImageSpec) else frozenset(spec)
        # Throw the previous image away first: every job builds from scratch.
        self._scratch.clear()
        decision = self._scratch.request(packages)
        self.stats = self._scratch.stats
        return decision

    def __len__(self) -> int:
        return 0
