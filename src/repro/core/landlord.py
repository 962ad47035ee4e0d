"""The LANDLORD facade: a lightweight job wrapper.

The paper deploys LANDLORD *"as an automated step during job submission"*:
on submit, it scans the image cache for something close to the job's
specification, creates or updates an image as necessary, and launches the
job inside it (§V, "LANDLORD Deployment").  :class:`Landlord` is that
wrapper: it owns a repository (for dependency closure), a
:class:`~repro.core.cache.LandlordCache` (Algorithm 1) and, optionally, a
Shrinkwrap cost model for preparation-time estimates.

>>> repo = build_sft_repository(n_packages=500)      # doctest: +SKIP
>>> landlord = Landlord(repo, capacity=50 * GB, alpha=0.8)   # doctest: +SKIP
>>> prepared = landlord.prepare(["app-0001/1.0/x86_64-el9"]) # doctest: +SKIP
>>> prepared.action                                  # doctest: +SKIP
<EventKind.INSERT: 'insert'>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional, Union

from repro.core.cache import CacheDecision, CachedImage, LandlordCache
from repro.core.events import EventKind
from repro.core.spec import ImageSpec
from repro.packages.conflicts import ConflictPolicy
from repro.packages.repository import Repository

__all__ = ["Landlord", "PreparedContainer"]


@dataclass(frozen=True)
class PreparedContainer:
    """What a submitted job gets back: a ready image plus what it cost.

    Attributes:
        image: the cache image the job will run inside (it may contain
            more than was asked for — that surplus is the container-
            efficiency cost of merging).
        action: how the request was satisfied (hit / merge / insert).
        requested_bytes: size of the exactly-requested image.
        bytes_written: I/O charged preparing this container (0 on a hit).
        prep_seconds: modelled preparation wall-clock (0.0 without a
            Shrinkwrap model attached).
        distance: Jaccard distance to the merge target (merges only).
    """

    image: CachedImage
    action: EventKind
    requested_bytes: int
    bytes_written: int
    prep_seconds: float
    distance: Optional[float] = None

    @property
    def container_efficiency(self) -> float:
        """Requested size over the size of the image actually used."""
        if self.image.size == 0:
            return 1.0
        return self.requested_bytes / self.image.size


class Landlord:
    """Online container management for a stream of job submissions.

    Args:
        repository: the software repository; supplies dependency closure
            and package sizes.
        capacity: image-cache capacity in bytes.
        alpha: the merge threshold (maximal Jaccard distance); the paper
            recommends a moderate 0.8 to start (§VI, "Tuning LANDLORD").
        conflict_policy: optional version-conflict checking.
        shrinkwrap: optional :class:`~repro.cvmfs.shrinkwrap.Shrinkwrap`
            used purely for preparation-time estimates.
        expand_closure: when True (default), specs passed to
            :meth:`prepare` are expanded to their dependency closure before
            hitting the cache — submit what the job *asks for* and LANDLORD
            completes it.  Disable for pre-closed specs (the simulator).
        **cache_kwargs: forwarded to :class:`LandlordCache` (hit selection,
            candidate ordering, eviction, event recording...).
    """

    def __init__(
        self,
        repository: Repository,
        capacity: int,
        alpha: float = 0.8,
        conflict_policy: Optional[ConflictPolicy] = None,
        shrinkwrap: Optional[object] = None,
        expand_closure: bool = True,
        **cache_kwargs: object,
    ):
        self.repository = repository
        self.shrinkwrap = shrinkwrap
        self.expand_closure = expand_closure
        self.cache = LandlordCache(
            capacity=capacity,
            alpha=alpha,
            package_size=repository.size_of,
            conflict_policy=conflict_policy,
            **cache_kwargs,  # type: ignore[arg-type]
        )

    @property
    def alpha(self) -> float:
        return self.cache.alpha

    @property
    def stats(self):
        """The underlying cache statistics."""
        return self.cache.stats

    def resolve(
        self, spec: Union[ImageSpec, AbstractSet[str], Iterable[str]]
    ) -> ImageSpec:
        """Expand a requirement set to its full dependency closure."""
        packages = spec.packages if isinstance(spec, ImageSpec) else spec
        return ImageSpec(self.repository.closure(packages))

    def prepare(
        self, spec: Union[ImageSpec, AbstractSet[str], Iterable[str]]
    ) -> PreparedContainer:
        """Prepare a suitable container image for one job submission."""
        if self.expand_closure:
            closed = self.resolve(spec)
        else:
            closed = spec if isinstance(spec, ImageSpec) else ImageSpec(spec)
        written_before = self.cache.stats.bytes_written
        decision: CacheDecision = self.cache.request(closed)
        bytes_written = self.cache.stats.bytes_written - written_before
        prep_seconds = 0.0
        if self.shrinkwrap is not None and bytes_written:
            # Only newly materialised content is downloaded; a merge rewrite
            # re-writes the whole image but re-fetches nothing it had.
            prep_seconds = self.shrinkwrap.prep_time(
                decision.bytes_added, bytes_written
            )
        return PreparedContainer(
            image=decision.image,
            action=decision.action,
            requested_bytes=decision.requested_bytes,
            bytes_written=bytes_written,
            prep_seconds=prep_seconds,
            distance=decision.distance,
        )
