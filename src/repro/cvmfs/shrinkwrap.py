"""Shrinkwrap: materialise a specification into a container image.

Figure 2's "Prep. Time" column measures *"the amount of time required to
create such an image by downloading the contents via Shrinkwrap and
compressing the resulting data into an image file"*.  This module models
that pipeline at package granularity:

1. resolve the specification's dependency closure against the repository;
2. download every package of the closure from CVMFS (each package is one
   opaque object of its repository size);
3. write the image file — every package in full, since container images
   carry complete copies.

Costs are returned as a :class:`BuildReport`; wall-clock estimates come from
a simple two-parameter bandwidth model (download and write streams overlap
poorly in practice, so the model just sums them plus a fixed setup cost).
The default bandwidths are calibrated in ``repro.htc.lhc`` so the seven
benchmark applications land near Figure 2's measured preparation times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Iterable, Union

from repro.core.spec import ImageSpec
from repro.packages.repository import Repository
from repro.util.units import MB

__all__ = ["BuildReport", "Shrinkwrap"]


@dataclass(frozen=True)
class BuildReport:
    """Outcome of one Shrinkwrap image build."""

    packages: FrozenSet[str]       # full closure materialised in the image
    image_bytes: int               # size of the written image file
    prep_seconds: float            # modelled preparation wall-clock


class Shrinkwrap:
    """Image builder over a repository.

    Args:
        repository: resolves dependency closures and package sizes.
        download_bw: modelled CVMFS download bandwidth, bytes/second.
        write_bw: modelled image write (compress+write) bandwidth.
        setup_seconds: fixed per-build overhead (mount, namespace setup).
    """

    def __init__(
        self,
        repository: Repository,
        download_bw: float = 200 * MB,
        write_bw: float = 300 * MB,
        setup_seconds: float = 5.0,
    ):
        if download_bw <= 0 or write_bw <= 0:
            raise ValueError("bandwidths must be positive")
        self.repository = repository
        self.download_bw = download_bw
        self.write_bw = write_bw
        self.setup_seconds = setup_seconds

    def resolve(
        self, spec: Union[ImageSpec, AbstractSet[str], Iterable[str]]
    ) -> FrozenSet[str]:
        """Dependency closure of a specification."""
        packages = spec.packages if isinstance(spec, ImageSpec) else spec
        return self.repository.closure(packages)

    def prep_time(self, bytes_downloaded: int, image_bytes: int) -> float:
        """Wall-clock model for a build."""
        return (
            self.setup_seconds
            + bytes_downloaded / self.download_bw
            + image_bytes / self.write_bw
        )

    def build(
        self,
        spec: Union[ImageSpec, AbstractSet[str], Iterable[str]],
        resolve_closure: bool = True,
    ) -> BuildReport:
        """Build the image for ``spec``: download the closure, write it.

        ``resolve_closure=False`` treats the spec as already closed (the
        cache simulator works with closed specs and must not re-expand).
        """
        packages = self.resolve(spec) if resolve_closure else frozenset(
            spec.packages if isinstance(spec, ImageSpec) else spec
        )
        image_bytes = self.repository.bytes_of(packages)
        return BuildReport(
            packages=packages,
            image_bytes=image_bytes,
            prep_seconds=self.prep_time(image_bytes, image_bytes),
        )
