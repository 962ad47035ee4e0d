"""Jobs.

A job in this reproduction is a specification plus a runtime; HTC streams
are just sequences of jobs (saved and replayed by :mod:`repro.htc.trace`,
timed by :mod:`repro.htc.arrivals`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.core.spec import ImageSpec

__all__ = ["Job"]


@dataclass(frozen=True)
class Job:
    """One unit of HTC work.

    Attributes:
        job_id: unique identity within a stream.
        spec: the packages the job requires (already closed or not is the
            submitter's concern; :class:`~repro.core.landlord.Landlord`
            can expand closures on preparation).
        runtime_seconds: modelled execution time once the container is up.
        user: submitting user/experiment tag (multi-tenant accounting).
    """

    job_id: str
    spec: ImageSpec
    runtime_seconds: float = 0.0
    user: str = ""

    def __post_init__(self) -> None:
        if self.runtime_seconds < 0:
            raise ValueError("runtime_seconds must be non-negative")

    @property
    def packages(self) -> FrozenSet[str]:
        return self.spec.packages

