"""Image-request workload generation — the paper's two schemes (§VI).

**Dependency scheme** (the realistic one): *"For each simulated request, we
chose a random selection of packages and then added the closure of the
package dependencies.  …the initial selection of packages, however, is
simply uniformly random"* with *"an initial selection of up to 100
packages"*.

**Uniform-random scheme** (the control for Figure 7): start from an image
generated by the dependency scheme, keep only its total package *count*,
then draw that many packages uniformly at random from the whole repository,
*"ignoring usage information and package dependencies"*.

A stream of simulated jobs is ``n_unique`` distinct specifications each
repeated ``repeats`` times (Figure 5: *"500 unique job specifications, each
one repeated five times"*), shuffled.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from repro.core.spec import ImageSpec
from repro.htc.job import Job
from repro.packages.repository import DrawnSpec, Repository

__all__ = [
    "WorkloadScheme",
    "DependencyWorkload",
    "RandomWorkload",
    "UserDriftWorkload",
    "build_stream",
    "jobs_from_specs",
]


class WorkloadScheme:
    """Interface: produce one unique image specification per call."""

    def __init__(self, repository: Repository, max_selection: int = 100):
        if max_selection < 1:
            raise ValueError("max_selection must be at least 1")
        if len(repository) == 0:
            raise ValueError("cannot generate workload over empty repository")
        self.repository = repository
        self.max_selection = min(max_selection, len(repository))
        self._ids = repository.ids

    def _initial_selection(self, rng: np.random.Generator) -> List[str]:
        size = int(rng.integers(1, self.max_selection + 1))
        picks = rng.choice(len(self._ids), size=size, replace=False)
        return [self._ids[int(i)] for i in picks]

    def sample(self, rng: np.random.Generator) -> FrozenSet[str]:
        """Draw one unique specification."""
        raise NotImplementedError

    def sample_specs(
        self, rng: np.random.Generator, n_unique: int
    ) -> List[FrozenSet[str]]:
        """Draw ``n_unique`` specifications (duplicates are not filtered —
        with 9,660 packages collisions are vanishingly rare, as in the
        paper's simulations)."""
        return [self.sample(rng) for _ in range(n_unique)]


class DependencyWorkload(WorkloadScheme):
    """Uniform random core selection expanded by dependency closure."""

    def sample(self, rng: np.random.Generator) -> FrozenSet[str]:
        """Closure of a uniform random selection (the paper's scheme)."""
        return self.repository.closure(self._initial_selection(rng))


class RandomWorkload(WorkloadScheme):
    """Same image *sizes* as the dependency scheme, contents uniform random.

    Matches the paper's construction exactly: each sample first generates a
    dependency-scheme image, takes its package count, and redraws that many
    packages uniformly from the whole repository.
    """

    def sample(self, rng: np.random.Generator) -> FrozenSet[str]:
        """A count-matched uniform random spec (the Figure 7 control)."""
        reference = self.repository.closure(self._initial_selection(rng))
        count = min(len(reference), len(self._ids))
        picks = rng.choice(len(self._ids), size=count, replace=False)
        return DrawnSpec(
            (self._ids[int(i)] for i in picks), self.repository.size_of
        )


class UserDriftWorkload(WorkloadScheme):
    """Temporally correlated specs: a user's requirements drift over time.

    The paper motivates the explosion with evolving work — *"as a user's
    work evolves, different jobs need different software, and new
    containers are generated"* (§I).  This scheme models that: each call
    mutates the previous spec's *core selection* by dropping and adding a
    few packages, then re-closes it.  Successive samples are therefore
    much closer in Jaccard distance than independent draws, which is the
    friendly case for merging (and the realistic one for per-user caches).

    Args:
        drift: fraction of the core selection replaced per step.
        session_length: every this-many samples the drift chain restarts
            from a fresh independent selection (a user switching projects).
    """

    def __init__(
        self,
        repository: Repository,
        max_selection: int = 100,
        drift: float = 0.2,
        session_length: int = 20,
    ):
        super().__init__(repository, max_selection)
        if not 0.0 <= drift <= 1.0:
            raise ValueError("drift must be in [0, 1]")
        if session_length < 1:
            raise ValueError("session_length must be positive")
        self.drift = drift
        self.session_length = session_length
        self._core: List[str] = []
        self._steps = 0

    def sample(self, rng: np.random.Generator) -> FrozenSet[str]:
        """The next spec in the drift chain (re-rolled at session ends)."""
        if not self._core or self._steps % self.session_length == 0:
            self._core = self._initial_selection(rng)
        else:
            core = list(self._core)
            n_replace = max(1, int(round(len(core) * self.drift)))
            n_replace = min(n_replace, len(core))
            drop_idx = rng.choice(len(core), size=n_replace, replace=False)
            dropped = set(drop_idx.tolist())
            keep = [c for i, c in enumerate(core) if i not in dropped]
            adds = [
                self._ids[int(i)]
                for i in rng.choice(len(self._ids), size=n_replace, replace=False)
            ]
            self._core = list(dict.fromkeys(keep + adds))
        self._steps += 1
        return self.repository.closure(self._core)


def build_stream(
    scheme: WorkloadScheme,
    rng: np.random.Generator,
    n_unique: int = 500,
    repeats: int = 5,
    shuffle: bool = True,
) -> List[FrozenSet[str]]:
    """A full request stream: unique specs × repeats, shuffled.

    The returned list reuses one drawn spec object for all repeats of a
    spec, so it is interned once: by the first cache on the repository
    that sees it (:class:`~repro.packages.repository.DrawnSpec`).
    """
    if n_unique < 1 or repeats < 1:
        raise ValueError("n_unique and repeats must be positive")
    uniques = scheme.sample_specs(rng, n_unique)
    stream = [spec for spec in uniques for _ in range(repeats)]
    if shuffle:
        order = rng.permutation(len(stream))
        stream = [stream[int(i)] for i in order]
    return stream


def jobs_from_specs(
    specs: Sequence[FrozenSet[str]],
    rng: Optional[np.random.Generator] = None,
    mean_runtime: float = 600.0,
    user: str = "",
) -> List[Job]:
    """Wrap raw specs into :class:`~repro.htc.job.Job` records.

    Runtimes are exponential around ``mean_runtime`` (HTC job durations are
    heavy-tailed); pass ``rng=None`` for zero-runtime jobs (pure cache
    studies).
    """
    jobs = []
    for i, spec in enumerate(specs):
        runtime = float(rng.exponential(mean_runtime)) if rng is not None else 0.0
        jobs.append(
            Job(
                job_id=f"job-{i:06d}",
                spec=spec if isinstance(spec, ImageSpec) else ImageSpec(spec),
                runtime_seconds=runtime,
                user=user,
            )
        )
    return jobs
