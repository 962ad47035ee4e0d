"""Repository: package lookup and memoised transitive dependency closure.

The closure operation (*"when building a simulated image, we recursively
include dependencies of requested software"*, §VI) is on the hot path of
every experiment — each simulated job request expands an initial selection
into a full image.  Closures are therefore memoised per package: the closure
of a package is itself plus the union of its dependencies' closures, and a
multi-package request is the union of per-package closures.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from repro.packages.package import Package

__all__ = ["PackageIndex", "Repository", "RepositoryError"]


class RepositoryError(ValueError):
    """Raised for malformed repositories: missing deps or dependency cycles."""


class PackageIndex:
    """A package numbering, and its size oracle.

    Calling it sizes one package, as ``Repository.size_of`` always has
    (``KeyError("unknown package: …")`` for a name it lacks).  It also
    carries the numbering itself: ``ids``, ``position`` mapping each id
    to its place in ``ids``, and ``sizes``, an ``int64`` array in the
    same order that cannot be written.  A cache shares all three
    read-only (:class:`repro.core.cache.LandlordCache`); nothing may
    change them.

    A repository's index (``Repository.size_of``, or :meth:`of` a
    mapping) numbers its packages in repository order, and every cache
    on the repository — restored ones included — numbers by it, so a
    mask on disk (a state file's image, a journal entry) means the same
    packages whoever wrote it.  :attr:`digest` names the numbering.
    """

    __slots__ = ("ids", "position", "sizes", "_digest")

    def __init__(self, ids: List[str], sizes: Iterable[int]):
        self.ids = ids
        self.position: Dict[str, int] = dict(zip(ids, range(len(ids))))
        if len(self.position) != len(ids):
            raise ValueError("a package index names a package twice")
        self.sizes = np.fromiter(sizes, dtype=np.int64, count=len(ids))
        negative = np.flatnonzero(self.sizes < 0)
        if negative.size:
            raise ValueError(
                f"negative size for package {ids[negative[0]]!r}"
            )
        self.sizes.flags.writeable = False
        self._digest: Optional[str] = None

    @classmethod
    def of(cls, sizes: Mapping[str, int]) -> "PackageIndex":
        """The index of a name → size mapping, in the mapping's order."""
        return cls(list(sizes), sizes.values())

    def __len__(self) -> int:
        return self.sizes.size

    def __call__(self, package_id: str) -> int:
        try:
            return int(self.sizes[self.position[package_id]])
        except KeyError:
            raise KeyError(f"unknown package: {package_id!r}") from None

    @property
    def digest(self) -> str:
        """SHA-256 of the ids in order: what a state file records of the
        numbering its masks index."""
        if self._digest is None:
            self._digest = "sha256:" + hashlib.sha256(
                "\n".join(self.ids).encode("utf-8")
            ).hexdigest()
        return self._digest


class Repository:
    """An immutable collection of packages forming a dependency DAG.

    Construction validates that every declared dependency exists and that the
    dependency graph is acyclic (real package repositories are DAGs; SFT
    build metadata yields a tree-like structure).

    The repository also serves as the size oracle: :meth:`bytes_of` maps any
    set of package ids to its total installed size, which is what the cache
    simulation charges for image storage and I/O.  :attr:`size_of` sizes
    one package and is the repository's :class:`PackageIndex`, built
    here once: caches on this repository share its numbering.
    """

    def __init__(self, packages: Iterable[Package]):
        self._packages: Dict[str, Package] = {}
        # While every dependency was inserted before its dependent, the
        # insertion order is a topological order: nothing dangles and
        # nothing cycles, and this one walk has shown it.  The generators
        # all emit that order; anything else gets the full checks.
        deps_first = True
        for pkg in packages:
            if pkg.id in self._packages:
                raise RepositoryError(f"duplicate package id: {pkg.id!r}")
            if deps_first:
                for dep in pkg.deps:
                    if dep not in self._packages:
                        deps_first = False
                        break
            self._packages[pkg.id] = pkg
        self._closures: Dict[str, FrozenSet[str]] = {}
        if not deps_first:
            self._check_dag()
        self._ids: List[str] = sorted(self._packages)
        self._total_size: Optional[int] = None
        # Eager: a process forked after the build (a sweep worker, a
        # cold recovery) inherits the index instead of building its own.
        packages = self._packages
        self.size_of = PackageIndex(
            self._ids, (packages[pid].size for pid in self._ids)
        )

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._packages)

    def __contains__(self, package_id: str) -> bool:
        return package_id in self._packages

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __getitem__(self, package_id: str) -> Package:
        try:
            return self._packages[package_id]
        except KeyError:
            raise KeyError(f"unknown package: {package_id!r}") from None

    @property
    def ids(self) -> List[str]:
        """All package ids in deterministic (sorted) order."""
        return list(self._ids)

    @property
    def packages(self) -> Mapping[str, Package]:
        """Read-only view of the id -> package mapping."""
        return dict(self._packages)

    # -- validation ----------------------------------------------------------

    def _check_dag(self) -> None:
        """Every dependency exists and none closes a cycle.

        A missing dependency anywhere is reported before any cycle;
        cycles by an iterative three-colour DFS, raising on the first
        back-edge found.
        """
        for pkg in self._packages.values():
            for dep in pkg.deps:
                if dep not in self._packages:
                    raise RepositoryError(
                        f"package {pkg.id!r} depends on missing {dep!r}"
                    )
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {pid: WHITE for pid in self._packages}
        for root in self._packages:
            if colour[root] != WHITE:
                continue
            stack: List[tuple] = [(root, iter(self._packages[root].deps))]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for dep in it:
                    if colour[dep] == GREY:
                        raise RepositoryError(
                            f"dependency cycle through {dep!r}"
                        )
                    if colour[dep] == WHITE:
                        colour[dep] = GREY
                        stack.append((dep, iter(self._packages[dep].deps)))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()

    # -- closures ------------------------------------------------------------

    def closure_of(self, package_id: str) -> FrozenSet[str]:
        """Transitive dependency closure of one package (includes itself)."""
        cached = self._closures.get(package_id)
        if cached is not None:
            return cached
        pkg = self._packages.get(package_id)
        if pkg is None:
            raise KeyError(f"unknown package: {package_id!r}")
        # Iterative post-order so deep chains don't hit the recursion limit.
        order: List[str] = []
        seen = set()
        stack = [package_id]
        while stack:
            node = stack.pop()
            if node in seen or node in self._closures:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(self._packages[node].deps)
        # Process in reverse discovery order; dependencies of a node were
        # discovered after it, so by the time we pop back to it they resolve
        # either from the memo or from this batch.
        for node in reversed(order):
            acc = {node}
            for dep in self._packages[node].deps:
                acc |= self._closures.get(dep) or self.closure_of(dep)
            self._closures[node] = frozenset(acc)
        return self._closures[package_id]

    def warm_closures(self) -> None:
        """Memoise every package's closure in one pass over the DAG.

        Sweeps call this in the parent before forking workers so the
        whole memo is inherited and no worker re-walks the DAG — the
        per-worker warm-up this amortises dominates small parallel
        sweeps.
        """
        for pid in self._ids:
            self.closure_of(pid)

    def closure(self, package_ids: Iterable[str]) -> FrozenSet[str]:
        """Closure of a set of packages: union of per-package closures.

        This is the "expand a selection into a full image" operation used by
        the workload generators (paper §VI, *Simulating HTC Jobs*).
        """
        acc: set = set()
        for pid in package_ids:
            acc |= self.closure_of(pid)
        return frozenset(acc)

    # -- sizes ---------------------------------------------------------------

    def bytes_of(self, package_ids: Iterable[str]) -> int:
        """Total installed size of a set of packages in bytes.

        Duplicates in the input are counted once (inputs are treated as a
        set, matching image semantics: an image holds one copy per package).
        """
        seen = set()
        total = 0
        for pid in package_ids:
            if pid in seen:
                continue
            seen.add(pid)
            total += self[pid].size
        return total

    @property
    def total_size(self) -> int:
        """Total installed size of the whole repository in bytes."""
        if self._total_size is None:
            self._total_size = sum(p.size for p in self._packages.values())
        return self._total_size

    # -- structure stats -----------------------------------------------------

    def dependents_index(self) -> Dict[str, List[str]]:
        """Reverse-dependency index: id -> ids that directly depend on it."""
        index: Dict[str, List[str]] = {pid: [] for pid in self._packages}
        for pkg in self._packages.values():
            for dep in pkg.deps:
                index[dep].append(pkg.id)
        return index

    def stats(self) -> Dict[str, float]:
        """Summary statistics used in reports and sanity tests."""
        n = len(self._packages)
        dep_counts = [len(p.deps) for p in self._packages.values()]
        return {
            "packages": n,
            "total_size": self.total_size,
            "mean_size": self.total_size / n if n else 0.0,
            "mean_direct_deps": sum(dep_counts) / n if n else 0.0,
            "max_direct_deps": max(dep_counts) if dep_counts else 0,
            "roots": sum(1 for c in dep_counts if c == 0),
        }
