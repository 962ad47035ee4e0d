"""Container specifications.

The paper's key insight (§IV): *container specifications offer more
opportunities for management and optimization than containers themselves*.
A specification is a declarative, unordered set of package requirements.
Unlike build recipes, specifications can be compared (subset satisfaction),
combined (union/merge) and split without rebuilding from scratch.

:class:`ImageSpec` is an immutable value type wrapping a frozenset of
package ids.  Two operations carry the whole system:

- ``a.satisfies(b)`` — an image built from ``a`` can run a job requesting
  ``b`` iff ``b ⊆ a`` (the image meets the minimum requirements and merely
  includes extra, unrequested packages).
- ``a.merge(b)`` — the union spec; an image built from it can serve any job
  either constituent served.  Merge is commutative, associative and
  idempotent (property-tested in ``tests/core/test_spec_properties.py``).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional

__all__ = ["ImageSpec"]


class ImageSpec:
    """An immutable set of package requirements for a container image.

    Construction accepts any iterable of package-id strings; duplicates
    collapse.  The optional ``label`` is carried for provenance in reports
    and merged labels are joined with ``+`` (truncated, purely cosmetic).
    """

    __slots__ = ("_packages", "_label", "_hash")

    def __init__(self, packages: Iterable[str] = (), label: str = ""):
        if isinstance(packages, ImageSpec):
            pkgs: FrozenSet[str] = packages._packages
        elif isinstance(packages, frozenset):
            pkgs = packages  # kept as is: a drawn spec keeps its slots
        else:
            pkgs = frozenset(packages)
        for pid in pkgs:
            if not isinstance(pid, str) or not pid:
                raise TypeError(f"package ids must be non-empty strings, got {pid!r}")
        self._packages = pkgs
        self._label = label
        self._hash: Optional[int] = None

    # -- accessors -----------------------------------------------------------

    @property
    def packages(self) -> FrozenSet[str]:
        """The underlying frozenset of package ids."""
        return self._packages

    @property
    def label(self) -> str:
        """Human-readable provenance label (may be empty)."""
        return self._label

    def __len__(self) -> int:
        return len(self._packages)

    def __iter__(self) -> Iterator[str]:
        return iter(self._packages)

    def __contains__(self, package_id: object) -> bool:
        return package_id in self._packages

    def __bool__(self) -> bool:
        return bool(self._packages)

    # -- equality / hashing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ImageSpec):
            return self._packages == other._packages
        if isinstance(other, frozenset):
            return self._packages == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._packages)
        return self._hash

    def __repr__(self) -> str:
        label = f" {self._label!r}" if self._label else ""
        return f"ImageSpec({len(self._packages)} pkgs{label})"

    # -- the operations that matter -------------------------------------------

    def satisfies(self, request: "ImageSpec") -> bool:
        """True if an image with these contents can serve ``request``.

        Satisfaction is plain superset inclusion: every requested package is
        present; extra packages are harmless (§IV, "strict subset" reuse).
        """
        return request._packages <= self._packages

    def issubset(self, other: "ImageSpec") -> bool:
        """True if every package here is also in ``other``."""
        return self._packages <= other._packages

    def merge(self, other: "ImageSpec") -> "ImageSpec":
        """The composite specification: union of requirements (§IV).

        The result can be used in place of either constituent, since it
        meets the minimum requirements given in each.
        """
        if other._packages <= self._packages:
            return self
        if self._packages <= other._packages and not self._label:
            return other
        label = ""
        if self._label or other._label:
            label = "+".join(x for x in (self._label, other._label) if x)[:80]
        return ImageSpec(self._packages | other._packages, label=label)

    def intersection(self, other: "ImageSpec") -> "ImageSpec":
        """Shared requirements of two specifications."""
        return ImageSpec(self._packages & other._packages)

    def difference(self, other: "ImageSpec") -> "ImageSpec":
        """Packages required here but not in ``other`` (a split operation)."""
        return ImageSpec(self._packages - other._packages)

    # Operator sugar mirroring set semantics.
    __or__ = merge
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: "ImageSpec") -> bool:
        return self.issubset(other)

    def __ge__(self, other: "ImageSpec") -> bool:
        return other.issubset(self)

    # -- conveniences -----------------------------------------------------------

    @staticmethod
    def union_all(specs: Iterable["ImageSpec"]) -> "ImageSpec":
        """Union of many specs (the α=1 single all-purpose image)."""
        acc: set = set()
        for spec in specs:
            acc |= spec._packages
        return ImageSpec(acc)
