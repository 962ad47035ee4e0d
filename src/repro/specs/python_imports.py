"""Infer specifications from Python import statements.

Parses source with :mod:`ast` (never executes it) and collects top-level
imported module names: ``import numpy.linalg`` and
``from scipy.sparse import linalg`` contribute ``numpy`` and ``scipy``.
Relative imports (``from . import x``) are internal to the job's own code
and are ignored, as are modules from the standard library if a stdlib
filter is enabled (default: on, using :data:`sys.stdlib_module_names`).
"""

from __future__ import annotations

import ast
import sys
from typing import Set

from repro.specs.resolver import PackageResolver, SpecReport

__all__ = ["imported_modules", "spec_from_python_source"]

_STDLIB = frozenset(getattr(sys, "stdlib_module_names", ()))


def imported_modules(source: str, filename: str = "<string>") -> Set[str]:
    """Top-level module names imported by a Python source string.

    Raises :class:`SyntaxError` on unparseable source — a job script that
    does not parse cannot be analysed, and silently returning an empty
    spec would under-provision the container.
    """
    tree = ast.parse(source, filename=filename)
    modules: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: the job's own code
                continue
            if node.module:
                modules.add(node.module.split(".")[0])
    return modules


def spec_from_python_source(
    source: str,
    resolver: PackageResolver,
    filename: str = "<string>",
    skip_stdlib: bool = True,
) -> SpecReport:
    """Scan one source string and resolve its imports to a spec."""
    modules = imported_modules(source, filename)
    if skip_stdlib:
        modules = {m for m in modules if m not in _STDLIB}
    return resolver.resolve(sorted(modules))
