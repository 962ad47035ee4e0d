"""Specification-inference tools.

The paper (§V, "LANDLORD Deployment"): *"Simple specifications may be
hand-written; we also developed several simple analysis tools to
automatically generate specifications by scanning for Python import
statements, module load directives, or logs from previous jobs."*

This subpackage provides those scanners plus the resolver that maps the
short names they discover onto repository package ids:

- :mod:`repro.specs.resolver` — name → package-id resolution against a
  repository (latest version wins, aliases supported).
- :mod:`repro.specs.python_imports` — AST scan of Python sources.
- :mod:`repro.specs.modulefiles` — ``module load`` directive scan of shell
  scripts.
- :mod:`repro.specs.logparse` — CVMFS access-path extraction from job logs.
"""

from repro.specs.logparse import spec_from_log
from repro.specs.modulefiles import spec_from_module_script
from repro.specs.python_imports import spec_from_python_source
from repro.specs.resolver import PackageResolver, SpecReport

__all__ = [
    "PackageResolver",
    "SpecReport",
    "spec_from_python_source",
    "spec_from_module_script",
    "spec_from_log",
]
