"""Tests for repro.specs.python_imports."""

import pytest

from repro.packages.package import Package
from repro.packages.repository import Repository
from repro.specs.python_imports import (
    imported_modules,
    spec_from_python_source,
)
from repro.specs.resolver import PackageResolver


@pytest.fixture()
def resolver():
    repo = Repository(
        [Package("numpy/1.24.0", 1), Package("scipy/1.10.0", 1),
         Package("pandas/2.0.0", 1)]
    )
    return PackageResolver(repo)


class TestImportedModules:
    def test_plain_import(self):
        assert imported_modules("import numpy") == {"numpy"}

    def test_dotted_import_takes_top_level(self):
        assert imported_modules("import numpy.linalg.lapack") == {"numpy"}

    def test_from_import(self):
        assert imported_modules("from scipy.sparse import linalg") == {"scipy"}

    def test_aliased_and_multiple(self):
        mods = imported_modules("import numpy as np, pandas as pd")
        assert mods == {"numpy", "pandas"}

    def test_relative_imports_ignored(self):
        assert imported_modules("from . import helpers") == set()
        assert imported_modules("from ..pkg import x") == set()

    def test_nested_imports_found(self):
        source = "def f():\n    import scipy\n"
        assert imported_modules(source) == {"scipy"}

    def test_conditional_imports_found(self):
        source = "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        assert imported_modules(source) == {"numpy"}

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            imported_modules("import (")


class TestSpecFromSource:
    def test_stdlib_filtered_by_default(self, resolver):
        report = spec_from_python_source(
            "import os, sys, numpy", resolver
        )
        assert report.spec.packages == {"numpy/1.24.0"}
        assert report.complete

    def test_stdlib_kept_when_disabled(self, resolver):
        report = spec_from_python_source(
            "import os, numpy", resolver, skip_stdlib=False
        )
        assert "os" in report.unresolved

    def test_unknown_third_party_reported(self, resolver):
        report = spec_from_python_source("import torch", resolver)
        assert report.unresolved == ("torch",)
