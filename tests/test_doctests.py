"""Docstring examples must stay true: run doctests for modules that
carry executable examples."""

import doctest

import pytest

import repro.core.similarity
import repro.core.spec
import repro.packages.package
import repro.util.rng
import repro.util.tables
import repro.util.units

MODULES = [
    repro.util.rng,
    repro.util.units,
    repro.util.tables,
    repro.packages.package,
    repro.core.spec,
    repro.core.similarity,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"
