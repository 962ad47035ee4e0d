"""The synthetic SFT repository.

The paper's simulations are driven by a dependency tree extracted from the
CERN SFT CVMFS repository: **9,660 packages**, where *"a program or library
typically provides packages for multiple versions, platforms, and
configurations"* and *"there are a number of core components that are
transitive dependencies of a large number of packages"* (§VI).

We do not have the SFT metadata, so this module rebuilds a repository with
the same statistical shape (see DESIGN.md §2 for the substitution argument):

- **core layer** — ~120 base framework / setup / calibration packages that
  everything transitively depends on;
- **framework layer** — ~2,040 library/toolchain packages depending on the
  core;
- **application layer** — ~7,500 leaf packages (the long tail), each provided
  in several version/platform variants of a project.

Package sizes are lognormal per layer and then rescaled so the repository
totals exactly ``target_total_size`` (default 700 GB, consistent with the
per-experiment CVMFS repo sizes in Figure 2 being measured in TB while SFT
hosts the shared core software).  Figure 3's closure-amplification curve is
regenerated from this repository by ``repro.experiments.fig3_image_size`` and
its shape is asserted by the test suite.
"""

from __future__ import annotations

from typing import List, Optional

from repro.packages.depgen import LayerSpec, layered_dag, random_dag, flat
from repro.packages.package import make_package_id
from repro.packages.repository import Repository
from repro.util.rng import spawn
from repro.util.units import GB, MB

__all__ = [
    "SFT_PACKAGE_COUNT",
    "build_sft_repository",
    "build_experiment_repository",
    "sft_layers",
]

SFT_PACKAGE_COUNT = 9660

_CORE_COUNT = 150
_FRAMEWORK_COUNT = 3500
_APP_COUNT = SFT_PACKAGE_COUNT - _CORE_COUNT - _FRAMEWORK_COUNT

_FRAMEWORK_VERSIONS = 3  # versions per framework project
_APP_VARIANTS = 4  # version x platform variants per application project

_PLATFORMS = ("x86_64-el7", "x86_64-el9", "aarch64-el9", "x86_64-ubuntu22")


def sft_layers(
    core_mean: float = 400 * MB,
    framework_mean: float = 100 * MB,
    app_mean: float = 40 * MB,
) -> List[LayerSpec]:
    """The three-layer structure of the synthetic SFT repository."""
    return [
        LayerSpec(count=_CORE_COUNT, mean_size=core_mean),
        LayerSpec(
            count=_FRAMEWORK_COUNT,
            dep_range=(3, 7),
            zipf_s=0.6,
            mean_size=framework_mean,
        ),
        LayerSpec(
            count=_APP_COUNT,
            dep_range=(4, 9),
            core_fraction=0.3,
            zipf_s=0.4,
            mean_size=app_mean,
        ),
    ]


def _sft_namer(layer: int, index: int) -> str:
    """Deterministic SFT-style naming with version/platform variants."""
    if layer == 0:
        return make_package_id(f"core-{index:03d}", "1.0")
    if layer == 1:
        project, version = divmod(index, _FRAMEWORK_VERSIONS)
        return make_package_id(f"fw-{project:04d}", f"{version + 1}.0")
    project, variant = divmod(index, _APP_VARIANTS)
    version = variant // len(_PLATFORMS) + 1
    platform = _PLATFORMS[variant % len(_PLATFORMS)]
    return make_package_id(f"app-{project:04d}", f"{version}.{variant}", platform)


def build_sft_repository(
    seed: Optional[int] = 2020,
    n_packages: int = SFT_PACKAGE_COUNT,
    target_total_size: int = 700 * GB,
) -> Repository:
    """Build the synthetic SFT repository.

    ``n_packages`` scales the whole structure proportionally (used by quick
    test/bench configurations); the layer ratio and dependency parameters are
    fixed.  The same ``seed`` always yields the identical repository.
    """
    if n_packages < 10:
        raise ValueError("n_packages must be at least 10")
    rng = spawn(seed, "sft-repo", n_packages)
    scale = n_packages / SFT_PACKAGE_COUNT
    layers = sft_layers()
    counts = [
        max(3, int(round(_CORE_COUNT * scale))),
        max(3, int(round(_FRAMEWORK_COUNT * scale))),
    ]
    counts.append(max(1, n_packages - sum(counts)))
    for spec, count in zip(layers, counts):
        spec.count = count
    return Repository(
        layered_dag(
            rng, layers, namer=_sft_namer, total_size=target_total_size
        )
    )


def build_experiment_repository(
    kind: str,
    seed: Optional[int] = 2020,
    n_packages: int = SFT_PACKAGE_COUNT,
    target_total_size: int = 700 * GB,
) -> Repository:
    """Build one of the repository structures compared in the evaluation.

    ``kind`` is ``"sft"`` (hierarchical, the paper's main configuration),
    ``"random"`` (unstructured DAG) or ``"flat"`` (no dependencies).
    """
    if kind == "sft":
        return build_sft_repository(seed, n_packages, target_total_size)
    rng = spawn(seed, f"{kind}-repo", n_packages)
    if kind == "random":
        packages = random_dag(rng, n_packages, total_size=target_total_size)
    elif kind == "flat":
        packages = flat(rng, n_packages, total_size=target_total_size)
    else:
        raise ValueError(f"unknown repository kind: {kind!r}")
    return Repository(packages)
