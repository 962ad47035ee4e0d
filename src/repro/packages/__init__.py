"""Software-repository substrate.

The paper treats a container specification as a set of packages drawn from a
structured software repository (CVMFS/SFT for the LHC case study).  This
subpackage models such repositories:

- :mod:`repro.packages.package` — the package record (unique name/version id,
  on-disk size, declared dependencies).
- :mod:`repro.packages.repository` — the repository container with memoised
  transitive dependency closure, the operation every experiment relies on.
- :mod:`repro.packages.depgen` — synthetic dependency-DAG generators
  (hierarchical/layered like real software stacks, uniform random, flat).
- :mod:`repro.packages.sizes` — package size distributions.
- :mod:`repro.packages.sft` — the SFT-like 9,660-package repository used by
  the paper's simulations, rebuilt synthetically and calibrated to Figure 3.
- :mod:`repro.packages.conflicts` — version-constraint conflict policies.
"""

from repro.packages.conflicts import (
    ConflictPolicy,
    NoConflicts,
    SlotConflicts,
)
from repro.packages.io import load_repository, save_repository
from repro.packages.package import Package, make_package_id, split_package_id
from repro.packages.repository import Repository, RepositoryError
from repro.packages.sft import build_sft_repository

__all__ = [
    "Package",
    "make_package_id",
    "split_package_id",
    "Repository",
    "RepositoryError",
    "save_repository",
    "load_repository",
    "build_sft_repository",
    "ConflictPolicy",
    "NoConflicts",
    "SlotConflicts",
]
