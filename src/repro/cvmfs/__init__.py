"""Shrinkwrap image builds from a CVMFS-hosted repository.

The paper's prototype targets Singularity images built from CVMFS (the
CernVM File System) via **Shrinkwrap**, a tool *"for efficiently building
container images from CVMFS"* (§VI, Figure 2).  This subpackage models the
one step of that stack the evaluation times:

- :mod:`repro.cvmfs.shrinkwrap` — resolve a specification's dependency
  closure and account the bytes downloaded and written when materialising
  a container image, at package granularity.

Nothing touches the real filesystem: packages carry sizes only.  The
substrate gives Figure 2 its "preparation time" and the ``Landlord``
facade its per-build cost estimate.
"""

from repro.cvmfs.shrinkwrap import BuildReport, Shrinkwrap

__all__ = [
    "Shrinkwrap",
    "BuildReport",
]
