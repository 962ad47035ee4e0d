"""Container-image substrate.

Models the artifacts LANDLORD manages without ever executing a container:

- :mod:`repro.containers.image` — the immutable built image (contents,
  byte size, lineage).
- :mod:`repro.containers.layers` — Docker-style *layered* images, where
  history is additive and masked content still occupies storage; used for
  the Figure 1 layering-vs-composition comparison.
- :mod:`repro.containers.registry` — a content-indexed image registry
  that sites push built images to and pull from instead of rebuilding.
"""

from repro.containers.image import ContainerImage
from repro.containers.layers import Layer, LayeredImage, LayerStore
from repro.containers.registry import ImageRegistry, RegistryStats

__all__ = [
    "ContainerImage",
    "Layer",
    "LayeredImage",
    "LayerStore",
    "ImageRegistry",
    "RegistryStats",
]
