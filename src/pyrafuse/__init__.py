"""Multiscale fusion of seismic geometric attributes.

Build a Gaussian pyramid of a seismic section or volume, compute a
geometric attribute (phase dip, dip angle, or most-positive/most-negative
curvature) at every scale, resize each coarse map back to full
resolution, and fuse the stack into a single noise-robust map.

Typical use::

    from pyrafuse import multiscale_attribute, AttributeKind
    fused = multiscale_attribute(section, AttributeKind.PHASE_DIP, scales=4)
"""

from __future__ import annotations

from .attributes import AttributeStack, attribute_stack, phase_dip
from .errors import (
    BoundsError,
    ConfigError,
    FormatError,
    ParameterError,
    PyrafuseError,
    ShapeError,
    SizeError,
    UnsupportedFormatError,
)
from .fusion import (
    FusionMethod,
    FusionSpec,
    default_weights,
    fuse,
    multiscale_attribute,
)
from .grid import (
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    Units,
)
from .gridio import describe_grid, export_pgm, parse_header, read_grid, write_grid
from .pyramid import GaussianKernel, build_pyramid, expand_to, gaussian_samples, make_kernel
from .segy import SegyImportOptions, decode_ibm32, encode_ibm32, read_segy
from .synth import (
    Fault,
    GroundTruth,
    NoiseDemoReport,
    PlaneEvent,
    QuadraticEvent,
    SynthSpec,
    derivative_noise_demo,
    make_synthetic,
    parse_synth_spec,
    ricker,
)

__version__ = "0.9.0"

__all__ = [
    "AttributeKind",
    "AttributeMap",
    "AttributeStack",
    "BoundsError",
    "ConfigError",
    "Fault",
    "FormatError",
    "FusionMethod",
    "FusionSpec",
    "GaussianKernel",
    "Grid2",
    "GroundTruth",
    "NoiseDemoReport",
    "ParameterError",
    "PlaneEvent",
    "PyrafuseError",
    "QuadraticEvent",
    "SegyImportOptions",
    "SeismicSection",
    "SeismicVolume",
    "ShapeError",
    "SizeError",
    "SynthSpec",
    "Units",
    "UnsupportedFormatError",
    "attribute_stack",
    "build_pyramid",
    "decode_ibm32",
    "default_weights",
    "derivative_noise_demo",
    "describe_grid",
    "encode_ibm32",
    "expand_to",
    "export_pgm",
    "fuse",
    "gaussian_samples",
    "make_kernel",
    "make_synthetic",
    "multiscale_attribute",
    "parse_header",
    "parse_synth_spec",
    "phase_dip",
    "read_grid",
    "read_segy",
    "ricker",
    "write_grid",
]
