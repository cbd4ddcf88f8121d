"""Encoder-decoder CNNs as explicit framelet operators.

Builds desk-scale 1-d encoder-decoder networks as dense matrix
operators, generates filter banks satisfying the layerwise frame
conditions, and numerically certifies perfect reconstruction, the
piecewise-linear representation, linear-region counts, Lipschitz
constants and optimization-landscape gradient bounds, each against
independent brute-force oracles.
"""

from . import analysis, frames, landscape, netbuild, seeding

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "frames",
    "landscape",
    "netbuild",
    "seeding",
    "__version__",
]
