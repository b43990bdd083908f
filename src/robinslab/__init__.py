"""Solver and verification harness for a partially viscous slab flow model.

Velocity is carried as its square v = u^2; the stream function solves a
Robin-wall Poisson problem per lateral mode; vorticity evolves by a heat
flow with a Robin wall condition, propagated through an explicit splitting
into an all-Dirichlet slab part and a wall-decay part.  A Picard iteration
with a certified time horizon couples the two, and every growth, contraction
and energy estimate used along the way is measured and certified.
"""

from .domain import (
    Discretization,
    ModelParams,
    SpectralField3,
    d_z,
    field3_from_profile,
    pointwise_product,
    product_ratio,
    random_field3,
    sobolev_norm,
    zero_field3,
)
from .errors import (
    ConfigError,
    NoConvergenceError,
    NonFiniteError,
    ResonanceError,
    SingularSystemError,
    WorkerError,
)

__version__ = "0.1.0"

__all__ = [
    "Discretization",
    "ModelParams",
    "SpectralField3",
    "d_z",
    "field3_from_profile",
    "pointwise_product",
    "product_ratio",
    "random_field3",
    "sobolev_norm",
    "zero_field3",
    "ConfigError",
    "NoConvergenceError",
    "NonFiniteError",
    "ResonanceError",
    "SingularSystemError",
    "WorkerError",
]
