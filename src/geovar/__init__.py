"""Geometric variational integrators on trivial principal bundles.

Second-order (and k-th order) discrete variational equations on M x G for
G = SE(2) or SO(3), with higher-order constraints, applied to optimal
control of underactuated systems.  See the README for the CLI and the
module docstrings for the library API.
"""

from . import discrete, groups, models, ocp, oracle, retraction, solver
from .errors import (
    ConfigError,
    DomainError,
    GeovarError,
    IllPosedBasisError,
    SingularRetractionError,
    SingularSystemError,
    SizeError,
)

__version__ = "0.1.0"

__all__ = [
    "discrete",
    "groups",
    "models",
    "ocp",
    "oracle",
    "retraction",
    "solver",
    "GeovarError",
    "ConfigError",
    "DomainError",
    "IllPosedBasisError",
    "SingularRetractionError",
    "SingularSystemError",
    "SizeError",
]
