"""Exception types shared across the package."""


class GeovarError(Exception):
    """Base class for all library errors."""


class TagMismatchError(GeovarError):
    """Group tag is neither ``"SE2"`` nor ``"SO3"``."""


class AlgebraShapeError(GeovarError):
    """Matrix is not in the image of the hat map (or has wrong shape)."""


class GroupInvariantError(GeovarError):
    """Matrix violates the defining invariants of its group."""


class SingularRetractionError(GeovarError):
    """Group element outside the injectivity region of the retraction.

    Typically a rotation angle too close to pi; the usual remedy is a
    smaller step size h.
    """


class SizeError(GeovarError):
    """Path or node array too short for the requested stencil."""


class ConfigError(GeovarError):
    """Invalid run configuration.

    Parameters
    ----------
    field : str
        Name of the offending config field.
    message : str
        Human-readable description.
    """

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class IllPosedBasisError(GeovarError):
    """Adapted basis of control/constraint covectors is rank deficient."""


class SingularSystemError(GeovarError):
    """Newton Jacobian singular: its LU failed or gave a non-finite step."""

    def __init__(self, iteration, cond):
        super().__init__(
            f"singular Jacobian at iteration {iteration} "
            f"(condition estimate {cond:.3e})"
        )
        self.iteration = iteration
        self.cond = cond


class DomainError(GeovarError):
    """Non-finite value encountered during evaluation."""
