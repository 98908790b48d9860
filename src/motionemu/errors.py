"""Exception types raised across the package.

Every error that callers are expected to catch derives from MotionError so
that CLI entry points can map failures onto a single machine-readable line.
"""


class MotionError(Exception):
    """Base class for all package-specific errors."""


class AntipodalPoints(MotionError):
    """Two unit vectors are antipodal (or close enough that the geodesic
    between them is not unique)."""


class NotTangent(MotionError):
    """A vector expected to lie in a tangent space has a component along
    the base point."""


class DimensionMismatch(MotionError):
    """Array shapes are incompatible with the requested operation."""


class LengthMismatch(DimensionMismatch):
    """Two per-frame label or sample arrays differ in length."""


class DegenerateBone(MotionError):
    """A bone vector has (near-)zero length and cannot be normalized."""

    def __init__(self, bone, frame=None):
        self.bone = bone
        self.frame = frame
        where = f"bone {bone}" if frame is None else f"bone {bone} at frame {frame}"
        super().__init__(f"degenerate {where}: length below threshold")


class BadTarget(MotionError):
    """A requested target size or index is out of range."""


class ReferenceMismatch(MotionError):
    """Two objects were built against different reference postures."""


class KindMismatch(MotionError):
    """A flattened field of one kind was passed where another is required."""


class InsufficientData(MotionError):
    """Not enough samples to fit the requested estimator."""


class NoConvergence(MotionError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


class SingularCovariance(MotionError):
    """A covariance matrix is singular where a density or factor is needed."""
