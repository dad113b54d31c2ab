"""Exception hierarchy for quadfold.

Every error raised by the library derives from QuadfoldError so callers can
catch domain failures without masking programming errors.
"""


class QuadfoldError(Exception):
    """Base class for all quadfold domain errors."""


class InvalidSectorAngles(QuadfoldError):
    """Sector angles violate the developable degree-4 vertex invariants."""


class InvalidAngle(QuadfoldError):
    """An input angle is outside its permitted range."""


class OutOfDomain(QuadfoldError):
    """A driving angle lies outside the branch's fold interval."""


class WrongClass(QuadfoldError):
    """Operation applied to a vertex class it is not defined for."""


class DegenerateVertex(QuadfoldError):
    """Vertex parameters hit a degenerate configuration (e.g. both free
    sector angles of a flat-foldable vertex equal to pi/2)."""


class MonotonicityViolation(QuadfoldError):
    """A branch failed the strict-monotonicity scan."""

    def __init__(self, message, component=None, sample_pair=None):
        super().__init__(message)
        self.component = component
        self.sample_pair = sample_pair


class ValidationFailed(QuadfoldError):
    """A constructed unit failed its numerical validation."""


class EmptyInterval(QuadfoldError):
    """The common fold interval of a unit or pattern is the single point 0."""


class IncompatibleUnits(QuadfoldError):
    """Stitched units disagree on shared vertices, or an inner panel's
    sector angles do not sum to 2*pi."""


class LayoutFailure(QuadfoldError):
    """Planar layout construction failed (non-intersecting or inverted panel)."""

    def __init__(self, message, panel=None):
        super().__init__(message)
        self.panel = panel


class NegativeDof(QuadfoldError):
    """The independent-sector-angle count of a plan is negative."""


class NotABlanket(QuadfoldError):
    """Pattern is not a grid-structured quadrilateral blanket."""


class ClosureViolation(QuadfoldError):
    """Folded-state rotations around a vertex or cycle fail to close."""


class RigidityViolation(QuadfoldError):
    """A realized panel is no longer congruent to its planar counterpart."""


class SerializationError(QuadfoldError):
    """File export/import failed or the document is inconsistent."""
