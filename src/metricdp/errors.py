"""Exception types shared across the package.

Domain errors (bad arguments, violated preconditions) all derive from
DomainError, which itself derives from ValueError so callers can stay
generic.  SchemaError is reserved for malformed interchange documents and
deliberately sits outside the DomainError tree: the CLI maps the two
families to different exit codes.
"""


class DomainError(ValueError):
    """An operation was invoked outside its contract."""


class StructuralError(DomainError):
    """Input has the wrong shape or type to form a domain object."""


class InvalidMetricError(StructuralError):
    """A distance matrix violates the metric axioms.

    Carries the full validation report in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnknownLabelError(DomainError, KeyError):
    """A label is not a point of the space it was looked up in."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class NotLipschitzError(DomainError):
    """A function table admits no finite Lipschitz constant."""


class DegenerateMeasureError(DomainError):
    """A measure with zero total mass was used where mass is required."""


class NotUniformlyPositiveError(DomainError):
    """A base measure gives some ball zero mass, so no finite calibration
    exists at the requested radius."""


class SchemaError(Exception):
    """An interchange document does not match its expected schema."""
