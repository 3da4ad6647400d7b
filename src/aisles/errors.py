"""Exception hierarchy shared by all subsystems."""


class AislesError(Exception):
    """Base class for all package errors."""


class QuiverLoadError(AislesError):
    """Malformed quiver file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(AislesError):
    """Representation data does not match the quiver it claims to live over."""


class UnsupportedError(AislesError):
    """Input outside the supported class (e.g. non-Dynkin quiver)."""


class ConsistencyError(AislesError):
    """Two independent computations of the same quantity disagree.

    Raised when cross-validation fails (AR formula vs Coxeter transform,
    AR and gluing arrows vs the derived mesh rule, criterion vs
    definition).
    Always fatal: it means the generated tables cannot be trusted.
    """


class PreconditionError(AislesError):
    """A stated hypothesis of an operation does not hold for the input."""


class TruncationError(AislesError):
    """An operation on a truncated model stepped outside the represented range."""


class TiltingUnsupportedError(AislesError):
    """Tilting set outside the supported situation (torsion-free part not
    contained in the postprojectives)."""
