"""Exception types shared across the package."""

from __future__ import annotations


class LatlabError(Exception):
    """Base class for all latlab errors."""


class ParameterError(LatlabError, ValueError):
    """A family or operation parameter is out of range."""


class ValidationError(LatlabError, ValueError):
    """A value violates a structural invariant (bad edge list, wrong lengths)."""


class StructureError(LatlabError, ValueError):
    """The graph does not have the shape an operation requires (e.g. non-universal apex)."""


class PreconditionError(LatlabError, ValueError):
    """An operation's stated precondition does not hold for the given input."""


class TooLargeError(LatlabError, ValueError):
    """The instance exceeds the exact-computation scale limit."""


class ParseError(LatlabError, ValueError):
    """Malformed textual input.  Carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)


class CertificateError(LatlabError, ValueError):
    """A certificate document is malformed.  Carries the JSON field path."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{message} (at {path})"
        super().__init__(message)


class IntegrityError(CertificateError):
    """A certificate is well-formed but internally inconsistent on re-verification."""
