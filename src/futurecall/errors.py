"""Exception hierarchy and the error payload attached to failed futures."""

from __future__ import annotations

from dataclasses import dataclass

EXECUTION_ERROR = "execution-error"
CANCELLED_DEPENDENCY = "cancelled-dependency"


@dataclass(frozen=True, slots=True)
class ErrorInfo:
    """Why a call (and its result future) ended badly.

    ``kind`` is ``execution-error`` for a tool's own failure and
    ``cancelled-dependency`` when the call was cancelled because an upstream
    call failed; ``origin_call`` names the failed root either way. It is the
    one record of the failure: the failed or cancelled result future holds
    it, and so does each of that future's field futures.
    """

    kind: str
    message: str
    origin_call: str | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message, "origin_call": self.origin_call}


class FuturecallError(Exception):
    """Base class for every error raised by this package."""


# -- futures -----------------------------------------------------------------

class UnknownFutureError(FuturecallError):
    pass


class AlreadyTerminalError(FuturecallError):
    pass


class UnresolvedArgumentError(FuturecallError):
    pass


class LeakedFutureError(FuturecallError):
    pass


# -- scheduling / execution ---------------------------------------------------

class DuplicateCallIdError(FuturecallError):
    pass


class BadPathTemplateError(FuturecallError):
    pass


class NotTerminalError(FuturecallError):
    pass


class GatesPendingError(FuturecallError):
    pass


# -- simulation ----------------------------------------------------------------

class EmptyQueueError(FuturecallError):
    pass


class DeadlockError(FuturecallError):
    """Raised when a wait can never be satisfied (event queue drained)."""


class ParseError(FuturecallError):
    pass


class ValidationError(FuturecallError):
    pass


class InvalidSchemaError(ValidationError):
    """A malformed tool schema: bad input, like any other validation error."""


# -- conversation driver -------------------------------------------------------

class ContextOverflowError(FuturecallError):
    pass


class ScriptExhaustedError(FuturecallError):
    pass


class ProtocolViolationError(FuturecallError):
    pass


# -- analysis -------------------------------------------------------------------

class OverlappingDecodeError(FuturecallError):
    pass


class CycleDetectedError(FuturecallError):
    pass


class IncompleteTraceError(FuturecallError):
    pass


class DomainError(FuturecallError):
    pass


class DegenerateInputError(FuturecallError):
    pass
