"""Exception hierarchy. Everything raised on purpose derives from QuadricaError."""

from __future__ import annotations

__all__ = [
    "QuadricaError",
    "NotAGroup",
    "NotARing",
    "NotAnAlgebra",
    "NotNormal",
    "NonCommutativeRing",
    "PreconditionUnmet",
    "NotComposable",
    "CertificateInvalid",
    "SearchSpaceTooLarge",
    "InvalidEpsilon",
    "CapExceeded",
    "ParseError",
    "ConsistencyError",
]


class QuadricaError(Exception):
    """Base class for all errors raised by this library."""


class NotAGroup(QuadricaError):
    """An operation table fails the group axioms (witness in the message)."""


class NotARing(QuadricaError):
    """An operation table fails the (near-)ring axioms."""


class NotAnAlgebra(QuadricaError):
    """Structure constants fail the axioms of the requested algebra flavour."""


class NotNormal(QuadricaError):
    """A subset is not a normal sub-structure of its parent."""


class NonCommutativeRing(QuadricaError):
    """Raised when an operation requires a commutative square ring and the
    input is not one.  Quadraticity is only defined over commutative square
    rings, so this is an error rather than a negative verdict."""


class PreconditionUnmet(QuadricaError):
    """Input fails a stated precondition of the operation."""


class NotComposable(QuadricaError):
    """Map composition attempted across mismatched modules."""


class CertificateInvalid(QuadricaError):
    """A certificate failed re-verification from scratch."""


class SearchSpaceTooLarge(QuadricaError):
    """A search visited more nodes than the caller-supplied limit."""

    def __init__(self, limit: int):
        super().__init__(f"search visited more than {limit} nodes")
        self.limit = limit


class InvalidEpsilon(QuadricaError):
    """The deformation parameter does not annihilate the ideal I2."""


class CapExceeded(QuadricaError):
    """A carrier is larger than the configured size cap."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what} has {size} elements, cap is {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class ParseError(QuadricaError):
    """Malformed input file."""


class ConsistencyError(QuadricaError):
    """Two independent computation routes disagreed, or a derived theorem
    failed on verified input.  Either indicates a bug, never bad user data."""
