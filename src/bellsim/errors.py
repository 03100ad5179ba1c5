"""Exception types shared across the package.

Every error raised by the library derives from :class:`BellSimError`, so
callers (notably the CLI) can distinguish simulation-domain failures from
programming errors.
"""

from __future__ import annotations

__all__ = [
    "BellSimError",
    "OamOverflow",
    "UnknownPath",
    "SamePath",
    "ZeroNorm",
    "DimensionMismatch",
    "NonPhysicalQ",
    "UnsortableOam",
    "LeakedAmplitude",
    "CalibrationFailure",
    "DimensionCap",
    "MalformedPattern",
    "CircuitSyntaxError",
    "CircuitSemanticError",
]


class BellSimError(Exception):
    """Base class for all simulator errors."""


class OamOverflow(BellSimError):
    """An operation tried to push an OAM index beyond the truncation bound.

    The amplitude is never silently wrapped.  Propagation parks the light
    and raises only if a state reaches it; the dense oracle's column for it
    is zero from that op on.
    """


class UnknownPath(BellSimError):
    """A mode or element placement referenced a path the space does not declare."""


class SamePath(BellSimError):
    """A two-path element was placed on a single path twice."""


class ZeroNorm(BellSimError):
    """A normalized construction was attempted from an (almost) zero vector."""


class DimensionMismatch(BellSimError):
    """Two states from different mode spaces (or arities) were combined."""


class NonPhysicalQ(BellSimError):
    """A q-plate charge whose doubled value is not an integer."""


class UnsortableOam(BellSimError):
    """An OAM-sign device received amplitude outside l = +1/-1."""


class LeakedAmplitude(BellSimError):
    """Amplitude ended up on a mode outside the declared detection origins.

    This signals a circuit bug (light escaping the analyzer), not bad input.
    """


class CalibrationFailure(BellSimError):
    """A sorter block of the decomposed readout misroutes a (pol, l=+1/-1) mode."""


class DimensionCap(BellSimError):
    """A dense assembly would exceed the configured per-photon dimension cap."""


class MalformedPattern(BellSimError):
    """A coincidence pattern that cannot be classified."""


class _PositionedError(BellSimError):
    """Common carrier for line/column diagnostics from the circuit parser."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class CircuitSyntaxError(_PositionedError):
    """Token-level problem in a circuit document (with expected-token hint)."""


class CircuitSemanticError(_PositionedError):
    """Well-formed line whose content is invalid (undeclared path, bad value...)."""
