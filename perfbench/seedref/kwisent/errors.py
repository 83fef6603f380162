"""Exception types shared across the package."""

from __future__ import annotations


class KwisentError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(KwisentError, ValueError):
    """A dimension or vector size is outside the supported range."""


class ResourceLimitError(KwisentError):
    """A brute-force guard refused a combinatorially explosive request."""


class FormatError(KwisentError, ValueError):
    """Malformed text input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IndependenceError(KwisentError):
    """A distribution fails the independence order a computation requires."""

    def __init__(self, level: int, magnitude: float):
        self.level = level
        self.magnitude = magnitude
        super().__init__(
            f"level-{level} Fourier coefficient has magnitude {magnitude:.6g}; "
            f"required independence order is not certified"
        )
