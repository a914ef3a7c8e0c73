"""Structured pole/zero signals and domain errors shared across the package.

Evaluation near a known pole or zero lattice raises :class:`PoleSignal`
carrying the lattice location instead of returning an infinity or NaN.
Callers that sample identities catch the signal and exclude the point;
the CLI maps it to a dedicated exit code.  :func:`outcome` is the one rule
that turns an evaluation into a value, a signal or a domain error, for
``eval``, ``grid`` and the point-list solvers alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


@dataclass
class PoleSignal(ArithmeticError):
    """Evaluation hit a pole or zero of a special function.

    Attributes
    ----------
    kind:     "pole" or "zero".
    location: the offending lattice point (e.g. the non-positive integer n
              with (w+eta)/omega == n), in the coordinates documented by
              the raising function.
    source:   name of the function that raised.
    """

    kind: str
    location: complex
    source: str

    def __str__(self) -> str:
        return f"{self.source}: {self.kind} at lattice point {self.location}"


class DomainError(ValueError):
    """Argument lies outside the documented domain of the operation."""


class UnsupportedRegimeError(DomainError):
    """Parameter regime is valid mathematics but outside this implementation."""


#: Half-width of the window around a pole/zero lattice point that triggers
#: a signal.  Relative to the lattice coordinate.
POLE_TOL = 1e-12


def near_nonpositive_integer(v: complex) -> int | None:
    """Return n <= 0 with |v - n| below POLE_TOL (scaled by max(1,|v|)), else None."""
    m = round(v.real)
    if m <= 0 and abs(v - m) <= POLE_TOL * max(1.0, abs(v)):
        return int(m)
    return None


def outcome(fn, *args):
    """fn(*args) as one of three outcomes: its value as a finite complex, the
    PoleSignal it raised, or a DomainError.

    The DomainError is the one fn raised, or one made for a floating-point
    failure (OverflowError, ZeroDivisionError, a math-domain ValueError) or a
    value that is not finite.  Any other exception propagates.
    """
    try:
        value = complex(fn(*args))
    except (ArithmeticError, ValueError) as exc:  # PoleSignal, DomainError among them
        return failure(exc)
    return finite(value)


def finite(value: complex):
    """The outcome of a call that returned the complex value: the value if it is
    finite, else a DomainError."""
    if cmath.isfinite(value):
        return value
    return DomainError(f"the value at these arguments is not finite ({value})")


def failure(exc: Exception):
    """The outcome of a call that raised exc: exc itself, without its
    traceback, for a PoleSignal or a DomainError, a DomainError for a
    floating-point failure; any other exception is raised again.

    An outcome keeps no traceback, so a list of outcomes holds no reference
    cycle through the frames that raised them."""
    if isinstance(exc, (PoleSignal, DomainError)):
        return exc.with_traceback(None)
    if isinstance(exc, (OverflowError, ZeroDivisionError)) or (
        isinstance(exc, ValueError) and str(exc) == "math domain error"
    ):
        return DomainError(f"floating point fails at these arguments ({type(exc).__name__}: {exc})")
    raise exc
