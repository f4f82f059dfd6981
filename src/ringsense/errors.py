"""Exception hierarchy shared by all ringsense modules, the two checked
readers every ``from_dict`` uses for the numbers of an input file, and the
unknown-key check of the JSON objects a configuration file holds.

Two families matter for the CLI exit-code contract: ``ValidationFailure``
(bad or out-of-range input, exit code 1) and ``NumericalFailure``
(a solve that cannot proceed, exit code 2). I/O problems are plain
``OSError`` and map to exit code 3.

A subclass exists only where a caller tells it apart; every other failure
raises its base class with its own message. ``EulerOutOfRange`` is caught
by ``contact.run_episode``, which skips that frame. ``TooFewTagsVisible``,
``DegenerateConfiguration``, ``BehindCamera`` and ``NonPositiveDepth`` are
the ways one frame's pose solve fails, from which the planned per-frame
statuses of ``estimate`` are mapped.
"""

from __future__ import annotations


class RingSenseError(Exception):
    """Base class for all ringsense-specific errors."""


class ValidationFailure(RingSenseError):
    """Input violates a documented precondition or invariant."""


class NumericalFailure(RingSenseError):
    """A numerical procedure cannot produce a valid result."""


def read_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number; a boolean, a string or
    any other value raises ValidationFailure naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationFailure(f"{name} must be a number, got {value!r}")
    return float(value)


def read_integer(value, name: str) -> int:
    """``value`` if it is a JSON integer; a boolean, a float such as 1.9 or
    2.0, a string or any other value raises ValidationFailure naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationFailure(f"{name} must be an integer, got {value!r}")
    return value


def check_keys(data: dict, known, what: str) -> None:
    """Raise ValidationFailure naming every key of the JSON object ``data``
    (a ``what``) that is not in ``known``, such as a misspelt field that a
    reader would otherwise ignore."""
    unknown = sorted(data.keys() - set(known))
    if unknown:
        raise ValidationFailure(f"unknown keys {unknown} in {what}; known: {', '.join(known)}")


class NonPositiveDepth(NumericalFailure):
    """Point is at or behind the camera plane (z <= 0)."""


class EulerOutOfRange(ValidationFailure):
    """Euler angle magnitude at or beyond pi/2, outside the operating regime."""


class TooFewTagsVisible(ValidationFailure):
    """Fewer tags than the solver minimum remain after masking."""


class DegenerateConfiguration(NumericalFailure):
    """Reference points are too few, collinear or not coplanar for a pose solve."""


class BehindCamera(NumericalFailure):
    """No sign choice places the reconstructed points at positive depth."""

