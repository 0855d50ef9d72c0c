"""Exception hierarchy shared across the package.

One class per decision a caller makes; the message says which check fired.

- ``ValidationError``: outside input is invalid (an instance, a file or a
  generator spec). Fix the input. ``groupgap`` exits 2.
- ``PreconditionViolated``: a function was called outside the regime its
  guarantee covers (an assignment that is not almost feasible, an
  unsaturated fractional solution, items over the total capacity, an
  element over half the capacity, a degenerate ratio bound). Called
  directly, the caller is at fault; ``groupgap`` exits 2. Inside
  ``pipeline.solve``, after strict validation, it can only come from a bug
  in the stage before, and leaves as ``InvariantViolated``.
- ``LimitExceeded``: a brute-force search hit its limit; carries the best
  value and witness found so far. ``groupgap`` exits 2.
- ``InvariantViolated``: a step that cannot fail on valid input failed, an
  internal bug. ``groupgap`` exits 4.

Every check raises explicitly rather than by ``assert``, so it stays live
under ``python -O``.
"""

from __future__ import annotations


class GroupGapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GroupGapError):
    """An instance, an instance file or a generator spec is invalid."""


class PreconditionViolated(GroupGapError):
    """A function was called outside the regime its guarantee covers."""


class LimitExceeded(GroupGapError):
    """A brute-force search exceeded its configured limits."""

    def __init__(self, message, best_value=None, best_witness=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_witness = best_witness


class InvariantViolated(GroupGapError):
    """A step that cannot fail on valid input failed; an internal bug."""
