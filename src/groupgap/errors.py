"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GroupGapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GroupGapError):
    """An instance violates a structural invariant."""


class BadSize(ValidationError):
    def __init__(self, item_id, size):
        super().__init__(f"item {item_id} has size {size}, must be in (0, 1]")
        self.item_id = item_id


class BadPartition(ValidationError):
    """Groups do not partition the item id set exactly."""


class NegativeProfit(ValidationError):
    def __init__(self, item_id, bin_index, value):
        super().__init__(
            f"profit for item {item_id} in bin {bin_index + 1} is {value}, must be >= 0"
        )
        self.item_id = item_id
        self.bin_index = bin_index


class BadBinIndex(ValidationError):
    def __init__(self, item_id, bin_index, m):
        super().__init__(
            f"profit for item {item_id} references bin {bin_index + 1}, valid range is 1..{m}"
        )
        self.item_id = item_id
        self.bin_index = bin_index


class OversizedGroup(ValidationError):
    def __init__(self, group_id, size, cap):
        super().__init__(f"group {group_id} has total size {size} > cap {cap}")
        self.group_id = group_id


class InsufficientCapacity(GroupGapError):
    """Selected items cannot all be fully assigned within the total capacity."""


class UnsaturatedInput(GroupGapError):
    def __init__(self, item_id, total):
        super().__init__(f"item {item_id} has assigned fraction {total}, expected exactly 1")
        self.item_id = item_id


class InternalError(GroupGapError):
    """A step that cannot fail on valid input failed; indicates an internal bug."""


class InvariantViolated(InternalError):
    """A checked invariant of the solver chain does not hold; internal bug.

    Raised explicitly rather than by ``assert``, so the check stays live
    under ``python -O``.
    """


class NoCompleteMatching(InternalError):
    """No slot matching covers every selected item; indicates an internal bug."""


class NotAlmostFeasible(GroupGapError):
    """A bin overflows by more than one removable item."""


class PreconditionViolated(GroupGapError):
    """Input to the filling phase is outside the supported regime."""


class InternalStuck(InternalError):
    """No resolution step applies while an overfull bin remains; internal bug."""


class ReinsertionFailed(InternalError):
    """An evicted item fits in no bin; impossible when preconditions hold."""


class ElementTooLarge(GroupGapError):
    def __init__(self, element_id, size, half_cap):
        super().__init__(f"element {element_id} has size {size} > half capacity {half_cap}")
        self.element_id = element_id


class DegenerateDenominator(GroupGapError):
    """The closed-form ratio bound is undefined when sizes sum to (almost) 1."""


class LimitExceeded(GroupGapError):
    """A brute-force search exceeded its configured limits."""

    def __init__(self, message, best_value=None, best_witness=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_witness = best_witness


class GenerationError(GroupGapError):
    """The requested instance cannot be generated under the given constraints."""


class InstanceFormatError(GroupGapError):
    """A JSON instance document is malformed; the message names the field."""
