"""Exact-arithmetic approximation pipeline for grouped assignment problems.

Items partitioned into groups must be packed into unit bins; a group pays
off only when all of its items are placed. The solver selects groups via
submodular maximization over the assignment LP's value, reserving half the
capacity; rounds an optimal fractional solution to an almost feasible
assignment; and repairs it into a feasible one, certifying every stage's
inequality with exact rationals.
"""

from .errors import GroupGapError, ValidationError
from .exact import solve_exact
from .generate import GeneratorSpec, generate
from .lp_oracle import LpOracle
from .model import (
    Assignment,
    Group,
    Instance,
    Item,
    assignment_profit,
    is_feasible,
    parse_rational,
    render_rational,
    validate_instance,
)
from .pipeline import SolveReport, solve, upper_bound

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "GeneratorSpec",
    "Group",
    "GroupGapError",
    "Instance",
    "Item",
    "LpOracle",
    "SolveReport",
    "ValidationError",
    "assignment_profit",
    "generate",
    "is_feasible",
    "parse_rational",
    "render_rational",
    "solve",
    "solve_exact",
    "upper_bound",
    "validate_instance",
]
