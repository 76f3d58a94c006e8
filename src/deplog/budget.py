"""Work budgets for the exhaustive checkers.

Every potentially exponential loop (candidate teams, candidate function
tables, structure enumeration) spends from a Budget and aborts with
BudgetExceededError when the limit is hit, so runaway instances fail loudly
instead of hanging.  A public entry given no budget makes a default one
below, whose limit DEPLOG_BUDGET overrides.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, ShapeError
from .syntax import _check_count

__all__ = [
    "Budget", "DEFAULT_CHECK_BUDGET", "DEFAULT_STRUCTURE_BUDGET",
    "default_check_budget", "default_structure_budget",
]

DEFAULT_CHECK_BUDGET = 10**7
DEFAULT_STRUCTURE_BUDGET = 10**6

_ENV_VAR = "DEPLOG_BUDGET"


class Budget:
    """Mutable spend counter with a hard limit."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        _check_count(limit, "budget")
        self.limit = limit
        self.spent = 0

    def spend(self, amount: int = 1, context: str = "work") -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceededError(context, self.spent, self.limit)

    def would_exceed(self, amount: int) -> bool:
        return self.spent + amount > self.limit


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def default_check_budget() -> Budget:
    """Budget for a single satisfaction/truth check."""
    return Budget(_env_override() or DEFAULT_CHECK_BUDGET)


def default_structure_budget() -> Budget:
    """Budget for enumerating the structures of one signature and size."""
    return Budget(_env_override() or DEFAULT_STRUCTURE_BUDGET)


def _budget_or(budget, default) -> Budget:
    """``budget``, or ``default()`` when it is None, for the evaluators and
    the enumeration; anything else that is not a Budget is a ShapeError."""
    if budget is None:
        return default()
    if not isinstance(budget, Budget):
        raise ShapeError(f"budget must be a Budget, got {budget!r}")
    return budget
