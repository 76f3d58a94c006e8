"""Classical first-order evaluation and existential second-order checking.

An ESO sentence holds in a finite structure iff some interpretation of its
quantified function symbols (one flat lookup table each) makes the
first-order part true. Tables are enumerated exhaustively in lexicographic
order with early exit on the first witness; the total number of candidate
interpretations is checked against the budget up front, so an infeasible
instance fails loudly before any work is done.

The classical evaluator here is the only one in the package: the team
evaluator also uses it for dependence-free subformulas, row by row.  Each
caller charges its budget under its own context, "first-order evaluation"
here and "row evaluation" there.
"""

from __future__ import annotations

import itertools

from .budget import Budget
from .errors import BudgetExceededError, EvalError
from .structures import Structure, eval_term
from .syntax import (
    And, Bool, DepAtom, Equal, EsoSentence, Exists, Forall, Formula, Or,
    RelAtom, check_symbols, free_vars,
)

__all__ = ["fo_satisfies", "eso_satisfies"]


def _fo_eval(struct: Structure, f: Formula, env: dict[str, int],
             extra_fns: dict[str, tuple[int, tuple[int, ...]]] | None,
             budget: Budget | None, context: str) -> bool:
    if budget is not None:
        budget.spend(1, context)
    if isinstance(f, RelAtom):
        args = tuple(eval_term(struct, env, a, extra_fns) for a in f.args)
        return struct.rel_holds(f.rel, args) != f.negated
    if isinstance(f, Equal):
        same = (eval_term(struct, env, f.left, extra_fns)
                == eval_term(struct, env, f.right, extra_fns))
        return same != f.negated
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, And):
        return (_fo_eval(struct, f.left, env, extra_fns, budget, context)
                and _fo_eval(struct, f.right, env, extra_fns, budget, context))
    if isinstance(f, Or):
        return (_fo_eval(struct, f.left, env, extra_fns, budget, context)
                or _fo_eval(struct, f.right, env, extra_fns, budget, context))
    if isinstance(f, Exists):
        return any(_fo_eval(struct, f.body, {**env, f.var: a}, extra_fns, budget, context)
                   for a in range(struct.size))
    if isinstance(f, Forall):
        return all(_fo_eval(struct, f.body, {**env, f.var: a}, extra_fns, budget, context)
                   for a in range(struct.size))
    if isinstance(f, DepAtom):
        raise EvalError("dependence atoms have no classical first-order semantics")
    raise EvalError(f"cannot evaluate {f!r}")


def fo_satisfies(struct: Structure, formula: Formula,
                 env: dict[str, int] | None = None,
                 extra_fns: dict[str, tuple[int, tuple[int, ...]]] | None = None,
                 budget: Budget | None = None) -> bool:
    """Classical (Tarski) satisfaction of a first-order formula by one
    assignment. ``extra_fns`` supplies tables for symbols outside the
    signature, as (arity, flat table) pairs."""
    env = dict(env or {})
    check_symbols(formula, struct.sig,
                  extra_fns={n: a for n, (a, _) in (extra_fns or {}).items()})
    missing = free_vars(formula) - set(env)
    if missing:
        raise EvalError(f"assignment does not bind free variables {sorted(missing)}")
    return _fo_eval(struct, formula, env, extra_fns, budget,
                    "first-order evaluation")


def _candidate_count(struct: Structure, sentence: EsoSentence) -> int:
    total = 1
    for _, ar in sentence.functions:
        total *= struct.size ** (struct.size ** ar)
    return total


def eso_satisfies(struct: Structure, sentence: EsoSentence,
                  budget: Budget | None = None) -> bool:
    """Truth of an ESO sentence by exhaustive function-table search."""
    check_symbols(sentence.matrix, struct.sig,
                  extra_fns=dict(sentence.functions))
    count = _candidate_count(struct, sentence)
    if budget is not None and budget.would_exceed(count):
        raise BudgetExceededError("function table enumeration",
                                  budget.spent + count, budget.limit)
    n = struct.size
    prefix = sentence.prefix
    matrix = sentence.matrix

    def prefix_eval(i: int, env: dict[str, int],
                    tables: dict[str, tuple[int, tuple[int, ...]]]) -> bool:
        if i == len(prefix):
            return _fo_eval(struct, matrix, env, tables, budget,
                            "first-order evaluation")
        kind, var = prefix[i]
        if kind == "forall":
            return all(prefix_eval(i + 1, {**env, var: a}, tables) for a in range(n))
        return any(prefix_eval(i + 1, {**env, var: a}, tables) for a in range(n))

    fns = sentence.functions
    tables: dict[str, tuple[int, tuple[int, ...]]] = {}

    def search(i: int) -> bool:
        if i == len(fns):
            if budget is not None:
                budget.spend(1, "function table candidate")
            return prefix_eval(0, {}, tables)
        name, ar = fns[i]
        for table in itertools.product(range(n), repeat=n ** ar):
            tables[name] = (ar, table)
            if search(i + 1):
                return True
        tables.pop(name, None)
        return False

    return search(0)
