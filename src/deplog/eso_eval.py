"""Existential second-order checking by function-table search.

An ESO sentence holds in a finite structure iff some interpretation of its
quantified function symbols (one flat lookup table each) makes the
first-order part true. Tables are enumerated exhaustively in lexicographic
order with early exit on the first witness; the total number of candidate
interpretations is checked against the budget up front, so an infeasible
instance fails loudly before any work is done: the count's exponents are
cut at the bit length of the running budget's limit (or of 2**64), so it
is exact wherever it fits and never too large to build.

An ESO sentence is compiled once, by fo_eval's classical compiler: the
prefix into nested loops over its variables' slots and the matrix into
one closure, with each quantified function's table in a symbol slot that
the table search fills. _eso_plan is the one entry that builds that
plan, after checking the sentence's symbols against the signature. The
plan takes its budget per run, so one plan serves any number of calls:
eso_satisfies takes its plan from a small cache (as team_eval's entries
do) and builds it only on a miss, and equiv_check builds one per
sentence and call to run on every structure.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

from .budget import Budget, _budget_or, default_check_budget
from .errors import BudgetExceededError
from .fo_eval import _PlanCache, _Symbols, _compile_fo, _quantifier_loop
from .structures import Structure
from .syntax import EsoSentence, Signature, check_symbols

__all__ = ["eso_satisfies"]


def _eso_plan(sentence: EsoSentence, sig: Signature
              ) -> Callable[[Structure, Budget | None], bool]:
    """The sentence checked against the signature and compiled once; the
    result decides it, by table search, on any structure of the signature,
    spending from the budget each run is given (the default check budget
    when None)."""
    fns = sentence.functions
    check_symbols(sentence.matrix, sig, extra_fns=dict(fns))
    syms = _Symbols(name for name, _ in fns)
    slots = [syms.slot("extra", name) for name, _ in fns]
    prefix = sentence.prefix
    check = _compile_fo(sentence.matrix, tuple(v for _, v in prefix), syms,
                        "first-order evaluation")
    values, meter = syms.values, syms.meter
    for i in reversed(range(len(prefix))):
        check = _quantifier_loop(i, prefix[i][0] == "exists", check, values)
    env = [0] * len(prefix)
    # candidate tables per domain size, n ** entries with the exponents cut
    # at the given bits, those of the limit (or of 2**64): exact up to
    # there, past it a lower bound above the limit
    count = functools.cache(
        lambda n, bits: n ** min(sum(n ** min(a, bits) for _, a in fns), bits))

    def search(i: int, n: int) -> bool:
        if i == len(fns):
            meter[0](1, "function table candidate")
            return check(env)
        for table in itertools.product(range(n), repeat=n ** fns[i][1]):
            values[slots[i]] = table
            if search(i + 1, n):
                return True
        return False

    def run(struct: Structure, budget: Budget | None = None) -> bool:
        budget = _budget_or(budget, default_check_budget)
        n = struct.size
        tables = count(n, max(budget.limit, 2 ** 64).bit_length())
        if budget.would_exceed(tables):
            raise BudgetExceededError("function table enumeration",
                                      budget.spent + tables, budget.limit)
        syms.bind(struct, budget)
        return search(0, n)

    run.syms = syms
    return run


# the plans of eso_satisfies, reused from call to call
_PLANS = _PlanCache(lambda sentence, vars, sig: _eso_plan(sentence, sig))


def eso_satisfies(struct: Structure, sentence: EsoSentence,
                  budget: Budget | None = None) -> bool:
    """Truth of an ESO sentence by exhaustive function-table search.
    Spends from ``budget``, the default check budget when None."""
    sig = struct.sig
    budget = _budget_or(budget, default_check_budget)  # before the symbols
    return _PLANS.run(sentence, (), sig, struct, budget)
