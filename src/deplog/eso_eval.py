"""Existential second-order checking by function-table search.

An ESO sentence holds in a finite structure iff some interpretation of its
quantified function symbols (one lookup table each) makes the first-order
part true. The tables are built as the matrix reads them, as in MACE-style
finite model finding (Claessen and Sörensson, 2003): each run starts them
empty, and the first read of an entry sets it to 0. The leading universal
block of the prefix runs as a counter over its instances (its variables'
values, in lexicographic order) and the rest of the prefix as loops inside
each instance. When an instance is false, the latest entry set that has a
value left takes the next one, the entries set after it are unset, and the
search resumes at the instance that first read it: the instances before
read only entries set earlier, which keep their values, so they still
hold. The sentence is true once every instance holds and false once no
entry has a value left. A function the matrix never reads costs nothing.

The budget is spent as the work is done, with no count up front: one
"function table candidate" unit per value tried for an entry and one
"first-order evaluation" unit per matrix node visited, so a run that runs
out stops at the first unit past the limit, and a sentence whose tables
are too many to enumerate is still decided when the search needs few of
their entries.

An ESO sentence is compiled once, by fo_eval's classical compiler: the
prefix after the leading universals (loops that spend nothing) and the
matrix into one generated function of an instance, which reads a
quantified function's table as it reads a structure's, at the flat index
of the arguments, spending the units it counted before each read. The
search's state stays here: each run puts an empty _Table in each such
function's slot, and the tables share the run's trail and instance.
_eso_plan is the one entry that builds that plan, after checking the
sentence's symbols against the signature. The plan takes its budget per
run, so one plan serves any number of calls: eso_satisfies takes its plan
from a small cache (as team_eval's entries do) and builds it only on a
miss, and equiv_check builds one per sentence and call to run on every
structure.
"""

from __future__ import annotations

from typing import Callable

from .budget import Budget, _budget_or, default_check_budget
from .fo_eval import _PlanCache, _Symbols, _compile_fo
from .structures import Structure
from .syntax import EsoSentence, Signature, _check_eso, check_symbols

__all__ = ["eso_satisfies"]


class _Table(dict):
    """A quantified function's table for one run of the search, keyed like a
    Structure's (by the flat index of the arguments) and empty at first:
    reading an absent entry sets it to 0, spends one "function table
    candidate" unit and puts (table, index, at[0]) on the run's trail.  The
    run that makes it sets its slots (a dict subclass with no __init__ of
    its own is made in half the time)."""

    __slots__ = ("meter", "trail", "at")

    def __missing__(self, key: int) -> int:
        self.meter[0](1, "function table candidate")
        self[key] = 0
        self.trail.append((self, key, self.at[0]))
        return 0


def _eso_plan(sentence: EsoSentence, sig: Signature
              ) -> Callable[[Structure, Budget | None], bool]:
    """The sentence checked against the signature and compiled once; the
    result decides it, by table search, on any structure of the signature,
    spending from the budget each run is given (the default check budget
    when None)."""
    _check_eso(sentence)
    fns = sentence.functions
    check_symbols(sentence.matrix, sig, extra_fns=dict(fns))
    syms = _Symbols()
    slots = [syms.slot("extra", name) for name, _ in fns]
    prefix = sentence.prefix
    # the leading universals are the instances; the rest loop per instance
    lead = next((i for i, (q, _) in enumerate(prefix) if q == "exists"),
                len(prefix))
    check = _compile_fo(sentence.matrix, tuple(v for _, v in prefix[:lead]),
                        syms, "first-order evaluation", prefix[lead:])
    values, meter = syms.values, syms.meter

    def run(struct: Structure, budget: Budget | None = None) -> bool:
        syms.bind(struct, _budget_or(budget, default_check_budget))
        trail, at = [], [0]  # the entries set, in order; the instance
        for k in slots:
            values[k] = table = _Table()
            table.meter, table.trail, table.at = meter, trail, at
        n = struct.size
        env = [0] * lead
        instance, count, top = 0, n ** lead, n - 1
        while instance < count:
            at[0] = instance
            if check(env):
                instance += 1
                for i in range(lead - 1, -1, -1):  # the next instance
                    if env[i] < top:
                        env[i] += 1
                        break
                    env[i] = 0
                continue
            # the latest entry with a value left takes the next one, and the
            # search resumes at the instance that first read it: the ones
            # before read only earlier entries, which keep their values
            while trail:
                table, key, instance = trail[-1]
                if table[key] < top:
                    meter[0](1, "function table candidate")
                    table[key] += 1
                    break
                del table[key]
                trail.pop()
            else:
                return False
            rest = instance
            for i in range(lead - 1, -1, -1):
                rest, env[i] = divmod(rest, n)
        return True

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
