"""Equivalence oracle over enumerated structures, plus the built-in corpus.

equiv_check compares two sentences on the structures of a signature at
domain sizes 1..max_n (team semantics for dependence-logic sentences,
function-table search for function sentences) and reports either
equivalence up to that size or the first structure where the verdicts
differ.  Enumeration is size-ascending and lexicographic within a size,
so the reported counterexample is minimal and stable across runs.  Each
side is checked against the signature and compiled once (a team plan or a
table-search plan).  Every structure is enumerated and counted, but the
two plans run only on the first structure of each isomorphism class
(at the sizes where finding it costs less than the evaluations it
saves): truth is invariant under renaming the domain, and the first
counterexample is the first of its class.  The per-structure checks are
independent of each other; this implementation runs them sequentially,
which already realizes the minimal-counterexample guarantee.

corpus() is the fixed list of named formulas the tests and the CLI lean
on: the two open split formulas with their four-variable team schema,
their closed variants, a Henkin-style sentence, width and term stress
cases, universal-free and width-1 sentences for the collapse passes, and
function sentences including the even-edge-count witness.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .budget import Budget, default_check_budget, default_structure_budget
from .errors import BudgetExceededError, ShapeError
from .eso_eval import _eso_plan, eso_satisfies
from .structures import Structure, _walk, structure_to_json_dict
from .syntax import (
    EsoSentence, Formula, Signature, _check_count, _json_record, parse_eso,
    parse_formula,
)
from .team_eval import _plan as _team_plan, sentence_truth

__all__ = [
    "Verdict", "equiv_check", "sentence_value",
    "CorpusItem", "corpus", "corpus_item",
]


def _plan(s, sig: Signature, budget: Budget):
    """A sentence checked against the signature and compiled once, as a
    function from structures of that signature to truth (team semantics
    for a dependence sentence, table search for a function sentence),
    every run spending from ``budget``."""
    plan = (_eso_plan(s, sig) if isinstance(s, EsoSentence)
            else _team_plan(s, (), sig))
    return lambda struct: plan(struct, budget)


def sentence_value(struct: Structure, s, budget: Budget | None = None) -> bool:
    """Truth of a sentence in one structure, picking the semantics by kind.
    Spends from ``budget``, the default check budget when None."""
    if isinstance(s, EsoSentence):
        return eso_satisfies(struct, s, budget)
    return sentence_truth(struct, s, budget)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equivalence check.

    ``outcome`` is "equivalent" (through every structure of size up to
    ``max_size``) or "counterexample", in which case ``structure`` holds
    the witness in its JSON form and the two verdict fields say which
    side was true on it.  ``structures_checked`` and ``wall_time`` (in
    seconds) are statistics; wall time naturally varies between runs.
    """

    outcome: str
    max_size: int
    structures_checked: int
    wall_time: float
    structure: dict | None = None
    left_verdict: bool | None = None
    right_verdict: bool | None = None

    def to_dict(self) -> dict:
        return _json_record(self)


def equiv_check(left, right, sig: Signature, max_n: int,
                budget: int | None = None) -> Verdict:
    """Compare two sentences on all structures of sizes 1..max_n.

    Returns the first differing structure as a counterexample Verdict, or
    an equivalence Verdict once every structure has agreed.  Every
    structure is enumerated and counted in ``structures_checked``; the
    sentences are evaluated on the first structure of each isomorphism
    class only, which decides the rest of the class, except at sizes where
    finding the first costs more than evaluating them all.  ``budget`` caps
    both the number of structures enumerated and the semantic-check work
    (spent on the evaluated structures); left unset, the module defaults
    apply (10^6 structures, 10^7 check steps, both overridable through
    DEPLOG_BUDGET).  A ``max_n`` or ``budget`` that is not an integer of
    at least 1 is a ShapeError.  Running out raises BudgetExceededError
    naming the domain size reached and the work that ran out, never a
    silent pass.
    """
    _check_count(max_n, "max_n")
    sbudget = Budget(budget) if budget is not None else default_structure_budget()
    cbudget = Budget(budget) if budget is not None else default_check_budget()
    start = time.perf_counter()
    left_value = _plan(left, sig, cbudget)
    right_value = _plan(right, sig, cbudget)
    checked = 0
    size = 1
    try:
        for size in range(1, max_n + 1):
            # the first counterexample is the first of its isomorphism
            # class, so the skipped structures need no evaluation
            for struct in _walk(sig, size, sbudget, leaders_only=True):
                if struct is not None:
                    lv = left_value(struct)
                    rv = right_value(struct)
                    if lv != rv:
                        return Verdict(
                            outcome="counterexample", max_size=size,
                            structures_checked=checked + 1,
                            wall_time=time.perf_counter() - start,
                            structure=structure_to_json_dict(struct),
                            left_verdict=lv, right_verdict=rv)
                checked += 1
    except BudgetExceededError as e:
        raise BudgetExceededError(
            f"equivalence check at domain size {size} "
            f"({checked} structures fully checked): {e.context}",
            e.spent, e.limit) from None
    return Verdict(outcome="equivalent", max_size=max_n,
                   structures_checked=checked,
                   wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusItem:
    """A named formula with its signature.

    ``team_vars`` is nonempty exactly for the open formulas; it gives the
    variable schema a team must bind to evaluate them.
    """

    name: str
    kind: str  # "D" or "ESO"
    text: str
    sig: Signature
    team_vars: tuple[str, ...] = ()
    note: str = ""

    def formula(self) -> Formula:
        if self.kind != "D":
            raise ShapeError(f"corpus item {self.name!r} is a function sentence")
        return parse_formula(self.text, self.sig)

    def sentence(self) -> EsoSentence:
        if self.kind != "ESO":
            raise ShapeError(f"corpus item {self.name!r} is a dependence formula")
        return parse_eso(self.text, self.sig)

    def parsed(self):
        return self.formula() if self.kind == "D" else self.sentence()


_SIG_NONE = Signature()
_SIG_P = Signature({"P": 1})
_SIG_E = Signature({"E": 2})
_SIG_PE = Signature({"P": 1, "E": 2})
_SIG_P4 = Signature({"P": 4})
_SIG_R = Signature({"R": 2})
_SIG_EG = Signature({"E": 2}, {"g": 1})
_SIG_F0 = Signature({}, {"F": 3}, frozenset({"zero"}))

_EVEN_R = ("exists fn f1/2. exists fn f2/2. forall x. forall y. "
           "(~R(x,y) | R(f1(x,y),f2(x,y)) & (~f1(x,y) = x | ~f2(x,y) = y)"
           " & f1(f1(x,y),f2(x,y)) = x & f2(f1(x,y),f2(x,y)) = y)")

_CORPUS: tuple[CorpusItem, ...] = (
    CorpusItem("phi1", "D", "(=(x,y) | =(u,v))", _SIG_NONE,
               team_vars=("x", "y", "u", "v"),
               note="open two-way dependence split"),
    CorpusItem("phi2", "D", "(=(x,y) | =(u,v) | =(u,v))", _SIG_NONE,
               team_vars=("x", "y", "u", "v"),
               note="open three-way split with a repeated disjunct"),
    CorpusItem("phi1_closed", "D",
               "forall x. forall u. exists y. exists v. (=(x,y) | =(u,v))",
               _SIG_NONE, note="closed two-way split"),
    CorpusItem("phi2_closed", "D",
               "forall x. forall u. exists y. exists v. "
               "(=(x,y) | =(u,v) | =(u,v))",
               _SIG_NONE, note="closed three-way split"),
    CorpusItem("henkin", "D",
               "forall x0. exists x1. forall x2. exists x3. "
               "(=(x2,x3) & P(x0,x1,x2,x3))",
               _SIG_P4, note="branching-choice sentence over a 4-ary relation"),
    CorpusItem("henkin_eq", "D",
               "forall x0. exists x1. forall x2. exists x3. "
               "(=(x2,x3) & (~x0 = x2 | ~x1 = x3))",
               _SIG_NONE, note="branching choice forcing two disjoint choice "
                               "functions; true iff the domain has >= 2 elements"),
    CorpusItem("spine", "D", "forall x. exists y. (=(x,y) & E(x,y))",
               _SIG_E, note="functional out-edge choice"),
    CorpusItem("width3", "D",
               "forall x. forall y. exists z. (=(x,y,z) & E(y,z))",
               _SIG_E, note="width-3 dependence atom"),
    CorpusItem("term_atom", "D",
               "forall x. exists y. (=(g(x), y) & E(x, g(y)))",
               _SIG_EG, note="dependence atom over a composite term"),
    CorpusItem("const_choice", "D", "forall x. exists y. (=(y) & E(x,y))",
               _SIG_E, note="width-1 atom: one shared sink"),
    CorpusItem("const_eq", "D", "forall x. exists y. (=(y) & x = y)",
               _SIG_NONE, note="width-1 atom; true iff the domain is a point"),
    CorpusItem("global_pick", "D",
               "forall x. exists y. (=(y) & (P(x) | P(y)))",
               _SIG_P, note="width-1 atom; true iff P is nonempty"),
    CorpusItem("zero_slice", "D", "forall a1. forall a2. F(a1,a2,zero) = zero",
               _SIG_F0,
               note="dependence-free universal slice condition on a ternary "
                    "function"),
    CorpusItem("exist_pair", "D", "exists x. exists y. (=(x,y) & E(x,y))",
               _SIG_E, note="universal-free; atom collapses to truth"),
    CorpusItem("exist_neg", "D", "exists x. (~=(x) & P(x))",
               _SIG_P, note="universal-free; negated atom makes it false"),
    CorpusItem("exist_const", "D", "exists x. (=(x) & P(x))",
               _SIG_P, note="universal-free width-1; equivalent to P nonempty"),
    CorpusItem("exist_or", "D",
               "exists x. (P(x) | (exists y. (=(x,y) & E(x,y))))",
               _SIG_PE, note="universal-free with a quantifier under the split"),
    CorpusItem("even_R", "ESO", _EVEN_R, _SIG_R,
               note="two functions pair the edges off: true iff |R| is even"),
    CorpusItem("eso_id", "ESO", "exists fn f/1. forall x. f(x) = x",
               _SIG_NONE, note="identity table exists; always true"),
    CorpusItem("eso_const", "ESO", "exists fn c/0. P(c())",
               _SIG_P, note="0-ary function; equivalent to P nonempty"),
    CorpusItem("eso_choice", "ESO", "exists fn f/1. forall x. E(x, f(x))",
               _SIG_E, note="out-edge choice function"),
    CorpusItem("eso_square", "ESO", "exists fn f/1. forall x. P(f(f(x)))",
               _SIG_P, note="nested application; exercises flattening"),
    CorpusItem("eso_coherent", "ESO",
               "exists fn f/1. forall x. forall y. f(x) = f(y)",
               _SIG_NONE, note="two call shapes; exercises splitting"),
    CorpusItem("mixed_choice", "ESO",
               "exists fn f/1. forall x. exists y. (E(x,y) & E(y,f(x)))",
               _SIG_E, note="mixed prefix; exercises prefix Skolemization"),
)

_BY_NAME = {item.name: item for item in _CORPUS}


def corpus() -> tuple[CorpusItem, ...]:
    """All corpus items, in their fixed order."""
    return _CORPUS


def corpus_item(name: str) -> CorpusItem:
    """Look one item up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ShapeError(f"no corpus item named {name!r}; "
                         f"known: {', '.join(_BY_NAME)}") from None
