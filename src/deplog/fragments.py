"""Syntactic classification into parameterized fragments.

classify_d measures a dependence-logic sentence: universal-quantifier
occurrences, whether any variable is quantified twice, and how wide its
dependence atoms get.  classify_eso measures a function sentence: the
largest quantified-function arity, the universal count, whether the
first-order prefix is purely universal, and whether every function keeps
a single tuple of pairwise-distinct variables as its argument pattern.

Fragment names render with their smallest valid parameters; membership
at k implies membership at every larger parameter.

* D(k-forall): at most k universal occurrences, no requantification.
* D(k-dep): every dependence atom has width at most k+1.
* ESO_f(k-ary): quantified functions of arity at most k.
* ESO_f(k-ary, m-forall), ESO_f(m-forall): additionally the first-order
  prefix is purely universal with at most m quantifiers.
* ESO_f1(m-forall): additionally the single-pattern discipline.
* ESO_f1(m-forall, exists*): single-pattern discipline with a prefix
  that may mix in existentials; only universals are counted.

Upper bounds name the cheapest model-checking guarantee this package's
translations can justify: "FO" when the sentence rewrites to ordinary
first-order logic, "NTIME_RAM(n^k)" for a nondeterministic random-access
machine running in time O(n^k) on structures of size n, and "NP" as the
general fallback.  Under the one-quantifier-per-variable discipline the
function translation of a dependence-logic sentence is checked by guessing
its function tables, in time n^(universal count); without it no
translation here applies.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .syntax import (
    DepAtom, EsoSentence, Forall, Formula, _check_eso, _json_record, free_vars,
    iter_subformulas, satisfies_star, single_quantification,
)

__all__ = ["FragmentReport", "classify_d", "classify_eso"]


@dataclass(frozen=True)
class FragmentReport:
    """Outcome of a syntactic measurement; fields that do not apply to
    the sentence kind stay None.

    ``memberships`` lists fragment names at their minimal parameters.
    ``upper_bound`` is an upper bound for model checking, never claimed
    tight.
    """

    kind: str  # "D" or "ESO"
    forall_count: int
    memberships: tuple[str, ...]
    upper_bound: str
    single_quantification: bool | None = None
    max_dep_width: int | None = None
    max_arity: int | None = None
    snf: bool | None = None
    star: bool | None = None
    exists_star: bool | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict carrying only the fields of this kind, with
        ``memberships`` and ``upper_bound`` last."""
        out = _json_record(self)
        out["memberships"] = list(out.pop("memberships"))
        out["upper_bound"] = out.pop("upper_bound")
        return out


def _d_bound(forall_count: int, single: bool, width: int) -> str:
    if forall_count == 0 or width <= 1:
        return "FO"  # collapse_existential_to_fo / eliminate_width1 apply
    if single:
        return f"NTIME_RAM(n^{forall_count})"
    return "NP"


def _eso_bound(max_arity: int, forall_count: int) -> str:
    if max_arity == 0:
        return "FO"  # constants become plain existentials
    return f"NTIME_RAM(n^{max(forall_count, 1)})"


def classify_d(f: Formula) -> FragmentReport:
    """Measure a dependence-logic sentence.

    The universal count tallies quantifier occurrences, not distinct
    variables.  Width is the number of terms in an atom, so =() has
    width 0 and never raises the maximum.  D(k-forall) is reported only
    under the one-quantifier-per-variable discipline the fragment
    demands; D(k-dep) always is, at k = max(width - 1, 0).
    """
    if free_vars(f):
        raise ShapeError("fragment classes contain sentences only")
    k = sum(1 for g in iter_subformulas(f) if isinstance(g, Forall))
    single = single_quantification(f)
    width = max((len(g.terms) for g in iter_subformulas(f)
                 if isinstance(g, DepAtom)), default=0)
    memberships = []
    if single:
        memberships.append(f"D({k}-forall)")
    memberships.append(f"D({max(width - 1, 0)}-dep)")
    return FragmentReport(
        kind="D", forall_count=k, memberships=tuple(memberships),
        upper_bound=_d_bound(k, single, width),
        single_quantification=single, max_dep_width=width)


def classify_eso(s: EsoSentence) -> FragmentReport:
    """Measure a function sentence.

    Reports the largest quantified-function arity (0 when there are no
    functions), the universal count, the purely-universal-prefix flag,
    and the single-pattern flag; memberships follow.  Any mix of
    first-order quantifiers fits the exists* classes, so that flag is
    always true.
    """
    _check_eso(s)
    arity = max((a for _, a in s.functions), default=0)
    m = sum(1 for kind, _ in s.prefix if kind == "forall")
    snf = all(kind == "forall" for kind, _ in s.prefix)
    star = satisfies_star(s)
    memberships = [f"ESO_f({arity}-ary)"]
    if snf:
        memberships.append(f"ESO_f({arity}-ary, {m}-forall)")
        memberships.append(f"ESO_f({m}-forall)")
        if star:
            memberships.append(f"ESO_f1({m}-forall)")
    if star:
        memberships.append(f"ESO_f1({m}-forall, exists*)")
    return FragmentReport(
        kind="ESO", forall_count=m, memberships=tuple(memberships),
        upper_bound=_eso_bound(arity, m),
        max_arity=arity, snf=snf, star=star, exists_star=True)

