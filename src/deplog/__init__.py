"""Dependence-logic toolkit.

Parse dependence-logic formulas and existential function sentences,
evaluate them over finite structures (team semantics on one side,
function-table search on the other), rewrite each kind into the other
through a chain of small verified passes, classify sentences into
syntactic fragments with complexity upper bounds, and check translations
for equivalence by exhaustive enumeration of small structures.
"""
from .budget import (
    Budget, DEFAULT_CHECK_BUDGET, DEFAULT_STRUCTURE_BUDGET,
    default_check_budget, default_structure_budget,
)
from .errors import BudgetExceededError, DeplogError, ParseError, ShapeError
from .eso_eval import eso_satisfies
from .fragments import FragmentReport, classify_d, classify_eso
from .harness import (
    CorpusItem, Verdict, corpus, corpus_item, equiv_check, sentence_value,
)
from .structures import (
    Structure, Team, enumerate_structures, structure_from_json_dict,
    structure_to_json_dict, team_from_json_dict,
)
from .syntax import (
    And, App, Bool, Const, DepAtom, Equal, EsoSentence, Exists, FALSE,
    Forall, Formula, Or, RelAtom, Signature, TRUE, Term, Var, and_chain,
    check_symbols, contains_dep_atom, eso_symbols, free_vars, fresh_var,
    function_patterns, is_quantifier_free, iter_subformulas, iter_terms,
    or_chain, parse_eso, parse_eso_infer, parse_formula, parse_formula_infer,
    prenex_split, render_eso, render_formula, render_term, replace_terms,
    satisfies_star, single_quantification, symbols_of, term_vars,
)
from .team_eval import satisfies, sentence_truth
from .transforms import (
    NormalFormD, collapse_existential_to_fo, d_to_eso, deskolemize_functions,
    eliminate_width1, eso_to_d, extract_dep_atoms, simplify_atom_terms,
    single_forall_reuse, skolemize_normal_form, skolemize_prefix_existentials,
    snf_to_star, star_normalize, to_normal_form, to_prenex,
)

__version__ = "0.1.0"
