"""Rewriting passes: pinned outputs, syntactic postconditions, and
semantic preservation cross-checked against the independent oracles."""
import hashlib
import random

import pytest

from helpers import enumerate_teams, oracle_satisfies, oracle_value
from deplog.cli import _PASS_ORDER, main as cli_main
from deplog.errors import ShapeError
from deplog.harness import corpus, corpus_item, equiv_check, sentence_value
from deplog.structures import enumerate_structures
from deplog.syntax import (
    And, App, DepAtom, Equal, EsoSentence, Exists, Forall, Or, RelAtom, Signature,
    TRUE, Var, contains_dep_atom, free_vars, function_patterns, is_quantifier_free,
    iter_subformulas, parse_eso, parse_eso_infer, parse_formula,
    parse_formula_infer, render_eso, render_formula, satisfies_star,
    single_quantification,
)
from deplog.team_eval import satisfies
from deplog.transforms import (
    NormalFormD, collapse_existential_to_fo, d_to_eso, deskolemize_functions,
    eliminate_width1, eso_to_d, extract_dep_atoms, simplify_atom_terms,
    single_forall_reuse, skolemize_normal_form, skolemize_prefix_existentials,
    snf_to_star, star_normalize, to_normal_form, to_prenex,
)

SIG0 = Signature({}, {}, frozenset())


def forall_count(s) -> int:
    if isinstance(s, EsoSentence):
        return sum(1 for kind, _ in s.prefix if kind == "forall")
    return sum(1 for g in iter_subformulas(s) if isinstance(g, Forall))


def dep_atoms(f):
    return [g for g in iter_subformulas(f) if isinstance(g, DepAtom)]


def assert_sentence_equiv(a, b, sig, max_n=2):
    """Package verdicts agree on every structure, and the independent
    oracle confirms the left side (two independent routes per structure)."""
    for n in range(1, max_n + 1):
        for m in enumerate_structures(sig, n):
            va = sentence_value(m, a)
            assert sentence_value(m, b) == va, (render(a), render(b), n)
            assert oracle_value(m, a) == va


def assert_team_equiv(a, b, sig, team_vars, max_n=2, max_rows=3):
    for n in range(1, max_n + 1):
        for m in enumerate_structures(sig, n):
            for team in enumerate_teams(team_vars, n, max_rows=max_rows):
                va = satisfies(m, team, a)
                assert satisfies(m, team, b) == va, (n, team)
                assert oracle_satisfies(m, team.vars, team.rows, a) == va


def render(s):
    return render_eso(s) if isinstance(s, EsoSentence) else render_formula(s)


# ---------------------------------------------------------------------------
# to_prenex
# ---------------------------------------------------------------------------

def test_prenex_exists_over_and():
    sig = Signature({"P": 1, "Q": 1}, {}, frozenset({"c"}))
    f = parse_formula("(exists x. P(x)) & Q(c)", sig)
    out = to_prenex(f)
    assert render_formula(out) == "exists x. (P(x) & Q(c))"


def test_prenex_forall_over_or():
    sig = Signature({"P": 1, "Q": 1}, {}, frozenset({"c"}))
    f = parse_formula("(forall x. P(x)) | Q(c)", sig)
    out = to_prenex(f)
    assert render_formula(out) == "forall x. (P(x) | Q(c))"


def test_prenex_identity_on_prenex_input():
    f = corpus_item("henkin").formula()
    assert to_prenex(f) == f


def test_prenex_preserves_counts_and_atoms():
    for name in ("phi1_closed", "phi2_closed", "henkin", "exist_or"):
        f = corpus_item(name).formula()
        out = to_prenex(f)
        assert forall_count(out) == forall_count(f), name
        assert sorted(map(repr, dep_atoms(out))) == sorted(map(repr, dep_atoms(f)))
        prefix_done = out
        while isinstance(prefix_done, (Forall, Exists)):
            prefix_done = prefix_done.body
        assert is_quantifier_free(prefix_done), name


def test_prenex_equivalence():
    f, sig = parse_formula_infer("(exists x. E(x,x)) & (forall y. (E(y,y) | =(y)))")
    assert_sentence_equiv(f, to_prenex(f), sig, max_n=3)


def test_prenex_rejects_reused_variable():
    f, _ = parse_formula_infer("forall x. (P(x) | (exists x. P(x)))")
    with pytest.raises(ShapeError):
        to_prenex(f)


# ---------------------------------------------------------------------------
# simplify_atom_terms
# ---------------------------------------------------------------------------

def test_simplify_composite_term_atom():
    f, sig = parse_formula_infer("forall x. exists y. =(g(x), y)")
    out = simplify_atom_terms(f)
    assert render_formula(out) == ("forall x. exists y. exists z1. exists z2. "
                                   "(z1 = g(x) & z2 = y & =(z1,z2))")
    assert_sentence_equiv(f, out, sig, max_n=2)


def test_simplify_repeated_variable_atom():
    f = parse_formula("forall x. =(x, x)", SIG0)
    out = simplify_atom_terms(f)
    assert render_formula(out) == ("forall x. exists z1. exists z2. "
                                   "(z1 = x & z2 = x & =(z1,z2))")
    assert_sentence_equiv(f, out, SIG0, max_n=3)


def test_simplify_leaves_clean_atoms_alone():
    f = parse_formula("forall x. exists y. (=(x,y) & x = y)", SIG0)
    assert simplify_atom_terms(f) == f


def test_simplify_postconditions():
    f, sig = parse_formula_infer(
        "forall x. exists y. (=(g(x), g(y)) | =(y, y))")
    out = simplify_atom_terms(f)
    for atom in dep_atoms(out):
        names = [t.name for t in atom.terms]
        assert all(isinstance(t, Var) for t in atom.terms)
        assert len(set(names)) == len(names)
    assert [len(a.terms) for a in dep_atoms(out)] == [len(a.terms) for a in dep_atoms(f)]
    assert forall_count(out) == forall_count(f)
    assert_sentence_equiv(f, out, sig, max_n=2)


# ---------------------------------------------------------------------------
# extract_dep_atoms
# ---------------------------------------------------------------------------

def test_extract_single_atom():
    body = parse_formula("=(z1,z2)", SIG0)
    ys, bindings, matrix = extract_dep_atoms(body)
    assert ys == ("y1",)
    assert bindings == (DepAtom((Var("z1"), Var("y1"))),)
    assert matrix == Equal(Var("y1"), Var("z2"))


def test_extract_literal_untouched():
    body, _ = parse_formula_infer("P(x,x)")
    ys, bindings, matrix = extract_dep_atoms(body)
    assert ys == () and bindings == () and matrix == body


def test_extract_disjunction():
    body = parse_formula("=(x,y) | =(u,v)", SIG0)
    ys, bindings, matrix = extract_dep_atoms(body)
    assert ys == ("y1", "y2")
    assert [render_formula(b) for b in bindings] == ["=(x,y1)", "=(u,y2)"]
    assert render_formula(matrix) == "y1 = y | y2 = v"


def test_extract_negated_atom_is_false():
    body = parse_formula("~=(x,y)", SIG0)
    ys, bindings, matrix = extract_dep_atoms(body)
    assert ys == () and bindings == ()
    assert render_formula(matrix) == "false"


def test_extract_empty_atom_is_true():
    ys, bindings, matrix = extract_dep_atoms(parse_formula("=()", SIG0))
    assert render_formula(matrix) == "true"


def test_extract_requires_quantifier_free():
    body = parse_formula("exists x. =(x)", SIG0)
    with pytest.raises(ShapeError):
        extract_dep_atoms(body)


def test_extract_requires_clean_atoms():
    body, _ = parse_formula_infer("=(g(x), y)")
    with pytest.raises(ShapeError):
        extract_dep_atoms(body)


def test_extract_team_equivalence():
    from deplog.syntax import and_chain
    for text in ["=(x,y) | =(u,v)", "=(x,y) & =(y,u)", "=(u) | (=() & P(x,y))"]:
        body, sig = parse_formula_infer(text)
        ys, bindings, matrix = extract_dep_atoms(body)
        rebuilt = and_chain(list(bindings) + [matrix])
        for y in reversed(ys):
            rebuilt = Exists(y, rebuilt)
        fv = tuple(sorted(free_vars(body)))
        assert free_vars(rebuilt) == set(fv)
        assert_team_equiv(body, rebuilt, sig, fv, max_n=2, max_rows=3)


def test_extract_ys_fresh_for_reserved():
    body = parse_formula("=(x,y1)", SIG0)
    ys, bindings, matrix = extract_dep_atoms(body, reserved=("y2",))
    assert ys and ys[0] not in {"x", "y1", "y2"}


# ---------------------------------------------------------------------------
# normal form and Skolemization
# ---------------------------------------------------------------------------

def test_normal_form_shape():
    f = corpus_item("phi1_closed").formula()
    nf = to_normal_form(f)
    assert [k for k, _ in nf.prefix] == ["forall", "forall", "exists", "exists"]
    assert len(nf.bindings) == 2
    assert not contains_dep_atom(nf.matrix)
    assert is_quantifier_free(nf.matrix)
    assert_sentence_equiv(f, nf.to_formula(), corpus_item("phi1_closed").sig,
                          max_n=2)


_X, _Y = Var("x"), Var("y")
_NF_PREFIX = (("forall", "x"), ("exists", "u"))
_NF_BIND = (DepAtom((_X, _Y)),)
_P_XY = RelAtom("P", (_X, _Y))


@pytest.mark.parametrize("prefix,bindings,matrix", [
    ((("some", "x"),), _NF_BIND, _P_XY),                        # bad kind
    ((("forall", "x"), ("exists", "x")), _NF_BIND, _P_XY),      # x twice
    (_NF_PREFIX, (_P_XY,), _P_XY),                              # not an atom
    (_NF_PREFIX, (DepAtom((_X, _Y), negated=True),), _P_XY),    # negated
    (_NF_PREFIX, (DepAtom(()),), _P_XY),                        # empty
    (_NF_PREFIX, (DepAtom((App("g", (_X,)), _Y)),), _P_XY),     # not a variable
    (_NF_PREFIX, (DepAtom((_X, _X)),), _P_XY),                  # repeated
    (_NF_PREFIX, (DepAtom((Var("w"), _Y)),), _P_XY),            # w not in prefix
    (_NF_PREFIX, (DepAtom((_X, Var("u"))),), _P_XY),            # u not fresh
    (_NF_PREFIX, _NF_BIND * 2, _P_XY),                          # y bound twice
    (_NF_PREFIX, _NF_BIND, And(_P_XY, Exists("z", RelAtom("Q", (Var("z"),))))),
    (_NF_PREFIX, _NF_BIND, Or(_P_XY, DepAtom((_X, _Y)))),       # dependence atom
    (_NF_PREFIX, _NF_BIND, RelAtom("P", (_X, Var("w")))),       # w unquantified
    (_NF_PREFIX, _NF_BIND, And(_P_XY, _X)),                     # not a formula
    ((("forall",),), (), TRUE),                                 # prefix entry
    (_NF_PREFIX, _NF_BIND, RelAtom("P", ("x",))),               # not a term
])
def test_normal_form_rejects(prefix, bindings, matrix):
    with pytest.raises(ShapeError):
        NormalFormD(prefix, bindings, matrix)


def test_skolemize_direct_normal_form():
    nf = NormalFormD((("forall", "x"),),
                     (DepAtom((Var("x"), Var("y"))),),
                     RelAtom("P", (Var("x"), Var("y"))))
    out = skolemize_normal_form(nf)
    assert render_eso(out) == "exists fn f1/1. forall x. P(x,f1(x))"


def test_skolemize_henkin_normal_form():
    nf = NormalFormD(
        (("forall", "x0"), ("exists", "x1"), ("forall", "x2")),
        (DepAtom((Var("x2"), Var("x3"))),),
        RelAtom("P", (Var("x0"), Var("x1"), Var("x2"), Var("x3"))))
    out = skolemize_normal_form(nf)
    assert render_eso(out) == ("exists fn f1/1. forall x0. exists x1. "
                               "forall x2. P(x0,x1,x2,f1(x2))")


def test_skolemize_zero_ary():
    f, sig = parse_formula_infer("forall x. exists y. (=(y) & P(x,y))")
    out = d_to_eso(f)
    assert out.functions == (("f1", 0),)
    assert_sentence_equiv(f, out, sig, max_n=3)


def test_d_to_eso_pipeline_string():
    f, _ = parse_formula_infer("forall x. exists y. (=(x,y) & P(x,y))")
    out = d_to_eso(f)
    assert render_eso(out) == ("exists fn f1/1. forall x. exists y. "
                               "(f1(x) = y & P(x,y))")


def test_d_to_eso_dependence_free():
    f, _ = parse_formula_infer("forall x. exists y. E(x,y)")
    out = d_to_eso(f)
    assert out.functions == ()
    assert render_eso(out) == "forall x. exists y. E(x,y)"


def test_d_to_eso_phi2_closed_three_functions():
    item = corpus_item("phi2_closed")
    out = d_to_eso(item.formula())
    assert len(out.functions) == 3
    assert all(ar == 1 for _, ar in out.functions)  # widths preserved


def test_d_to_eso_arity_is_width_minus_one():
    for name in ("spine", "width3", "const_choice", "henkin"):
        f = corpus_item(name).formula()
        widths = sorted(len(a.terms) for a in dep_atoms(simplify_atom_terms(
            to_prenex(f))))
        out = d_to_eso(f)
        assert sorted(ar + 1 for _, ar in out.functions) == widths, name


def test_d_to_eso_equivalence_small():
    for name in ("spine", "const_choice", "exist_pair", "exist_neg",
                 "exist_const", "global_pick", "const_eq"):
        item = corpus_item(name)
        assert_sentence_equiv(item.formula(), d_to_eso(item.formula()),
                              item.sig, max_n=2)


# ---------------------------------------------------------------------------
# deskolemize_functions
# ---------------------------------------------------------------------------

def test_deskolemize_unary():
    s, sig = parse_eso_infer("exists fn f/1. forall x. P(x, f(x))")
    out = deskolemize_functions(s)
    assert render_formula(out) == "forall x. exists y1. (=(x,y1) & P(x,y1))"
    assert_sentence_equiv(s, out, sig, max_n=3)


def test_deskolemize_zero_ary():
    s, sig = parse_eso_infer("exists fn c/0. forall x. P(x, c())")
    out = deskolemize_functions(s)
    assert render_formula(out) == "forall x. exists y1. (=(y1) & P(x,y1))"
    assert_sentence_equiv(s, out, sig, max_n=3)


def test_deskolemize_rejects_two_call_shapes():
    s, _ = parse_eso_infer("exists fn f/1. forall x. forall y. P(f(x), f(y))")
    with pytest.raises(ShapeError):
        deskolemize_functions(s)


def test_deskolemize_width_is_arity_plus_one():
    s, _ = parse_eso_infer("exists fn f/2. forall x. forall y. E(f(x,y), x)")
    out = deskolemize_functions(s)
    assert max(len(a.terms) for a in dep_atoms(out)) == 3


# ---------------------------------------------------------------------------
# star_normalize
# ---------------------------------------------------------------------------

def test_star_skips_conforming_sentence():
    s = corpus_item("eso_choice").sentence()
    assert star_normalize(s) is s


def test_star_flattens_nested_application():
    s, sig = parse_eso_infer("exists fn f/1. forall x. P(f(f(x)))")
    out = star_normalize(s)
    assert satisfies_star(out)
    assert render_eso(out) == ("exists fn f/1. exists fn f_1/1. forall x. "
                               "forall z1. ((~x = z1 | f(x) = f_1(z1)) & "
                               "(~z1 = f(x) | P(f_1(z1))))")
    assert_sentence_equiv(s, out, sig, max_n=2)


def test_star_splits_two_patterns():
    s, sig = parse_eso_infer("exists fn f/1. forall x. forall y. f(x) = f(y)")
    out = star_normalize(s)
    assert satisfies_star(out)
    assert render_eso(out) == ("exists fn f/1. exists fn f_1/1. forall x. "
                               "forall y. ((~x = y | f(x) = f_1(y)) & "
                               "f(x) = f_1(y))")
    assert_sentence_equiv(s, out, sig, max_n=2)


def test_star_output_patterns_are_universal_prefix_variables():
    for name in ("eso_square", "eso_coherent", "even_R", "mixed_choice"):
        s = corpus_item(name).sentence()
        out = star_normalize(s)
        assert satisfies_star(out), name
        universals = {v for kind, v in out.prefix if kind == "forall"}
        for pats in function_patterns(out).values():
            for p in pats:
                assert all(a.name in universals for a in p), name
        assert max(ar for _, ar in out.functions) == \
            max(ar for _, ar in s.functions), name


def test_star_equivalence_on_corpus():
    for name in ("eso_id", "eso_const", "eso_choice", "eso_square",
                 "eso_coherent", "mixed_choice"):
        item = corpus_item(name)
        out = star_normalize(item.sentence())
        assert_sentence_equiv(item.sentence(), out, item.sig, max_n=2)


# ---------------------------------------------------------------------------
# eso_to_d
# ---------------------------------------------------------------------------

def test_eso_to_d_unary():
    s, sig = parse_eso_infer("exists fn f/1. forall x. P(x, f(x))")
    out = eso_to_d(s)
    assert render_formula(out) == "forall x. exists y1. (=(x,y1) & P(x,y1))"
    assert_sentence_equiv(s, out, sig, max_n=3)


def test_eso_to_d_zero_functions_identity():
    s, _ = parse_eso_infer("forall x. exists y. P(x,y)")
    out = eso_to_d(s)
    assert render_formula(out) == "forall x. exists y. P(x,y)"


def test_eso_to_d_even_r_parity():
    item = corpus_item("even_R")
    out = eso_to_d(item.sentence())
    assert max(len(a.terms) for a in dep_atoms(out)) == 3  # 2-dep
    for n in (1, 2):
        for m in enumerate_structures(item.sig, n):
            expected = len(m.relations["R"]) % 2 == 0
            assert sentence_value(m, out) == expected


def test_eso_to_d_equivalence_on_corpus():
    for name in ("eso_id", "eso_const", "eso_choice", "eso_coherent",
                 "eso_square", "mixed_choice"):
        item = corpus_item(name)
        assert_sentence_equiv(item.sentence(), eso_to_d(item.sentence()),
                              item.sig, max_n=2)


# ---------------------------------------------------------------------------
# skolemize_prefix_existentials
# ---------------------------------------------------------------------------

def test_snf_plain_exists():
    s, sig = parse_eso_infer("forall x. exists y. P(x,y)")
    out = skolemize_prefix_existentials(s)
    assert render_eso(out) == "exists fn g1/1. forall x. P(x,g1(x))"
    assert_sentence_equiv(s, out, sig, max_n=3)


def test_snf_zero_ary_skolem():
    s, sig = parse_eso_infer("exists y. P(y)")
    out = skolemize_prefix_existentials(s)
    assert render_eso(out) == "exists fn g1/0. P(g1())"
    assert_sentence_equiv(s, out, sig, max_n=3)


def test_snf_henkin_derived():
    s, sig = parse_eso_infer(
        "exists fn f/1. forall x0. exists x1. forall x2. P(x0,x1,x2,f(x2))")
    out = skolemize_prefix_existentials(s)
    assert render_eso(out) == ("exists fn f/1. exists fn g1/1. "
                               "forall x0. forall x2. P(x0,g1(x0),x2,f(x2))")
    assert_sentence_equiv(s, out, sig, max_n=2)


def test_snf_identity_when_already_universal():
    s = corpus_item("even_R").sentence()
    assert skolemize_prefix_existentials(s) is s


def test_snf_arity_counts_preceding_universals():
    s, _ = parse_eso_infer(
        "forall x. exists y. forall z. exists w. E(g(x,y), g(z,w))")
    out = skolemize_prefix_existentials(s)
    arities = dict(out.functions)
    assert arities["g1"] == 1 and arities["g2"] == 2
    assert all(kind == "forall" for kind, _ in out.prefix)


# ---------------------------------------------------------------------------
# snf_to_star
# ---------------------------------------------------------------------------

def test_snf_to_star_skips_star_input():
    s = corpus_item("eso_choice").sentence()
    assert snf_to_star(s) is s


def test_snf_to_star_nested_composition():
    s, sig = parse_eso_infer("exists fn f/1. forall x. P(f(f(x)))")
    out = snf_to_star(s)
    assert satisfies_star(out)
    assert forall_count(out) <= 2 * forall_count(s)
    assert_sentence_equiv(s, out, sig, max_n=2)


def test_snf_to_star_conflict_introduces_helpers():
    s, sig = parse_eso_infer("exists fn f/1. forall x. f(f(x)) = x")
    out = snf_to_star(s)
    assert satisfies_star(out)
    assert any(name.startswith("h") for name, _ in out.functions)
    assert forall_count(out) <= 2
    assert_sentence_equiv(s, out, sig, max_n=2)


def test_snf_to_star_rejects_mixed_prefix():
    s, _ = parse_eso_infer("exists fn f/2. forall x. exists y. P(f(x,y))")
    with pytest.raises(ShapeError):
        snf_to_star(s)


def test_snf_to_star_rejects_wide_functions():
    s, _ = parse_eso_infer("exists fn f/2. forall x. P(f(x,x))")
    with pytest.raises(ShapeError):
        snf_to_star(s)


def test_snf_to_star_postconditions_on_corpus():
    for name in ("eso_id", "eso_const", "eso_square", "eso_coherent",
                 "even_R"):
        s = corpus_item(name).sentence()
        out = snf_to_star(s)
        assert satisfies_star(out), name
        assert forall_count(out) <= 2 * max(forall_count(s), 1), name


def test_snf_to_star_equivalence_small():
    for name, max_n in (("eso_id", 2), ("eso_square", 2), ("eso_coherent", 2),
                        ("even_R", 1)):
        # even_R's normalized form has eight binary functions; table
        # enumeration above domain size 1 is out of reach
        item = corpus_item(name)
        out = snf_to_star(item.sentence())
        assert_sentence_equiv(item.sentence(), out, item.sig, max_n=max_n)


# ---------------------------------------------------------------------------
# collapse_existential_to_fo
# ---------------------------------------------------------------------------

def test_collapse_basic():
    f, sig = parse_formula_infer("exists x. exists y. (=(x,y) & P(x,y))")
    out = collapse_existential_to_fo(f)
    assert render_formula(out) == "exists x. exists y. (true & P(x,y))"
    assert_sentence_equiv(f, out, sig, max_n=3)


def test_collapse_atom_free_unchanged():
    f, _ = parse_formula_infer("exists x. P(x)")
    assert collapse_existential_to_fo(f) == f


def test_collapse_negated_atom():
    f, sig = parse_formula_infer("exists x. ~=(x)")
    out = collapse_existential_to_fo(f)
    assert render_formula(out) == "exists x. false"
    for n in (1, 2, 3):
        for m in enumerate_structures(sig, n):
            assert sentence_value(m, out) is False
            assert sentence_value(m, f) is False


def test_collapse_rejects_universals():
    with pytest.raises(ShapeError):
        collapse_existential_to_fo(parse_formula_infer("forall x. =(x)")[0])


def test_collapse_output_dependence_free():
    for name in ("exist_pair", "exist_neg", "exist_const", "exist_or"):
        f = corpus_item(name).formula()
        out = collapse_existential_to_fo(f)
        assert not contains_dep_atom(out), name


# ---------------------------------------------------------------------------
# eliminate_width1
# ---------------------------------------------------------------------------

def test_width1_universal_example():
    f, sig = parse_formula_infer("forall x. exists y. (=(y) & y = x)")
    out = eliminate_width1(f)
    assert render_formula(out) == "exists w1. forall x. exists y. (w1 = y & y = x)"
    assert not contains_dep_atom(out)
    assert_sentence_equiv(f, out, sig, max_n=3)


def test_width1_existential_example():
    f, sig = parse_formula_infer("exists x. (=(x) & P(x))")
    out = eliminate_width1(f)
    assert render_formula(out) == "exists w1. exists x. (w1 = x & P(x))"
    assert_sentence_equiv(f, out, sig, max_n=3)
    g, _ = parse_formula_infer("exists x. P(x)")
    assert_sentence_equiv(g, out, sig, max_n=3)


def test_width1_atom_free_unchanged():
    f, _ = parse_formula_infer("forall x. exists y. E(x,y)")
    assert eliminate_width1(f) == f


def test_width1_rejects_wide_atoms():
    with pytest.raises(ShapeError):
        eliminate_width1(corpus_item("spine").formula())


def test_width1_corpus_equivalence():
    for name in ("const_choice", "const_eq", "global_pick"):
        item = corpus_item(name)
        out = eliminate_width1(item.formula())
        assert not contains_dep_atom(out)
        assert_sentence_equiv(item.formula(), out, item.sig, max_n=3)


# ---------------------------------------------------------------------------
# single_forall_reuse
# ---------------------------------------------------------------------------

def test_single_forall_basic():
    f, sig = parse_formula_infer("forall y. P(y)")
    out = single_forall_reuse(f, "x")
    assert render_formula(out) == "forall x. exists y. (x = y & P(y))"
    assert_sentence_equiv(f, out, sig, max_n=3)


def test_single_forall_atom_unchanged():
    f = parse_formula("=(x,y)", SIG0)
    assert single_forall_reuse(f, "w") == f


def test_single_forall_nested_reuses_designated():
    f, sig = parse_formula_infer("forall y1. forall y2. E(y1,y2)")
    out = single_forall_reuse(f, "x")
    assert render_formula(out) == ("forall x. exists y1. (x = y1 & "
                                   "(forall x. exists y2. (x = y2 & E(y1,y2))))")
    assert render_formula(out).count("forall x.") == 2
    assert_sentence_equiv(f, out, sig, max_n=2)


def test_single_forall_name_clash():
    f, _ = parse_formula_infer("forall x. P(x)")
    with pytest.raises(ShapeError):
        single_forall_reuse(f, "x")


def test_single_forall_team_equivalence_open():
    f, sig = parse_formula_infer("forall u. (E(u,w) | =(w))")
    out = single_forall_reuse(f, "q")
    assert free_vars(out) == free_vars(f) == {"w"}
    assert_team_equiv(f, out, sig, ("w",), max_n=2)


def test_single_forall_dep_atoms_with_universal():
    f, sig = parse_formula_infer("forall u. exists v. (=(u,v) & E(u,v))")
    out = single_forall_reuse(f, "q")
    assert forall_count(out) == 1
    assert_sentence_equiv(f, out, sig, max_n=2)


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------

def test_round_trip_width_and_equivalence():
    for name in ("spine", "const_choice", "phi1_closed"):
        item = corpus_item(name)
        f = item.formula()
        back = eso_to_d(d_to_eso(f))
        w0 = max((len(a.terms) for a in dep_atoms(f)), default=0)
        w1 = max((len(a.terms) for a in dep_atoms(back)), default=0)
        assert w1 <= w0, name
        assert_sentence_equiv(f, back, item.sig, max_n=2)


def test_transforms_deterministic():
    for name in ("spine", "term_atom", "width3"):
        f = corpus_item(name).formula()
        assert render_eso(d_to_eso(f)) == render_eso(d_to_eso(f))
        assert render_formula(to_prenex(f)) == render_formula(to_prenex(f))
    for name in ("eso_square", "eso_coherent"):
        s = corpus_item(name).sentence()
        assert render_eso(star_normalize(s)) == render_eso(star_normalize(s))
        assert render_formula(eso_to_d(s)) == render_formula(eso_to_d(s))


def test_d_to_eso_star_shape_on_single_quantification():
    # translations of single-quantification sentences keep one call shape
    # per function, over pairwise-distinct variables
    for name in ("spine", "width3", "henkin", "phi1_closed"):
        f = corpus_item(name).formula()
        assert single_quantification(f), name
        out = d_to_eso(f)
        assert satisfies_star(out), name


# sha256 per pass of the `deplog translate` records (exit code, stdout,
# stderr) of that pass on every corpus item, in corpus order
PASS_DIGESTS = {
    "prenex": "e060debf78cead56794e1196950060cc1bec8cab4e3238fb94d57ec77add185e",
    "simplify-atoms": "caf8d306aad2ff5712c39d97e829f37a5ef480013ced884032b47df2e1626ae5",
    "extract": "8e1ea81677ca2b9bbe681d868cf8a7b366db34a7220037249a756e87e5cb614f",
    "skolemize": "2551069fa5458360da9870a761f4e70aa4cc3a57972c2ce0d9041c5b16c55a16",
    "d2eso": "2551069fa5458360da9870a761f4e70aa4cc3a57972c2ce0d9041c5b16c55a16",
    "star": "8f0eeff1130ff46a16134c5e70eeddf8192cd945f95e13e8b45e20ecc7c049f2",
    "eso2d": "e609becf678de77b87f627d0961178727c8d0b6d3cb4b1dcf5d613e2499e3f16",
    "snf": "cd3feba6aa33514a666f29dd1ff2da2f96fcc04edc04f4b9b02dad8a8660870a",
    "prop36": "53be6c78a163ba0c2972f8a50d96dccc367410ebed634fb63c73883dc88745d1",
    "fo-collapse": "a5f6070b7ab328ca033799c4fa2d9cda23b654ecfaae71afcf95794254f0c04c",
    "width1": "b1926abf017e24f6b3c7ec495ec2a8f9f49a659c5b512c2f23b9c621f57267fd",
    "single-forall": "6dd99ba18ed2cdbdb5713e8f448c72303f653825f6905e29443865b2d76ac63b",
}


def test_translate_bytes_pinned_per_pass(tmp_path, capsys):
    got = {}
    for pass_name in _PASS_ORDER:
        h = hashlib.sha256()
        for item in corpus():
            path = tmp_path / f"{item.name}.dl"
            path.write_text(item.text, encoding="utf-8")
            code = cli_main(["translate", "--pass", pass_name,
                             "--input", str(path)])
            captured = capsys.readouterr()
            h.update(f"{code}\0{captured.out}\0{captured.err}\0".encode())
        got[pass_name] = h.hexdigest()
    assert got == PASS_DIGESTS


def _shape_sentence(rng: random.Random) -> str:
    """A function sentence with nested, repeated and existential call
    shapes: f, g and k over 2-4 variables, terms up to three deep."""
    arity = {"f": rng.randint(1, 2), "g": rng.randint(1, 2), "k": rng.randint(0, 1)}
    names = rng.sample(["x", "y", "w", "v"], rng.randint(2, 4))

    def term(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(names)
        fn = rng.choice(sorted(arity))
        return f"{fn}({','.join(term(depth - 1) for _ in range(arity[fn]))})"

    def atom() -> str:
        a = rng.choice([lambda: f"P({term(3)})", lambda: f"E({term(3)},{term(3)})",
                        lambda: f"{term(3)} = {term(3)}"])()
        return "~" + a if rng.random() < 0.2 else a

    body = atom()
    for _ in range(rng.randint(1, 4)):
        body = f"({body} {rng.choice('&|')} {atom()})"
    return ("".join(f"exists fn {n}/{a}. " for n, a in arity.items())
            + "".join(f"{rng.choice(['forall', 'forall', 'exists'])} {v}. "
                      for v in names) + body)


# call shapes where the order of the rewrites decides the bytes, then
# seeded random ones
SHAPE_SENTENCES = [
    # a function nested in itself with a bad shape, two and three deep
    "exists fn f/2. forall x. forall y. P(f(f(x,x),y))",
    "exists fn f/2. forall x. forall y. P(f(f(f(x,x),y),f(y,y)))",
    # an inner bad shape that also stands alone before its outer one
    "exists fn f/2. forall x. forall y. (P(f(x,x)) & E(f(f(x,x),y),x))",
    "exists fn f/2. forall x. exists y. (f(y,y) = x | P(f(x,f(y,y))))",
    # shapes over existentials, and shapes overlapping the kept one
    "exists fn f/2. exists fn g/2. forall x. exists y. forall w. "
    "(E(f(x,y),f(x,w)) & E(f(w,x),g(y,x)) & (g(x,w) = g(w,x) | P(g(w,y))))",
    "exists fn f/2. exists fn g/1. forall x. forall y. forall w. "
    "(E(f(x,y),f(y,w)) & P(f(w,x)) & E(g(y),g(x)))",
    "exists fn f/1. exists fn g/2. exists y. forall x. forall w. "
    "(E(f(y),f(x)) & P(g(y,x)) & E(g(x,w),g(w,x)))",
    # functions inside each other's arguments
    "exists fn f/2. exists fn g/1. forall x. forall y. "
    "(P(f(g(x),x)) & E(g(f(x,x)),g(f(y,x))))",
    "exists fn f/1. exists fn g/2. forall x. forall y. "
    "(g(f(x),f(y)) = f(g(y,x)) | P(g(x,g(x,y))))",
    # twins (both outer and inner in a composition) for two functions
    "exists fn f/1. exists fn g/1. forall x. (P(f(g(x))) & P(g(f(x))) & E(f(x),g(x)))",
    "exists fn f/2. exists fn g/1. forall x. forall y. "
    "(E(f(g(x),y),g(f(x,y))) & P(f(y,g(x))) & E(g(x),f(x,y)))",
    # several composed shapes per function
    "exists fn f/2. exists fn g/1. exists fn k/1. forall x. forall y. "
    "(E(f(g(x),y),f(y,k(x))) & P(f(k(x),g(x))) & E(g(x),k(x)))",
    # fresh names that collide with the input's
    "exists fn f/1. exists fn f_1/1. exists fn h1/1. forall x. forall z1. forall v1. "
    "(E(f(f(x)),f_1(z1)) & h1(f(v1)) = f(z1))",
] + [_shape_sentence(random.Random(seed)) for seed in range(28)]


def _prop36(s):
    return snf_to_star(skolemize_prefix_existentials(s))


# sha256 per pass of its rendered outputs (or "error: " and the message)
# on every sentence of SHAPE_SENTENCES, in order
SHAPE_DIGESTS = {
    "star": "9db75485d67e236c030156799b2d685ab85c2fb5334ae1e1572564da4be9aa98",
    "eso2d": "8ddecc78702e5aa2d3363a2b3a638788b97491080267d38ab3eb45e3784da5e6",
    "snf": "6b856ddf229dd5d8c24d6f8ad0a00fbda73f1af94f157c88b085d82ec4efb9ea",
    "snf+prop36": "28c755fda4c7e313db5c37bb5e3f3c88771e1612c7b4650771264aec8ca3423c",
}


@pytest.mark.parametrize("pass_name,run", [
    ("star", star_normalize), ("eso2d", eso_to_d),
    ("snf", skolemize_prefix_existentials), ("snf+prop36", _prop36)])
def test_call_shape_bytes_pinned(pass_name, run):
    h = hashlib.sha256()
    for text in SHAPE_SENTENCES:
        try:
            out = render(run(parse_eso_infer(text)[0]))
        except ShapeError as e:
            out = f"error: {e}"
        h.update(f"{out}\0".encode())
    assert h.hexdigest() == SHAPE_DIGESTS[pass_name]


# every pass on a chain of 1,500 conjuncts (2,000 atoms), longer than the
# recursion limit; each input meets its pass's precondition
LONG_BODY = " & ".join(["=(x,y)", "E(x,y)", "(E(y,x) | ~x = y)"] * 500)
LONG_ESO_BODY = " & ".join(["E(f(x),y)", "E(x,y)", "(E(y,x) | ~f(y) = x)"] * 500)
LONG_INPUTS = {
    "fo-collapse": f"exists x. exists y. ({LONG_BODY})",
    "width1": "forall x. exists y. ({})".format(
        LONG_BODY.replace("=(x,y)", "=(y)")),
    "star": f"exists fn f/1. forall x. exists y. ({LONG_ESO_BODY})",
    "eso2d": f"exists fn f/1. forall x. exists y. ({LONG_ESO_BODY})",
    "snf": f"exists fn f/1. forall x. exists y. ({LONG_ESO_BODY})",
    "prop36": f"exists fn f/1. forall x. forall y. ({LONG_ESO_BODY})",
}


@pytest.mark.parametrize("pass_name", _PASS_ORDER)
def test_translate_long_input(tmp_path, capsys, pass_name):
    path = tmp_path / "long.dl"
    path.write_text(LONG_INPUTS.get(pass_name,
                                    f"forall x. exists y. ({LONG_BODY})"),
                    encoding="utf-8")
    assert cli_main(["translate", "--pass", pass_name,
                     "--input", str(path)]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    if "exists fn" in out:
        assert render_eso(parse_eso_infer(out)[0]) == out
    else:
        assert render_formula(parse_formula_infer(out)[0]) == out
    if pass_name == "d2eso":
        # one quantified function per dependence atom
        assert out.count("exists fn ") == 500


# ---------------------------------------------------------------------------
# every corpus translation that decides one domain size past the acceptance
# criteria (criterion 3 checks d_to_eso at sizes 2-3, criterion 4 eso_to_d
# at size 2), with the default budgets: a pair that runs out of budget
# fails here.  phi2_closed at 4 (4^12 candidate tables) and width3 at 3
# decide because the table search sets only the entries the matrix reads.
# exist_or at 4 and even_R at 3 do not decide yet (even_R's D image runs
# out); henkin and zero_slice at 3 are beyond any walk.
# ---------------------------------------------------------------------------

FRONTIER = (
    *[(name, 4) for name in ("phi1_closed", "phi2_closed", "henkin_eq",
                             "const_eq", "global_pick", "exist_neg",
                             "exist_const", "const_choice", "exist_pair",
                             "spine")],
    *[(name, 3) for name in ("term_atom", "width3", "eso_id", "eso_const",
                             "eso_choice", "eso_square", "eso_coherent",
                             "mixed_choice")],
)


@pytest.mark.parametrize("name,size", FRONTIER)
def test_translation_one_size_past_the_criteria(name, size):
    item = corpus_item(name)
    left = item.parsed()
    right = d_to_eso(left) if item.kind == "D" else eso_to_d(left)
    v = equiv_check(left, right, item.sig, size)
    assert (v.outcome, v.max_size) == ("equivalent", size)
