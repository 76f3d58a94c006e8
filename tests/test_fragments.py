"""Fragment measurement: pinned reports, bound formulas, and the
guarantees the translations must respect on the whole corpus."""
import pytest

from deplog.errors import ShapeError
from deplog.fragments import FragmentReport, classify_d, classify_eso
from deplog.harness import corpus, corpus_item
from deplog.syntax import (
    free_vars, parse_eso_infer, parse_formula, parse_formula_infer,
    render_eso, render_formula, Signature,
)
from deplog.transforms import d_to_eso

SIG0 = Signature({}, {}, frozenset())


# ---------------------------------------------------------------------------
# classify_d
# ---------------------------------------------------------------------------

def test_classify_henkin():
    r = classify_d(corpus_item("henkin").formula())
    assert r.kind == "D"
    assert r.forall_count == 2
    assert r.max_dep_width == 2
    assert r.single_quantification is True
    assert "D(2-forall)" in r.memberships
    assert "D(1-dep)" in r.memberships
    assert r.upper_bound == "NTIME_RAM(n^2)"


def test_classify_exists_only_dependence_free():
    f, _ = parse_formula_infer("exists x. exists y. E(x,y)")
    r = classify_d(f)
    assert r.forall_count == 0
    assert r.max_dep_width == 0
    assert r.memberships == ("D(0-forall)", "D(0-dep)")
    assert r.upper_bound == "FO"


def test_classify_width_three():
    r = classify_d(corpus_item("width3").formula())
    assert r.max_dep_width == 3
    assert "D(2-dep)" in r.memberships
    assert "D(1-dep)" not in r.memberships


def test_classify_requantified_has_no_forall_class():
    f, _ = parse_formula_infer(
        "forall x. (E(x,x) | (forall x. exists u. (=(x,u) & E(x,u))))")
    r = classify_d(f)
    assert r.single_quantification is False
    assert not any(m.endswith("-forall)") for m in r.memberships)
    assert r.memberships == ("D(1-dep)",)
    assert r.upper_bound == "NP"


def test_classify_empty_atom_width_zero():
    f = parse_formula("forall x. =()", SIG0)
    r = classify_d(f)
    assert r.max_dep_width == 0
    assert "D(0-dep)" in r.memberships
    assert r.upper_bound == "FO"  # width <= 1 collapses


def test_classify_d_rejects_open_formula():
    with pytest.raises(ShapeError):
        classify_d(parse_formula("=(x,y)", SIG0))


def test_classify_d_counts_occurrences_not_names():
    # requantified x: two occurrences even though one name
    f, _ = parse_formula_infer("forall x. (P(x) & (forall x. P(x)))")
    r = classify_d(f)
    assert r.forall_count == 2
    assert r.single_quantification is False


# ---------------------------------------------------------------------------
# classify_eso
# ---------------------------------------------------------------------------

def test_classify_eso_unary_snf():
    s, _ = parse_eso_infer("exists fn f/1. forall x. P(x, f(x))")
    r = classify_eso(s)
    assert r.kind == "ESO"
    assert r.max_arity == 1
    assert r.forall_count == 1
    assert r.snf is True and r.star is True and r.exists_star is True
    assert r.memberships == (
        "ESO_f(1-ary)",
        "ESO_f(1-ary, 1-forall)",
        "ESO_f(1-forall)",
        "ESO_f1(1-forall)",
        "ESO_f1(1-forall, exists*)",
    )
    assert r.upper_bound == "NTIME_RAM(n^1)"


def test_classify_eso_two_patterns_fails_star():
    s, _ = parse_eso_infer("exists fn f/1. forall x. forall y. f(x) = f(y)")
    r = classify_eso(s)
    assert r.star is False
    assert not any(m.startswith("ESO_f1") for m in r.memberships)
    assert "ESO_f(1-ary, 2-forall)" in r.memberships


def test_classify_eso_wide_function_exists_star():
    s, _ = parse_eso_infer("exists fn f/2. forall x. exists y. P(f(x,y))")
    r = classify_eso(s)
    assert r.max_arity == 2
    assert r.forall_count == 1
    assert r.snf is False
    assert r.star is True
    # arity may exceed the universal count in the exists* class
    assert r.memberships == ("ESO_f(2-ary)", "ESO_f1(1-forall, exists*)")


def test_classify_eso_zero_ary_is_fo():
    s, _ = parse_eso_infer("exists fn c/0. forall x. E(x, c())")
    r = classify_eso(s)
    assert r.max_arity == 0
    assert r.upper_bound == "FO"


def test_classify_eso_no_functions():
    s, _ = parse_eso_infer("forall x. exists y. E(x,y)")
    r = classify_eso(s)
    assert r.max_arity == 0
    assert r.snf is False
    assert r.upper_bound == "FO"


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def test_bound_ntime_exponent_is_universal_count():
    f, _ = parse_formula_infer(
        "forall x. forall y. forall z. exists u. (=(x,y,u) & E(z,u))")
    r = classify_d(f)
    assert r.upper_bound == "NTIME_RAM(n^3)"


def test_bound_fallback_without_single_quantification():
    f, _ = parse_formula_infer(
        "forall x. (E(x,x) | (forall x. exists u. (=(x,u) & E(x,u))))")
    assert classify_d(f).upper_bound == "NP"


def test_bound_eso_floor_is_linear():
    # zero universals but a real function: still at least n^1
    s, _ = parse_eso_infer("exists fn f/1. exists x. P(x, f(x))")
    assert classify_eso(s).upper_bound == "NTIME_RAM(n^1)"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_to_dict_d_keys():
    r = classify_d(corpus_item("henkin").formula())
    d = r.to_dict()
    assert list(d) == ["kind", "forall_count", "single_quantification",
                       "max_dep_width", "memberships", "upper_bound"]
    assert d["memberships"] == list(r.memberships)
    assert isinstance(d["memberships"], list)


def test_to_dict_eso_keys():
    r = classify_eso(corpus_item("even_R").sentence())
    d = r.to_dict()
    assert list(d) == ["kind", "forall_count", "max_arity", "snf", "star",
                       "exists_star", "memberships", "upper_bound"]


def test_reports_stable_under_render_reparse():
    for item in corpus():
        if item.kind == "D":
            f = item.formula()
            if free_vars(f):
                continue
            again = parse_formula(render_formula(f), item.sig)
            assert classify_d(again) == classify_d(f), item.name
        else:
            s = item.sentence()
            from deplog.syntax import parse_eso
            again = parse_eso(render_eso(s), item.sig)
            assert classify_eso(again) == classify_eso(s), item.name


# ---------------------------------------------------------------------------
# translation guarantees over the corpus
# ---------------------------------------------------------------------------

def test_translation_respects_fragment_parameters():
    for item in corpus():
        if item.kind != "D" or free_vars(item.formula()):
            continue
        r = classify_d(item.formula())
        e = classify_eso(d_to_eso(item.formula()))
        assert e.max_arity <= max(r.max_dep_width - 1, 0), item.name
        if r.single_quantification:
            assert e.forall_count <= r.forall_count, item.name
            assert e.star and e.exists_star, item.name


def test_forall_class_implies_exists_star_image():
    for item in corpus():
        if item.kind != "D" or free_vars(item.formula()):
            continue
        r = classify_d(item.formula())
        if not any(m.endswith("-forall)") and m.startswith("D(")
                   for m in r.memberships):
            continue
        e = classify_eso(d_to_eso(item.formula()))
        tag = f"ESO_f1({e.forall_count}-forall, exists*)"
        assert tag in e.memberships, item.name
