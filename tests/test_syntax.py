"""Parser, renderer, and syntactic measurement tests.

Concrete expected strings and ASTs are frozen literals; the round-trip
law parse(render(f)) == f is checked both on fixed cases and on randomly
generated formulas.
"""
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from deplog.cli import main
from deplog.errors import ParseError, ShapeError
from deplog.fragments import classify_d
from deplog.harness import corpus
from deplog.syntax import (
    And, App, Bool, Const, DepAtom, Equal, EsoSentence, Exists, FALSE,
    Forall, Or, RelAtom, Signature, TRUE, Var, and_chain, check_symbols,
    contains_dep_atom, free_vars, fresh_var, function_patterns,
    is_quantifier_free, iter_terms, or_chain, parse_eso, parse_eso_infer,
    parse_formula, parse_formula_infer, prenex_split, render_eso,
    render_formula, render_term, replace_terms, satisfies_star,
    single_quantification, symbols_of,
)

SIG = Signature({"P": 2, "Q": 1}, {"g": 1}, frozenset({"c"}))


def x(name="x"):
    return Var(name)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_dep_atom():
    f = parse_formula("=(x,y)", Signature({}, {}, frozenset()))
    assert f == DepAtom((Var("x"), Var("y")))


def test_parse_quantified_conjunction():
    f = parse_formula("forall x. exists y. (=(x,y) & P(x,y))", SIG)
    assert f == Forall("x", Exists("y", And(
        DepAtom((Var("x"), Var("y"))),
        RelAtom("P", (Var("x"), Var("y"))))))


def test_parse_rejects_negated_compound():
    with pytest.raises(ParseError):
        parse_formula("~(P(x,x) & Q(x))", SIG)


def test_parse_negated_atoms():
    f = parse_formula("~Q(x) & ~x = y & ~=(x,y)", SIG)
    assert f == And(And(RelAtom("Q", (x(),), negated=True),
                        Equal(x(), Var("y"), negated=True)),
                    DepAtom((x(), Var("y")), negated=True))


def test_parse_true_false_and_folding():
    assert parse_formula("true", SIG) == TRUE
    assert parse_formula("false", SIG) == FALSE
    assert parse_formula("~true", SIG) == FALSE
    assert parse_formula("~false", SIG) == TRUE


def test_connective_precedence_and_associativity():
    f = parse_formula("Q(x) | Q(y) & Q(z) | Q(u)", SIG)
    # & over |, | left-associative
    assert f == Or(Or(RelAtom("Q", (x(),)),
                      And(RelAtom("Q", (Var("y"),)), RelAtom("Q", (Var("z"),)))),
                   RelAtom("Q", (Var("u"),)))


def test_quantifier_inside_connective_needs_parens():
    with pytest.raises(ParseError):
        parse_formula("Q(x) | exists y. Q(y)", SIG)
    f = parse_formula("Q(x) | (exists y. Q(y))", SIG)
    assert f == Or(RelAtom("Q", (x(),)), Exists("y", RelAtom("Q", (Var("y"),))))


def test_parse_undeclared_symbol_and_arity():
    with pytest.raises(ParseError):
        parse_formula("R(x)", SIG)
    with pytest.raises(ParseError):
        parse_formula("Q(x,y)", SIG)
    with pytest.raises(ParseError):
        parse_formula("g(x,y) = x", SIG)


def test_parse_reports_position():
    with pytest.raises(ParseError) as e:
        parse_formula("forall x. (", SIG)
    assert "position" in str(e.value)


@pytest.mark.parametrize("head,parse", [("", parse_formula),
                                        ("exists fn f/1. forall x. ", parse_eso)])
def test_lexer_stops_at_the_first_unexpected_character(head, parse):
    for body, bad, at in (("P(x) $ Q(x)", "$", 5), ("P(é) $", "é", 2),
                          ("P(x) & \x00Q(x)", "\x00", 7)):
        with pytest.raises(ParseError) as e:
            parse(head + body)
        assert str(e.value) == (f"unexpected character {bad!r} "
                                f"(at position {len(head) + at})")
    # whitespace, Unicode spaces too, is skipped anywhere, the end included
    assert parse(head + "P(x) & Q(x) \n\t　") == parse(head + "P(x) & Q(x)")


def test_parse_nesting_overflow_is_parse_error():
    # the parser recurses once per function application, not per parenthesis
    deep = "Q(" + "g(" * 1500 + "x" + ")" * 1501
    for parse in (lambda: parse_formula(deep, SIG),
                  lambda: parse_formula_infer(deep),
                  lambda: parse_eso("exists fn f/1. forall x. " + deep, SIG),
                  lambda: parse_eso_infer("exists fn f/1. forall x. " + deep)):
        with pytest.raises(ParseError, match=r"nested too deeply \(at position \d+\)"):
            parse()
    # nesting within the limit still parses
    assert parse_formula("(" * 100 + "Q(x)" + ")" * 100, SIG) == RelAtom("Q", (x(),))


def test_parse_constants_only_with_signature():
    f = parse_formula("P(c, x)", SIG)
    assert f == RelAtom("P", (Const("c"), Var("x")))
    g, sig = parse_formula_infer("P(c, x)")
    # without a signature the bare name is a variable
    assert g == RelAtom("P", (Var("c"), Var("x")))
    assert sig.relations == {"P": 2}


def test_parse_infer_roles():
    f, sig = parse_formula_infer("forall x. (E(x, g(x)) | g(x) = x)")
    assert sig.relations == {"E": 2}
    assert sig.functions == {"g": 1}
    assert sig.constants == frozenset()
    assert free_vars(f) == set()


def test_parse_eso_basic():
    s = parse_eso("exists fn f/1. forall x. f(x) = x",
                  Signature({}, {}, frozenset()))
    assert s.functions == (("f", 1),)
    assert s.prefix == (("forall", "x"),)
    assert s.matrix == Equal(App("f", (Var("x"),)), Var("x"))


def test_parse_eso_zero_ary():
    s = parse_eso("exists fn c/0. forall x. P(x, c())",
                  Signature({"P": 2}, {}, frozenset()))
    assert s.functions == (("c", 0),)
    assert s.matrix == RelAtom("P", (Var("x"), App("c", ())))


def test_parse_eso_arity_is_ascii_digits():
    # an arity is written in ASCII digits, as identifiers are: another
    # Unicode decimal digit (here ARABIC-INDIC THREE) is a bad character
    assert parse_eso("exists fn f/3. forall x. f(x,x,x) = x").functions == (("f", 3),)
    with pytest.raises(ParseError) as e:
        parse_eso("exists fn f/\u0663. forall x. f(x,x,x) = x")
    assert str(e.value) == "unexpected character '\u0663' (at position 12)"
    # past the interpreter's 4,300-digit limit, int() of the arity fails
    with pytest.raises(ParseError) as e:
        parse_eso(f"exists fn f/{'1' * 5000}. true")
    assert str(e.value) == "arity has too many digits (at position 12)"


def test_parse_eso_rejects_dep_atom():
    with pytest.raises(ParseError):
        parse_eso("exists fn f/1. forall x. =(x, f(x))",
                  Signature({}, {}, frozenset()))


def test_parse_eso_rejects_free_variable():
    with pytest.raises((ParseError, ShapeError)):
        parse_eso("exists fn f/1. forall x. f(x) = y",
                  Signature({}, {}, frozenset()))


def test_parse_eso_hoists_nested_quantifiers():
    s = parse_eso("exists fn f/1. forall x. (Q(x) | (exists y. Q(y)))", SIG)
    assert s.prefix == (("forall", "x"), ("exists", "y"))
    assert is_quantifier_free(s.matrix)


def test_fn_is_reserved():
    with pytest.raises(ParseError):
        parse_formula("Q(fn)", SIG)


_ROLE_CLASHES = [
    # without a signature: one role and one arity per name
    (parse_formula_infer, "Q(x) & Q(x,y)"),
    (parse_formula_infer, "Q(x) & g(Q) = x"),
    (parse_formula_infer, "Q(x) & Q = x"),
    (parse_formula_infer, "g(x) = x & g(x,x) = x"),
    (parse_formula_infer, "g(x) = x & g(x)"),
    (parse_formula_infer, "forall Q. Q(x)"),
    # against SIG = {P/2, Q/1; g/1; c}
    (lambda t: parse_formula(t, SIG), "R(x)"),
    (lambda t: parse_formula(t, SIG), "Q(x,y)"),
    (lambda t: parse_formula(t, SIG), "g(x,y) = x"),
    (lambda t: parse_formula(t, SIG), "g(x)"),
    (lambda t: parse_formula(t, SIG), "Q(x) = x"),
    (lambda t: parse_formula(t, SIG), "c(x) = x"),
    (lambda t: parse_formula(t, SIG), "forall c. Q(c)"),
    (lambda t: parse_formula(t, SIG), "g = x"),
    (lambda t: parse_formula(t, SIG), "P(x, Q)"),
    (lambda t: parse_formula(t, SIG), "forall g. Q(g)"),
    # functions of an ESO prefix, with and without SIG
    (None, "exists fn f/1. forall x. f(x, x) = x"),
    (None, "exists fn f/1. forall x. f = x"),
    (None, "exists fn f/1. forall x. f(x)"),
    (None, "exists fn f/1. forall f. Q(f)"),
    (None, "exists fn f/1. exists fn f/1. forall x. f(x) = x"),
    (lambda t: parse_eso(t, SIG), "exists fn g/1. forall x. g(x) = x"),
    (lambda t: parse_eso(t, SIG), "exists fn Q/1. forall x. Q(x) = x"),
]


def test_role_resolution_table():
    for parse, text in _ROLE_CLASHES:
        for run in ([parse] if parse else
                    [parse_eso_infer, lambda t: parse_eso(t, SIG)]):
            with pytest.raises(ParseError):
                run(text)
    assert parse_formula("P(c, x)", SIG) == RelAtom("P", (Const("c"), Var("x")))
    s = parse_eso("exists fn f/1. forall x. P(f(c), x)", SIG)
    assert s.matrix == RelAtom("P", (App("f", (Const("c"),)), Var("x")))


@pytest.mark.parametrize("f", [
    RelAtom("R", (x(),)),                                   # undeclared relation
    RelAtom("P", (x(),)),                                   # relation arity
    RelAtom("Q", (Const("d"),)),                            # undeclared constant
    RelAtom("Q", (App("h", (x(),)),)),                      # undeclared function
    Equal(App("g", (x(), x())), x()),                       # function arity
    Equal(App("f", ()), x()),                               # extra function arity
])
def test_check_symbols_rejects(f):
    with pytest.raises(ShapeError):
        check_symbols(f, SIG, extra_fns={"f": 1})
    check_symbols(RelAtom("Q", (App("f", (x(),)),)), SIG, extra_fns={"f": 1})


_MUTATION_TOKENS = ["(", ")", "~", "&", "|", "forall", "exists", "fn", ".",
                    ",", "=", "/", "2", "true"]


def _mutants(text, rng, count):
    """``count`` texts, each the tokens of ``text`` after one or two
    random deletions, insertions or swaps, joined by spaces."""
    toks = re.findall(r"[A-Za-z_]\w*|\d+|\S", text)
    pool = _MUTATION_TOKENS + sorted({t for t in toks if t[0].isalpha()} | {"x", "P", "f"})
    for _ in range(count):
        out = list(toks)
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(len(out)), rng.randrange(len(out))
            op = rng.randrange(3)
            if op == 0 and len(out) > 1:
                del out[i]
            elif op == 1:
                out.insert(i, rng.choice(pool))
            else:
                out[i], out[j] = out[j], out[i]
        yield " ".join(out)


def _outcome(parse, render, text) -> str:
    """The rendering and the inferred signature, or the error line."""
    try:
        tree, sig = parse(text)
    except (ParseError, ShapeError) as e:
        return f"{type(e).__name__}: {e}"
    return f"{render(tree)} {json.dumps(sig.to_json_dict(), sort_keys=True)}"


def test_parse_outcomes_pinned():
    # 3,000 token-level mutations of the corpus texts, each parsed both
    # ways; the digest pins every tree, signature, message and position
    rng = random.Random(2020)
    digest = hashlib.sha256()
    for item in corpus():
        for text in _mutants(item.text, rng, 125):
            for parse, render in ((parse_formula_infer, render_formula),
                                  (parse_eso_infer, render_eso)):
                digest.update(_outcome(parse, render, text).encode() + b"\n")
    assert digest.hexdigest() == (
        "c387850994ec3ef16ee8273a9ad029924c8aa5de8bb0b93f2b6bf3def1c6de6d")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_dep_atoms():
    assert render_formula(DepAtom((Var("x"), Var("y")))) == "=(x,y)"
    assert render_formula(DepAtom(())) == "=()"


def test_render_henkin_sentence_exact():
    text = ("forall x0. exists x1. forall x2. exists x3. "
            "(=(x2,x3) & P(x0,x1,x2,x3))")
    f, _ = parse_formula_infer(text)
    assert render_formula(f) == text


def test_render_term():
    assert render_term(App("g", (App("g", (Var("x"),)),))) == "g(g(x))"
    assert render_term(Const("c")) == "c"
    assert render_term(App("f", (Var("x"), App("g", ()), Const("c")))) == "f(x,g(),c)"
    with pytest.raises(ShapeError, match="not a term: 'x'"):
        render_term(App("f", (Var("y"), "x")))


@pytest.mark.parametrize("f", [Var("x"), And(None, TRUE),
                               Forall("x", Or(TRUE, App("g", (x(),))))])
def test_render_refuses_a_node_that_is_no_formula(f):
    with pytest.raises(ShapeError, match="not an atom: "):
        render_formula(f)


def test_render_deep_application(tmp_path, capsys):
    # 400 nested applications are within the parser's depth, and rendering
    # them takes no recursion: the text comes back unchanged (compared as
    # text, since term equality recurses per level), and the CLI succeeds
    text = "forall x. P(" + "f(" * 400 + "x" + ")" * 401
    rendered = render_formula(parse_formula(text))
    assert rendered == text
    assert render_formula(parse_formula(rendered)) == text
    path = tmp_path / "deep.dl"
    path.write_text(text, encoding="utf-8")
    for argv in (["parse", str(path)],
                 ["translate", "--pass", "prenex", "--input", str(path)]):
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


def test_render_parenthesizes_only_when_needed():
    f = Or(And(TRUE, FALSE), TRUE)
    assert render_formula(f) == "true & false | true"
    g = And(Or(TRUE, FALSE), TRUE)
    assert render_formula(g) == "(true | false) & true"


# ---------------------------------------------------------------------------
# free variables, single quantification, fresh names
# ---------------------------------------------------------------------------

def test_free_vars_dep_atom():
    assert free_vars(parse_formula("=(x,y)", SIG)) == {"x", "y"}


def test_free_vars_binder():
    assert free_vars(parse_formula("exists y. =(x,y)", SIG)) == {"x"}


def test_free_vars_sentences_empty():
    for item in corpus():
        if not item.team_vars and item.kind == "D":
            assert free_vars(item.formula()) == set(), item.name


def test_single_quantification():
    assert single_quantification(parse_formula("forall x. exists y. P(x,y)", SIG))
    assert not single_quantification(
        parse_formula("forall x. (Q(x) | (exists x. Q(x)))", SIG))


def test_single_quantification_fails_after_variable_reuse():
    from deplog.transforms import single_forall_reuse
    f = parse_formula("forall y1. forall y2. P(y1,y2)", SIG)
    out = single_forall_reuse(f, "x")
    assert not single_quantification(out)


def test_fresh_var_scheme():
    assert fresh_var({"x"}, "y") == "y"
    assert fresh_var({"y"}, "y") == "y_1"
    assert fresh_var({"y", "y_1"}, "y") == "y_2"


def test_symbols_of_covers_everything():
    f = parse_formula("forall x. (P(c, g(x)) | Q(y))", SIG)
    assert symbols_of(f) == {"x", "P", "c", "g", "Q", "y"}


# ---------------------------------------------------------------------------
# helpers on formulas
# ---------------------------------------------------------------------------

def test_prenex_split():
    f = parse_formula("forall x. exists y. (=(x,y) & P(x,y))", SIG)
    prefix, body = prenex_split(f)
    assert prefix == [("forall", "x"), ("exists", "y")]
    assert is_quantifier_free(body)


def test_and_or_chain():
    atoms = [TRUE, FALSE, TRUE]
    assert render_formula(and_chain(atoms)) == "true & false & true"
    assert render_formula(or_chain(atoms)) == "true | false | true"
    assert and_chain([TRUE]) == TRUE


def test_function_patterns_and_star():
    s = parse_eso("exists fn f/1. forall x. P(x, f(x))", SIG)
    assert function_patterns(s) == {"f": [(Var("x"),)]}
    assert satisfies_star(s)
    t = parse_eso("exists fn f/1. forall x. forall y. P(f(x), f(y))", SIG)
    assert not satisfies_star(t)


def test_replace_terms_one_pass():
    y = Var("y")
    f = parse_formula("P(x, y) & Q(g(x))", SIG)
    assert render_formula(replace_terms(f, {x(): y, y: x()})) == \
        "P(y,x) & Q(g(y))"
    # a replaced term is not searched again, so g(x) -> g(g(x)) ends
    gx = App("g", (x(),))
    assert render_formula(replace_terms(f, {gx: App("g", (gx,))})) == \
        "P(x,y) & Q(g(g(x)))"


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_corpus_round_trips():
    for item in corpus():
        if item.kind == "D":
            f = item.formula()
            assert parse_formula(render_formula(f), item.sig) == f, item.name
        else:
            s = item.sentence()
            assert parse_eso(render_eso(s), item.sig) == s, item.name


_vars = st.sampled_from(["x", "y", "z"])
_terms = st.recursive(
    _vars.map(Var) | st.just(Const("c")),
    lambda inner: st.tuples(inner).map(lambda a: App("g", a)),
    max_leaves=3)
_neg = st.booleans()
_atoms = (
    st.tuples(_terms, _terms, _neg).map(lambda t: RelAtom("P", (t[0], t[1]), t[2]))
    | st.tuples(_terms, _neg).map(lambda t: RelAtom("Q", (t[0],), t[1]))
    | st.tuples(_terms, _terms, _neg).map(lambda t: Equal(t[0], t[1], t[2]))
    | st.lists(_vars, max_size=3).map(lambda vs: DepAtom(tuple(Var(v) for v in vs)))
    | st.sampled_from([TRUE, FALSE])
)


def _combine(inner):
    return (
        st.tuples(inner, inner).map(lambda p: And(*p))
        | st.tuples(inner, inner).map(lambda p: Or(*p))
        | st.tuples(_vars, inner).map(lambda p: Exists(p[0], p[1]))
        | st.tuples(_vars, inner).map(lambda p: Forall(p[0], p[1]))
    )


_formulas = st.recursive(_atoms, _combine, max_leaves=8)


@given(_formulas)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_render_round_trip(f):
    assert parse_formula(render_formula(f), SIG) == f


@given(_formulas)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_inferred_signature_agrees_with_declared(f):
    text = render_formula(f)
    g, inferred = parse_formula_infer(text)
    assert parse_formula(text, inferred) == g
    with_c = Signature(inferred.relations, inferred.functions, frozenset({"c"}))
    assert parse_formula(text, with_c) == f


@given(st.lists(st.tuples(st.sampled_from(["f", "h"]), st.integers(0, 2)),
                max_size=2, unique_by=lambda p: p[0]),
       _formulas)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_eso_render_round_trip(fns, body):
    # build a well-formed sentence: close the body, strip dep atoms by
    # parsing only if none are present
    from deplog.syntax import contains_dep_atom
    if contains_dep_atom(body):
        return
    fvs = sorted(free_vars(body))
    prefix = tuple(("forall", v) for v in fvs)
    try:
        s = EsoSentence(tuple(fns), prefix, body)
    except ShapeError:
        return
    assert parse_eso(render_eso(s), SIG) == s


@given(_formulas, _vars)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_free_vars_binder_law(f, v):
    assert free_vars(Exists(v, f)) == free_vars(f) - {v}
    assert free_vars(Forall(v, f)) == free_vars(f) - {v}


# ---------------------------------------------------------------------------
# well-formed ESO sentences: what the constructor accepts
# ---------------------------------------------------------------------------

_BAD_NAMES = {"fn", "true", "2f"}
_fo_atoms = (
    st.tuples(_terms, _terms, _neg).map(lambda t: RelAtom("P", (t[0], t[1]), t[2]))
    | st.tuples(_terms, _neg).map(lambda t: RelAtom("Q", (t[0],), t[1]))
    | st.tuples(_terms, _terms, _neg).map(lambda t: Equal(t[0], t[1], t[2]))
    | st.sampled_from([TRUE, FALSE])
)
_matrices = st.recursive(
    _fo_atoms,
    lambda inner: (st.tuples(inner, inner).map(lambda p: And(*p))
                   | st.tuples(inner, inner).map(lambda p: Or(*p))),
    max_leaves=6)
# a term where a formula belongs
_not_formulas = st.tuples(_matrices, st.just(x())).map(lambda p: And(*p))
# mostly well-formed parts, so that a fair share of the draws is accepted
_good_fns = st.lists(st.sampled_from([("f", 0), ("f", 2), ("g", 1), ("h", 1)]),
                     max_size=2, unique_by=lambda p: p[0])
_eso_fns = st.one_of(
    _good_fns, _good_fns, _good_fns,
    st.lists(st.tuples(st.sampled_from(["f", "g", "x", "fn", "2f"]),
                       st.sampled_from([0, 1, 2, -1, True])), max_size=3))
_good_prefixes = st.lists(st.tuples(st.sampled_from(["forall", "exists"]), _vars),
                          max_size=3, unique_by=lambda p: p[1])
_eso_prefixes = st.one_of(
    _good_prefixes, _good_prefixes, _good_prefixes,
    st.lists(st.tuples(st.sampled_from(["forall", "exists", "some"]),
                       st.sampled_from(["x", "y", "z", "true"])), max_size=3))


def _eso_malformed(fns, prefix, matrix) -> bool:
    """The oracle: the rule for an ESO sentence, from the public queries."""
    names = [n for n, _ in fns]
    pvars = [v for _, v in prefix]
    arities = dict(fns)
    try:
        loose = free_vars(matrix) - set(pvars)
    except ShapeError:  # the matrix holds something that is not a formula
        return True
    return bool(
        len(set(names)) != len(names)
        or any(n in _BAD_NAMES or isinstance(a, bool) or a < 0 for n, a in fns)
        or len(set(pvars)) != len(pvars)
        or any(k not in ("forall", "exists") or v in _BAD_NAMES
               for k, v in prefix)
        or set(names) & set(pvars)
        or not is_quantifier_free(matrix)
        or contains_dep_atom(matrix)
        or loose
        or any(isinstance(t, App) and t.fn in arities
               and len(t.args) != arities[t.fn] for t in iter_terms(matrix)))


@given(_eso_fns, _eso_prefixes,
       st.one_of(_matrices, _matrices, _matrices, _formulas, _not_formulas),
       st.sampled_from([True, True, True, False]))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_eso_sentence_accepts_exactly_the_well_formed(fns, prefix, body, close):
    if close:  # quantify the body's free variables, so that some draws pass
        try:
            prefix = prefix + [("forall", v) for v in sorted(free_vars(body))
                               if v not in {u for _, u in prefix}]
        except ShapeError:
            pass
    if _eso_malformed(fns, prefix, body):
        with pytest.raises(ShapeError):
            EsoSentence(tuple(fns), tuple(prefix), body)
    else:
        s = EsoSentence(tuple(fns), tuple(prefix), body)
        assert (s.functions, s.prefix, s.matrix) == (tuple(fns), tuple(prefix), body)


_P_XY = RelAtom("P", (x(), Var("y")))
_FORALL_XY = (("forall", "x"), ("forall", "y"))


@pytest.mark.parametrize("fns,prefix,matrix", [
    ((("f", 1), ("f", 1)), _FORALL_XY, _P_XY),                  # function twice
    ((("f", -1),), _FORALL_XY, _P_XY),                          # bad arity
    ((("f", True),), _FORALL_XY, _P_XY),                        # bool arity
    ((("fn", 1),), _FORALL_XY, _P_XY),                          # bad name
    ((), (("forall", "x"), ("exists", "x")), RelAtom("Q", (x(),))),  # x twice
    ((), (("some", "x"), ("forall", "y")), _P_XY),              # bad kind
    ((), (("forall", "x"), ("forall", "true")), RelAtom("Q", (x(),))),  # name
    ((("x", 0),), _FORALL_XY, _P_XY),                           # collision
    ((), _FORALL_XY, And(_P_XY, DepAtom((x(), Var("y"))))),     # dep atom
    ((), _FORALL_XY, Or(_P_XY, Forall("z", RelAtom("Q", (Var("z"),))))),
    ((), (("forall", "x"),), _P_XY),                            # y unquantified
    ((("g", 2),), _FORALL_XY, RelAtom("Q", (App("g", (x(),)),))),  # wrong arity
    ((), _FORALL_XY, And(_P_XY, x())),                          # not a formula
    ((), _FORALL_XY, "P(x,y)"),                                 # not a formula
    ((), (("forall",),), TRUE),                                 # prefix entry
    ((("f",),), (), TRUE),                                      # function entry
    ((), (), RelAtom("P", ("x",))),                             # not a term
])
def test_eso_sentence_rejects(fns, prefix, matrix):
    with pytest.raises(ShapeError):
        EsoSentence(fns, prefix, matrix)


# ---------------------------------------------------------------------------
# long inputs: every walk runs under the default recursion limit
# ---------------------------------------------------------------------------

def _long_chain(chain):
    """forall x. exists y. (3,001 atoms joined by 3,000 connectives)."""
    xy = (x(), Var("y"))
    atoms = [DepAtom(xy) if i % 3 == 0 else RelAtom("P", xy)
             for i in range(3001)]
    return Forall("x", Exists("y", chain(atoms)))


@pytest.mark.parametrize("chain,op", [(and_chain, " & "), (or_chain, " | ")])
def test_long_chain_walks(chain, op):
    f = _long_chain(chain)
    text = render_formula(f)
    body = op.join(["=(x,y)", "P(x,y)", "P(x,y)"] * 1000 + ["=(x,y)"])
    assert text == f"forall x. exists y. ({body})"
    assert render_formula(parse_formula(text, SIG)) == text
    assert free_vars(f) == frozenset()
    assert free_vars(f.body.body) == {"x", "y"}
    assert single_quantification(f)
    prefix, matrix = prenex_split(f)
    assert prefix == [("forall", "x"), ("exists", "y")]
    assert render_formula(matrix) == body
    assert symbols_of(f) == {"x", "y", "P"}
    report = classify_d(f)
    assert (report.forall_count, report.max_dep_width) == (1, 2)


def test_deep_parentheses_parse(tmp_path, capsys):
    deep = "(" * 10_000 + "Q(x) | Q(g(x))" + ")" * 10_000
    want = Or(RelAtom("Q", (x(),)), RelAtom("Q", (App("g", (x(),)),)))
    f, sig = parse_formula_infer(deep)
    assert f == parse_formula(deep, SIG) == want
    assert parse_formula(render_formula(f), sig) == f
    text = "exists fn f/1. forall x. " + deep
    s, sig = parse_eso_infer(text)
    assert s == parse_eso(text, SIG) == EsoSentence((("f", 1),), (("forall", "x"),), want)
    assert parse_eso(render_eso(s), sig) == s
    path = tmp_path / "deep.dl"
    path.write_text("forall x. " + deep)
    for argv in (["parse", str(path)], ["translate", "--pass", "prenex", "--input", str(path)]):
        assert main(argv) == 0
        assert capsys.readouterr() == ("forall x. (Q(x) | Q(g(x)))\n", "")


def test_long_prefix_walks():
    names = [f"x{i}" for i in range(1500)]
    f = and_chain([RelAtom("Q", (x(v),)) for v in (names[0], names[-1])])
    for i in reversed(range(1500)):
        f = (Forall if i % 2 == 0 else Exists)(names[i], f)
    heads = "".join(f"{'exists' if i % 2 else 'forall'} {v}. "
                    for i, v in enumerate(names))
    text = render_formula(f)
    assert text == f"{heads}(Q(x0) & Q(x1499))"
    assert render_formula(parse_formula(text, SIG)) == text
    assert free_vars(f) == frozenset()
    assert single_quantification(f)
    assert not single_quantification(Forall("x0", f))
    prefix, matrix = prenex_split(f)
    assert [v for _, v in prefix] == names
    assert render_formula(matrix) == "Q(x0) & Q(x1499)"
    assert symbols_of(f) == set(names) | {"Q"}
    report = classify_d(f)
    assert report.forall_count == 750
    assert report.memberships == ("D(750-forall)", "D(0-dep)")
