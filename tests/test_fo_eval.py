"""The classical compiler's generated code: nesting past CPython's limits,
names the grammar accepts that Python treats specially, and the input
checks beside it."""

import itertools
import re

import pytest

from helpers import oracle_eso, oracle_fo
from deplog import fo_eval
from deplog.errors import ShapeError
from deplog.eso_eval import eso_satisfies
from deplog.structures import Structure, enumerate_structures
from deplog.syntax import (
    FALSE, TRUE, EsoSentence, Signature, and_chain, or_chain, parse_eso,
    parse_eso_infer, parse_formula, parse_formula_infer,
)
from deplog.team_eval import satisfies, sentence_truth
from deplog.structures import Team
from deplog.transforms import skolemize_normal_form, to_normal_form


def test_deep_quantifier_nest_matches_oracle():
    # 25 nested quantifiers, more than the 20 blocks CPython nests in one
    # function, alternating so that each inner search stops early
    n = 25
    xs = [f"x{i}" for i in range(n)]
    prefix = "".join(f"{'forall' if i % 2 == 0 else 'exists'} {x}. "
                     for i, x in enumerate(xs))
    sig = Signature({"E": 2}, {}, frozenset())
    for body in (" & ".join(f"E({xs[i]},{xs[i + 1]})" for i in range(0, n - 1, 2)),
                 f"E({xs[0]},{xs[-1]}) | {xs[1]} = {xs[0]}"):
        f = parse_formula(prefix + f"({body})", sig)
        for m in enumerate_structures(sig, 2):
            assert sentence_truth(m, f) == oracle_fo(m, {}, f), (body, m)


def test_deep_application_matches_oracle():
    # f(f(...f(x))) 400 levels deep, past CPython's 200 nested brackets
    sig = Signature({"P": 1}, {"f": 1}, frozenset())
    term = "x"
    for _ in range(400):
        term = f"f({term})"
    f = parse_formula(f"forall x. (P({term}) | {term} = x)", sig)
    for m in enumerate_structures(sig, 2):
        assert sentence_truth(m, f) == oracle_fo(m, {}, f)
    s = parse_eso(f"exists fn g/1. forall x. ({term.replace('f', 'g')} = x"
                  f" | P({term}))", sig)
    for m in enumerate_structures(sig, 2):
        assert eso_satisfies(m, s) == oracle_eso(m, s)


# names the grammar accepts that Python treats specially or that the
# generated code could use for its own locals
_NAMES = ("__import__", "exec", "lambda", "env", "values", "n", "u", "r")


@pytest.mark.parametrize("name", _NAMES)
def test_python_names_stay_out_of_the_generated_code(name):
    # the name as a relation, a function, a constant, a variable and a
    # quantified function, each decided as the oracles decide it
    fo_eval._CODE.clear()
    e, c = {"E": 2}, frozenset({"c"})
    cases = [
        (Signature({name: 2}, {}, c), f"forall x. exists y. ({name}(x,y) | ~{name}(c,y))",
         f"forall x. ({name}(x,g(x)) | ~{name}(c,g(g(x))))"),
        (Signature(e, {name: 1}, c), f"forall x. (E(x,{name}(x)) | {name}({name}(x)) = c)",
         f"forall x. (E(x,{name}(g(x))) | g({name}(x)) = c)"),
        (Signature(e, {}, frozenset({name})), f"exists y. (E({name},y) & ~y = {name})",
         f"forall y. (E({name},g(y)) & ~g(y) = {name})"),
        (Signature(e, {}, c), f"forall {name}. exists y. (E({name},y) | {name} = c)",
         f"forall {name}. (E({name},g({name})) | {name} = c)"),
    ]
    for sig, text, matrix in cases:
        f = parse_formula(text, sig)
        eso = parse_eso(f"exists fn g/1. {matrix}", sig)
        for m in enumerate_structures(sig, 2):
            assert sentence_truth(m, f) == oracle_fo(m, {}, f), text
            assert eso_satisfies(m, eso) == oracle_eso(m, eso), matrix
    sig = Signature(e, {}, c)
    eso = parse_eso(f"exists fn {name}/1. forall x. (E(x,{name}(x)) | {name}(x) = c)", sig)
    for m in enumerate_structures(sig, 2):
        assert eso_satisfies(m, eso) == oracle_eso(m, eso)
    team = Team((name,), frozenset({(0,), (1,)}))
    m = Structure(sig, 2, {"E": frozenset({(0, 0), (1, 1)})}, {}, {"c": 0})
    assert satisfies(m, team, parse_formula(f"E({name},{name})", sig)) is True
    sources = list(fo_eval._CODE)
    assert len(sources) >= 5
    for src in sources:
        assert not set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", src)) & set(_NAMES), src


@pytest.mark.parametrize("entry", [parse_formula, parse_eso, parse_formula_infer,
                                   parse_eso_infer])
@pytest.mark.parametrize("text", [None, 5, EsoSentence((), (), TRUE)],
                         ids=["None", "int", "EsoSentence"])
def test_parse_refuses_text_that_is_not_a_string(entry, text):
    with pytest.raises(ShapeError, match="formula text must be a string"):
        entry(text)


@pytest.mark.parametrize("bad", [None, 5, EsoSentence((), (), TRUE)],
                         ids=["None", "int", "EsoSentence"])
def test_skolemize_refuses_what_is_not_a_normal_form(bad):
    with pytest.raises(ShapeError, match="not a normal form"):
        skolemize_normal_form(bad)


def test_skolemize_takes_a_normal_form():
    sig = Signature({"E": 2}, {}, frozenset())
    nf = to_normal_form(parse_formula("forall x. exists y. (=(x,y) & E(x,y))", sig))
    assert skolemize_normal_form(nf).functions == (("f1", 1),)


@pytest.mark.parametrize("chain", [and_chain, or_chain])
def test_chains_refuse_what_is_not_a_list(chain):
    for bad in (None, 5, TRUE):
        with pytest.raises(ShapeError, match="not a list of formulas"):
            chain(bad)
    assert chain([]) == (TRUE if chain is and_chain else FALSE)
    assert chain((TRUE,)) == TRUE
