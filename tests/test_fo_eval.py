"""The classical compiler's generated code: nesting past CPython's limits,
names the grammar accepts that Python treats specially, and the input
checks beside it."""

import hashlib
import itertools
import re

import pytest

from helpers import oracle_eso, oracle_fo
from deplog import fo_eval
from deplog.budget import Budget
from deplog.errors import ShapeError
from deplog.eso_eval import _eso_plan, eso_satisfies
from deplog.harness import corpus
from deplog.structures import Structure, enumerate_structures
from deplog.syntax import (
    FALSE, TRUE, And, EsoSentence, Forall, Or, Signature, and_chain, or_chain,
    parse_eso, parse_eso_infer, parse_formula, parse_formula_infer,
)
from deplog.team_eval import _plan as _team_plan, satisfies, sentence_truth
from deplog.structures import Team
from deplog.transforms import (
    d_to_eso, eso_to_d, skolemize_normal_form, to_normal_form,
)


@pytest.fixture
def sources(monkeypatch):
    """Every text fo_eval._load receives while the test runs, in order,
    cache hits included."""
    seen = []
    load = fo_eval._load
    monkeypatch.setattr(fo_eval, "_load", lambda src: seen.append(src) or load(src))
    return seen


# sha256 of every text fo_eval._load receives while the plans of the closed
# corpus sentences and of their d_to_eso / eso_to_d images are built, in
# corpus order; a change that rewrites the generated code on purpose
# re-pins it and says why
GENERATED_DIGEST = "bd1125494aab3d3e5155e9d5b2e8a5701c75009780e15496ea56312a8577204d"


def test_generated_code_pinned(sources):
    for item in corpus():
        if item.team_vars:
            continue
        s = item.parsed()
        for t in (s, d_to_eso(s) if item.kind == "D" else eso_to_d(s)):
            if isinstance(t, EsoSentence):
                _eso_plan(t, item.sig)
            else:
                _team_plan(t, (), item.sig)
    h = hashlib.sha256()
    for src in sources:
        h.update(src.encode() + b"\0")
    assert h.hexdigest() == GENERATED_DIGEST


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


# Deep classical input, decided at size 1.  The expected verdicts are
# written by hand, since the oracles in helpers recurse once per level.
_SIG_P = Signature({"P": 1})
_P = parse_formula("P(x)", _SIG_P)


def _point(holds):
    """The structure of size 1 where P holds or not."""
    return Structure(_SIG_P, 1, {"P": frozenset({(0,)} if holds else ())}, {}, {})


def _alternation(levels, right):
    """P(x) under ``levels`` links alternating & and |, each nesting the
    rest on its right or on its left; made of P(x) alone, it is P(x)."""
    f = _P
    for i in range(levels):
        link = And if i % 2 else Or
        f = link(_P, f) if right else link(f, _P)
    return f


# one name rebound at every level: each level still loops over a slot of
# its own
DEEP_NEST = "forall x. " * 5000 + "P(x)"


@pytest.mark.parametrize("holds", [True, False])
def test_deep_universal_nest_decided(holds):
    assert sentence_truth(_point(holds), parse_formula(DEEP_NEST, _SIG_P)) is holds


@pytest.mark.parametrize("holds", [True, False])
def test_split_off_functions_take_the_slots_they_read(holds, sources):
    # a function split off a nest of distinct names is called with the
    # slots its body reads, its own split-offs' included, not with every
    # slot in scope, so the text grows linearly with the nest
    sizes = []
    for n in (400, 800):
        f = parse_formula("".join(f"forall x{i}. " for i in range(n))
                          + f"(P(x0) | P(x{n - 1}))", _SIG_P)
        assert sentence_truth(_point(holds), f) is holds
        sizes.append(len(sources[-1]))
    assert sizes[1] < 2.2 * sizes[0], sizes


@pytest.mark.parametrize("right", [True, False], ids=["right", "left"])
@pytest.mark.parametrize("holds", [True, False])
def test_deep_alternation_decided(holds, right):
    f = Forall("x", _alternation(3000, right))
    assert sentence_truth(_point(holds), f) is holds


@pytest.mark.parametrize("holds", [True, False])
def test_deep_eso_prefix_decided(holds):
    n = 2000
    s = parse_eso("exists fn g/1. exists y. "
                  + "".join(f"forall x{i}. " for i in range(n)) + "P(g(y))", _SIG_P)
    assert eso_satisfies(_point(holds), s) is holds


@pytest.mark.parametrize("link", [And, Or])
def test_right_nested_chain_is_one_function(link, sources):
    # each link's right side opens one indentation past the chain's guards,
    # not past the link, so the chain stays one flat run of blocks
    f = _P
    for _ in range(2999):
        f = link(_P, f)
    assert sentence_truth(_point(True), Forall("x", f)) is True
    assert sources
    for src in sources:
        assert src.count(" def ") == 1, src[:200]
        assert max(len(s) - len(s.lstrip()) for s in src.splitlines()) <= 4


def test_only_the_loops_count_nothing():
    # forall x run as a loop of the plan: it counts nothing, while f's own
    # exists y counts one unit and each P(y) one more, once per x until the
    # first x for which f is false
    syms = fo_eval._Symbols()
    check = fo_eval._compile_fo(parse_formula("exists y. P(y)", _SIG_P), (), syms,
                                "first-order evaluation", (("forall", "x"),))
    budget = Budget(100)
    syms.bind(Structure(_SIG_P, 2, {"P": frozenset()}, {}, {}), budget)
    assert check([]) is False
    assert budget.spent == 3


# names the grammar accepts that Python treats specially or that the
# generated code could use for its own locals
_NAMES = ("__import__", "exec", "lambda", "env", "values", "n", "u", "r")


@pytest.mark.parametrize("name", _NAMES)
def test_python_names_stay_out_of_the_generated_code(name, sources):
    # the name as a relation, a function, a constant, a variable and a
    # quantified function, each decided as the oracles decide it; every
    # text the compiler writes for them is read, cache hits included
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
