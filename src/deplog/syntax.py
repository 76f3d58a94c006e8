"""Syntax for dependence-logic and existential second-order sentences.

Grammar (one shared lexical space; identifiers match [A-Za-z_][A-Za-z0-9_]*;
``forall``, ``exists``, ``fn``, ``true``, ``false`` are reserved):

    formula := ("forall" | "exists") VAR "." formula | disj
    disj    := conj ("|" conj)*
    conj    := unit ("&" unit)*
    unit    := "(" formula ")" | ["~"] atom
    atom    := "=(" [terms] ")" | REL "(" [terms] ")"
             | term "=" term | "true" | "false"
    term    := VAR | CONST | FUN "(" [terms] ")"
    terms   := term ("," term)*

    eso     := ("exists" "fn" FUN "/" ARITY ".")* formula

"&" binds tighter than "|"; both are left-associative. Negation is only
permitted on atoms, so every parsed formula is in negation normal form;
"~true" and "~false" fold to the opposite constant. The first-order part
of an ESO sentence may contain nested quantifiers as long as no variable
is quantified twice; they are hoisted into a prenex prefix at parse time.

Parsing reads syntax only: a bare identifier is a variable, an applied
identifier in atom position is a relation, and any other applied
identifier is a function (an application followed by "=" is a term, e.g.
"f(x) = y"). One resolver then settles the symbol roles. With a
Signature, every symbol must be declared with the arity used, and bare
names that are declared constants become constants. Without one, the
signature is inferred and each name keeps one role and one arity;
constants only come from explicit signatures.

Walks: two iterative walks serve the queries and rewrites here:
iter_subformulas in pre-order and _rebuild bottom-up.  Every formula walk
runs on an explicit stack, so none recurses on formula depth, nor does
render_term on term depth, and the parser reads the formula grammar in
one loop: only its function applications recurse, and it reports a
ParseError past about 490 levels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, NamedTuple, Union

from .errors import ParseError, ShapeError

__all__ = [
    "Var", "Const", "App", "Term",
    "RelAtom", "Equal", "DepAtom", "Bool", "And", "Or", "Exists", "Forall",
    "Formula", "TRUE", "FALSE",
    "Signature", "EsoSentence",
    "parse_formula", "parse_formula_infer", "parse_eso", "parse_eso_infer",
    "render_term", "render_formula", "render_eso",
    "term_vars", "free_vars", "symbols_of", "eso_symbols",
    "function_patterns", "satisfies_star",
    "single_quantification", "prenex_split", "fresh_var", "replace_terms",
    "check_symbols", "iter_subformulas", "iter_terms",
    "contains_dep_atom", "is_quantifier_free", "and_chain", "or_chain",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", _as_tuple(self.args, "function arguments"))


Term = Union[Var, Const, App]


# ---------------------------------------------------------------------------
# Formulas (negation normal form by construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelAtom:
    rel: str
    args: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "args", _as_tuple(self.args, "relation arguments"))


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term
    negated: bool = False


@dataclass(frozen=True)
class DepAtom:
    """Dependence atom =(t1,...,tn): the last term is determined by the rest.

    The empty atom =() is universally true. A negated dependence atom is
    satisfied only by the empty team.
    """

    terms: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", _as_tuple(self.terms, "dependence atom terms"))


@dataclass(frozen=True)
class Bool:
    value: bool


TRUE = Bool(True)
FALSE = Bool(False)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[RelAtom, Equal, DepAtom, Bool, And, Or, Exists, Forall]

_ATOMS = (RelAtom, Equal, DepAtom, Bool)
_COMPOUND = (And, Or, Exists, Forall)


def and_chain(parts: list[Formula]) -> Formula:
    """Left-fold a list into a conjunction (single item unchanged, empty
    list TRUE)."""
    return reduce(And, parts) if parts else TRUE


def or_chain(parts: list[Formula]) -> Formula:
    return reduce(Or, parts) if parts else FALSE


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset({"forall", "exists", "fn", "true", "false"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_int(v) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_count(value, what: str) -> None:
    """Reject ``value`` unless it is an int, not a bool, of at least 1."""
    if not _is_int(value):
        raise ShapeError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ShapeError(f"{what} must be at least 1")


def _json_object(data, what: str, keys: tuple[str, ...]) -> None:
    """Reject ``data`` unless it is a ``what`` JSON object within ``keys``."""
    if not isinstance(data, dict):
        raise ShapeError(f"{what} JSON must be an object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ShapeError(f"unknown {what} keys: {sorted(unknown)}")


def _json_record(record) -> dict:
    """A dataclass record as a JSON object: its fields in order, less
    those that are None."""
    return {name: v for name, v in vars(record).items() if v is not None}


def _check_symbol_name(name: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name) or name in _KEYWORDS:
        raise ShapeError(f"bad symbol name: {name!r}")


@dataclass
class Signature:
    """Relation, function, and constant symbols with arities.

    Constants are written bare in formulas; function symbols always take a
    parenthesized argument list (a zero-arity function is written "c()").
    """

    relations: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        try:
            self.relations = dict(self.relations)
            self.functions = dict(self.functions)
            self.constants = frozenset(self.constants)
        except (TypeError, ValueError):
            raise ShapeError("signature relations and functions must map names "
                             "to arities, and constants must be a set of names"
                             ) from None
        names = list(self.relations) + list(self.functions) + list(self.constants)
        if len(names) != len(set(names)):
            raise ShapeError("signature symbol names must be pairwise distinct")
        for name in names:
            _check_symbol_name(name)
        for kind, table in (("relation", self.relations),
                            ("function", self.functions)):
            for name, ar in table.items():
                if not _is_int(ar) or ar < 0:
                    raise ShapeError(f"bad arity for {kind} {name!r}: {ar!r}")

    def all_names(self) -> frozenset[str]:
        return frozenset(self.relations) | frozenset(self.functions) | self.constants

    def to_json_dict(self) -> dict:
        return {
            "relations": {r: self.relations[r] for r in sorted(self.relations)},
            "functions": {f: self.functions[f] for f in sorted(self.functions)},
            "constants": sorted(self.constants),
        }

    @classmethod
    def from_json_dict(cls, data) -> "Signature":
        _json_object(data, "signature", ("relations", "functions", "constants"))
        rels = data.get("relations", {})
        fns = data.get("functions", {})
        consts = data.get("constants", [])
        if not isinstance(rels, dict) or not isinstance(fns, dict):
            raise ShapeError("'relations' and 'functions' must be objects")
        if not isinstance(consts, list) or not all(isinstance(c, str) for c in consts):
            raise ShapeError("'constants' must be a list of names")
        return cls(rels, fns, consts)


# ---------------------------------------------------------------------------
# ESO sentences
# ---------------------------------------------------------------------------

def _as_tuple(value, what: str) -> tuple:
    """``value`` as a tuple; ShapeError when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ShapeError(f"{what} must be a sequence, got {value!r}") from None


def _pairs(entries, what: str) -> tuple:
    """``entries`` as a tuple of pairs; ShapeError at one that is not a pair."""
    out = _as_tuple(entries, f"{what} entries")
    for e in out:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise ShapeError(f"{what} entry {e!r} is not a pair")
    return tuple((a, b) for a, b in out)


def _check_prenex(prefix, matrix: Formula, bound, arities) -> None:
    """The prenex-sentence rule of EsoSentence and transforms.NormalFormD.
    Raise ShapeError unless ``prefix`` quantifies well-named variables once
    each, none a function of ``arities`` (name -> arity), and ``matrix``,
    walked once, is a quantifier-free, dependence-free formula of terms over
    them and ``bound`` that applies each such function to its arity."""
    scope: set[str] = set()
    for kind, v in prefix:
        if kind not in ("forall", "exists"):
            raise ShapeError(f"bad quantifier kind {kind!r}")
        _check_symbol_name(v)
        if v in scope or v in arities:
            raise ShapeError(f"{v!r} is quantified twice")
        scope.add(v)
    scope.update(bound)
    for g in iter_subformulas(matrix):
        if isinstance(g, (Exists, Forall)):
            raise ShapeError(f"the matrix quantifies {g.var!r}; it must be quantifier free")
        if isinstance(g, DepAtom):
            raise ShapeError(f"dependence atom {_render_atom(g)} in the matrix")
        for t in _atom_terms(g):
            for u in _iter_term_nodes(t):
                if isinstance(u, Var) and u.name not in scope:
                    raise ShapeError(f"variable {u.name!r} is not quantified")
                if isinstance(u, App) and len(u.args) != arities.get(u.fn, len(u.args)):
                    raise ShapeError(f"{u.fn} declared with arity {arities[u.fn]} "
                                     f"but applied to {len(u.args)} arguments")


@dataclass(frozen=True)
class EsoSentence:
    """Existentially quantified function symbols, a first-order quantifier
    prefix, and a quantifier-free matrix.

    The matrix is classical first-order: dependence atoms are rejected.
    The constructor checks the function symbols, and _check_prenex the rest.
    """

    functions: tuple[tuple[str, int], ...]
    prefix: tuple[tuple[str, str], ...]
    matrix: Formula

    def __post_init__(self):
        object.__setattr__(self, "functions", _pairs(self.functions, "function"))
        object.__setattr__(self, "prefix", _pairs(self.prefix, "prefix"))
        arities: dict[str, int] = {}
        for n, a in self.functions:
            _check_symbol_name(n)
            if n in arities:
                raise ShapeError(f"function {n!r} quantified twice")
            if not _is_int(a) or a < 0:
                raise ShapeError(f"bad arity for quantified function {n!r}: {a!r}")
            arities[n] = a
        _check_prenex(self.prefix, self.matrix, (), arities)


def _check_eso(s) -> None:
    """The input check of every function-sentence entry: ShapeError unless
    ``s`` is an EsoSentence."""
    if not isinstance(s, EsoSentence):
        raise ShapeError(f"not a function sentence: {s!r}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int


# an identifier, an arity, a punctuation mark, or any other non-space
# character, which is an error; whitespace before each is skipped
_TOKEN_RE = re.compile(rf"\s*(?:(?P<ident>{_IDENT_RE.pattern})|(?P<num>[0-9]+)"
                       r"|(?P<punct>[()=,.~&|/])|(?P<bad>\S))")


def _tokenize(text: str) -> list[_Tok]:
    toks = [_Tok(kind := m.lastgroup, m[kind], m.start(kind))
            for m in _TOKEN_RE.finditer(text)]
    for t in toks:
        if t.kind == "bad":
            raise ParseError(f"unexpected character {t.text!r}", t.pos)
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Syntax only: one loop reads the formula grammar, and only function
    applications recurse.  Records symbol use for _resolve: relation and
    function arities in order of first use, bare names, quantified names
    and whether a dependence atom occurs."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.rels: dict[str, int] = {}
        self.fns: dict[str, int] = {}
        self.bare: set[str] = set()
        self.bound: set[str] = set()
        self.dep = False

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def take(self) -> _Tok:
        """The next token, which the caller has seen to exist."""
        self.i += 1
        return self.toks[self.i - 1]

    def at(self, text: str, ahead: int = 0) -> bool:
        """Whether token ``ahead`` reads ``text``; no two token kinds share one."""
        t = self.peek(ahead)
        return t is not None and t.text == text

    def expect(self, ch: str) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {ch!r}", len(self.text))
        if t.text != ch:
            raise ParseError(f"expected {ch!r}, found {t.text!r}", t.pos)
        return self.take()

    def _take_name(self, role: str) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected a {role} name", len(self.text))
        if t.kind != "ident":
            raise ParseError(f"expected a {role} name, found {t.text!r}", t.pos)
        if t.text in _KEYWORDS:
            raise ParseError(f"keyword {t.text!r} cannot be used as a {role} name", t.pos)
        return self.take()

    def _applied(self, table: dict[str, int], t: _Tok, nargs: int) -> None:
        old = table.setdefault(t.text, nargs)
        if old != nargs:
            raise ParseError(f"{t.text!r} used with arities {old} and {nargs}", t.pos)

    # -- grammar -------------------------------------------------------------

    def formula(self) -> Formula:
        """One loop over the module's grammar.  Each formula still open keeps a
        frame: its quantifier prefix, its finished disjuncts and the
        conjuncts of the current disjunct; ``stack`` holds the frames that
        enclose an open "(".  A closed frame folds left, "&" before "|"."""
        stack: list = []
        prefix, disjuncts, conjuncts = [], [], []
        while True:
            # a quantifier prefix only starts a formula
            while not (disjuncts or conjuncts) and (self.at("forall") or self.at("exists")):
                t = self.take()
                if t.text == "exists" and self.at("fn"):
                    raise ParseError(
                        "function quantifiers are only allowed at the front of an ESO sentence",
                        t.pos)
                var = self._take_name("variable").text
                self.bound.add(var)
                prefix.append((t.text, var))
                self.expect(".")
            if self.at("("):
                self.take()
                stack.append((prefix, disjuncts, conjuncts))
                prefix, disjuncts, conjuncts = [], [], []
                continue
            conjuncts.append(self.atom())
            while not self.at("&"):
                if self.at("|"):
                    disjuncts.append(and_chain(conjuncts))
                    conjuncts = []
                    break
                f = _wrap_prefix(prefix, or_chain(disjuncts + [and_chain(conjuncts)]))
                if not stack:
                    return f
                self.expect(")")
                prefix, disjuncts, conjuncts = stack.pop()
                conjuncts.append(f)
            self.take()

    def atom(self) -> Formula:
        """An atom, negated when it follows "~"."""
        negated = self.at("~")
        if negated:
            t = self.take()
            if self.at("("):
                raise ParseError(
                    "negation may only be applied to atoms (push it inward first)", t.pos)
        t = self.peek()
        if t is None:
            raise ParseError("expected an atom", len(self.text))
        if t.text == "=":
            self.take()
            self.dep = True
            return DepAtom(self.args(), negated)
        if t.text in ("true", "false"):
            self.take()
            return TRUE if (t.text == "true") != negated else FALSE
        if t.kind == "ident":
            if t.text in _KEYWORDS:
                raise ParseError(f"keyword {t.text!r} cannot start an atom", t.pos)
            if self.at("(", 1):
                name_tok = self.take()
                args = self.args()
                # "R(x,y)" is a relation atom unless continued by "=",
                # in which case it was a function term: "f(x) = y"
                if not self.at("="):
                    self._applied(self.rels, name_tok, len(args))
                    return RelAtom(name_tok.text, args, negated)
                self._applied(self.fns, name_tok, len(args))
                left = App(name_tok.text, args)
            else:
                left = self.term()
                if not self.at("="):
                    eq = self.peek()
                    raise ParseError("expected '=' after a term",
                                     eq.pos if eq else len(self.text))
            self.take()  # "="
            return Equal(left, self.term(), negated)
        raise ParseError(f"unexpected token {t.text!r} in atom", t.pos)

    def args(self) -> tuple[Term, ...]:
        """A parenthesized, possibly empty, list of terms."""
        self.expect("(")
        out: list[Term] = []
        if not self.at(")"):
            out.append(self.term())
            while self.at(","):
                self.take()
                out.append(self.term())
        self.expect(")")
        return tuple(out)

    def term(self) -> Term:
        t = self._take_name("term")
        if not self.at("("):
            self.bare.add(t.text)
            return Var(t.text)
        args = self.args()
        self._applied(self.fns, t, len(args))
        return App(t.text, args)


def _resolve(p: _Parser, f: Formula, sig: Signature | None,
             bound_fns: dict[str, int] | None) -> tuple[Formula, Signature]:
    """Settle the role of every name ``p`` recorded; return the formula and
    the signature, or raise a ParseError naming the symbol at a clash.

    Against ``sig`` every relation and function used must be declared with
    the arity used, and bare names that are constants become Const.
    Without one the signature is inferred and each name keeps one role.
    ``bound_fns`` (name -> arity) are the functions of an ESO prefix, None
    for a formula text.
    """
    bound_fns = bound_fns or {}
    if sig is None:
        both = p.rels.keys() & p.fns.keys()
        if both:
            raise ParseError(f"{min(both)!r} used as a relation and a function")
        sig = Signature(*({n: a for n, a in used.items() if n not in bound_fns}
                          for used in (p.rels, p.fns)))
    both = bound_fns.keys() & sig.all_names()
    if both:
        raise ParseError(f"quantified function {min(both)!r} is a signature symbol")
    roles = {**dict.fromkeys(sig.constants, "constant"),
             **dict.fromkeys(sig.relations, "relation"),
             **dict.fromkeys(sig.functions, "function"),
             **dict.fromkeys(bound_fns, "quantified function")}
    for used, declared, role in ((p.rels, sig.relations, "relation"),
                                 (p.fns, {**sig.functions, **bound_fns}, "function")):
        for name, n in used.items():
            if name not in declared:
                raise ParseError(
                    f"{roles.get(name, 'undeclared symbol')} {name!r} used as a {role}")
            if declared[name] != n:
                raise ParseError(f"{name!r} has arity {declared[name]}, got {n} arguments")
    # a constant may stand bare but not be quantified
    bad = (p.bound & roles.keys()) | (p.bare & roles.keys() - sig.constants)
    if bad:
        raise ParseError(f"{roles[min(bad)]} {min(bad)!r} used as a variable")
    consts = p.bare & sig.constants
    if consts:
        f = replace_terms(f, {Var(c): Const(c) for c in consts})
    return f, sig


def _read_text(text: str, eso: bool) -> tuple[_Parser, Formula, dict[str, int] | None]:
    """The parser with its usage tables, the formula, and an ESO text's
    "exists fn" functions (name -> arity; None for a formula text).  Only
    function applications recurse; nesting them deeper than the recursion
    limit allows (about 490 levels) is a ParseError."""
    p = _Parser(text)
    fns: dict[str, int] | None = {} if eso else None
    while eso and p.at("exists") and p.at("fn", 1):
        p.take()
        p.take()
        name_tok = p._take_name("function")
        if name_tok.text in fns:
            raise ParseError(f"function {name_tok.text!r} quantified twice", name_tok.pos)
        p.expect("/")
        ar_tok = p.peek()
        if ar_tok is None or ar_tok.kind != "num":
            raise ParseError("expected an arity after '/'",
                             ar_tok.pos if ar_tok else len(p.text))
        p.take()
        p.expect(".")
        try:
            fns[name_tok.text] = int(ar_tok.text)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError("arity has too many digits", ar_tok.pos) from None
    try:
        f = p.formula()
    except RecursionError:
        t = p.peek()
        raise ParseError("formula nested too deeply",
                         t.pos if t else len(p.text)) from None
    t = p.peek()
    if t is not None:
        raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
    return p, f, fns


def _settle(p: _Parser, f: Formula, fns: dict[str, int] | None,
            sig: Signature | None) -> tuple[Formula | EsoSentence, Signature]:
    """A reading of ``_read_text`` resolved against ``sig`` (inferred when
    None); an ESO reading then becomes an EsoSentence."""
    # resolved before prenex_split: a constant is a free Var until then
    f, sig = _resolve(p, f, sig, fns)
    if fns is None:
        return f, sig
    if p.dep:
        raise ParseError("dependence atoms are not allowed in an ESO sentence")
    prefix, matrix = prenex_split(f)
    return EsoSentence(tuple(fns.items()), tuple(prefix), matrix), sig


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse a dependence-logic formula (also plain first-order).

    With ``sig`` all symbols must be declared; without it the symbol roles
    are inferred (bare identifiers become variables).
    """
    return _settle(*_read_text(text, False), sig)[0]


def parse_formula_infer(text: str) -> tuple[Formula, Signature]:
    """Parse without a signature; also return the inferred signature."""
    return _settle(*_read_text(text, False), None)


def parse_eso(text: str, sig: Signature | None = None) -> EsoSentence:
    """Parse an ESO sentence: function quantifiers, then a first-order part.

    The first-order part is hoisted to prenex form; it must be a sentence
    and must not quantify any variable twice.
    """
    return _settle(*_read_text(text, True), sig)[0]


def parse_eso_infer(text: str) -> tuple[EsoSentence, Signature]:
    return _settle(*_read_text(text, True), None)


# ---------------------------------------------------------------------------
# Rendering (inverse of parsing: parse(render(f)) == f)
# ---------------------------------------------------------------------------

def render_term(t: Term) -> str:
    """A term's text, rendered on an explicit stack of (arguments, next
    index) pairs, so that nesting depth costs no recursion."""
    if isinstance(t, (Var, Const)):
        return t.name
    if not isinstance(t, App):
        raise ShapeError(f"not a term: {t!r}")
    out = [t.fn, "("]
    todo = [(t.args, 0)]
    while todo:
        args, i = todo.pop()
        if i == len(args):
            out.append(")")
            continue
        if i:
            out.append(",")
        todo.append((args, i + 1))
        a = args[i]
        if isinstance(a, (Var, Const)):
            out.append(a.name)
        elif isinstance(a, App):
            out += a.fn, "("
            todo.append((a.args, 0))
        else:
            raise ShapeError(f"not a term: {a!r}")
    return "".join(out)


def _render_atom(f: Formula) -> str:
    if isinstance(f, Bool):
        return "true" if f.value else "false"
    if not isinstance(f, (DepAtom, RelAtom, Equal)):
        raise ShapeError(f"not an atom: {f!r}")
    neg = "~" if f.negated else ""
    if isinstance(f, DepAtom):
        return f"{neg}=({','.join(render_term(t) for t in f.terms)})"
    if isinstance(f, RelAtom):
        return f"{neg}{f.rel}({','.join(render_term(a) for a in f.args)})"
    return f"{neg}{render_term(f.left)} = {render_term(f.right)}"


def render_formula(f: Formula) -> str:
    return _render([], f, _COMPOUND)


def render_eso(s: EsoSentence) -> str:
    _check_eso(s)
    heads = [f"exists fn {n}/{a}. " for n, a in s.functions]
    heads.extend(f"{k} {v}. " for k, v in s.prefix)
    return _render(heads, s.matrix, (Exists, Forall) if heads else _COMPOUND)


def _render(out: list[str], f: Formula, bare: tuple) -> str:
    """Append ``f`` to the rendered pieces ``out`` and join them.

    The stack holds pieces still to append and (formula, bare) pairs still
    to render, where ``bare`` lists the compound kinds that need no
    parentheses in that place: a quantifier body may be a quantifier, a
    disjunction's left operand a disjunction or a conjunction, a
    conjunction's left operand a conjunction, and right operands one kind
    tighter, which keeps both connectives left-associative.
    """
    todo: list = [(f, bare)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, bare = item
        if not isinstance(g, _COMPOUND):
            out.append(_render_atom(g))
        elif not isinstance(g, bare):
            todo += ")", (g, _COMPOUND), "("
        elif isinstance(g, Or):
            todo += (g.right, (And,)), " | ", (g.left, (Or, And))
        elif isinstance(g, And):
            todo += (g.right, ()), " & ", (g.left, (And,))
        else:
            kw = "forall" if isinstance(g, Forall) else "exists"
            out.append(f"{kw} {g.var}. ")
            todo.append((g.body, (Exists, Forall)))
    return "".join(out)


# ---------------------------------------------------------------------------
# Walks and queries
# ---------------------------------------------------------------------------

def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Pre-order walk over all subformulas, including ``f`` itself; left
    operands come before right ones.  ShapeError at a node that is not a
    formula."""
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (And, Or)):
            todo += g.right, g.left
        elif isinstance(g, (Exists, Forall)):
            todo.append(g.body)
        elif not isinstance(g, _ATOMS):
            raise ShapeError(f"not a formula: {g!r}")
        yield g


def _rebuild(f: Formula, fix) -> Formula:
    """Rebuild ``f`` bottom-up, replacing every node g by ``fix(g)`` once
    g's operands are rebuilt.  Left operands are fixed before right ones,
    so fresh names come out in reading order."""
    done: list[Formula] = []
    todo: list = [(f, False)]
    while todo:
        g, ready = todo.pop()
        if ready:
            if isinstance(g, (And, Or)):
                right = done.pop()
                g = type(g)(done.pop(), right)
            else:
                g = type(g)(g.var, done.pop())
            done.append(fix(g))
        elif isinstance(g, (And, Or)):
            todo += (g, True), (g.right, False), (g.left, False)
        elif isinstance(g, (Exists, Forall)):
            todo += (g, True), (g.body, False)
        elif isinstance(g, _ATOMS):
            done.append(fix(g))
        else:
            raise ShapeError(f"not a formula: {g!r}")
    return done[0]


def _atom_terms(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, RelAtom):
        return f.args
    if isinstance(f, Equal):
        return (f.left, f.right)
    if isinstance(f, DepAtom):
        return f.terms
    return ()


def _iter_term_nodes(t: Term) -> Iterator[Term]:
    """Pre-order walk over a term and its nested subterms.  ShapeError at
    a node that is not a term."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo.extend(reversed(t.args))
        elif not isinstance(t, (Var, Const)):
            raise ShapeError(f"not a term: {t!r}")
        yield t


def iter_terms(f: Formula) -> Iterator[Term]:
    """Every term node in the formula (nested subterms included), pre-order."""
    for sub in iter_subformulas(f):
        for t in _atom_terms(sub):
            yield from _iter_term_nodes(t)


def contains_dep_atom(f: Formula) -> bool:
    return any(isinstance(sub, DepAtom) for sub in iter_subformulas(f))


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(sub, (Exists, Forall)) for sub in iter_subformulas(f))


def term_vars(t: Term) -> frozenset[str]:
    return frozenset(s.name for s in _iter_term_nodes(t) if isinstance(s, Var))


def free_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    todo = [(f, frozenset())]
    while todo:
        g, bound = todo.pop()
        if isinstance(g, (And, Or)):
            todo += (g.left, bound), (g.right, bound)
        elif isinstance(g, (Exists, Forall)):
            todo.append((g.body, bound | {g.var}))
        elif isinstance(g, _ATOMS):
            for t in _atom_terms(g):
                if not isinstance(t, Var):
                    out |= term_vars(t) - bound
                elif t.name not in bound:
                    out.add(t.name)
        else:
            raise ShapeError(f"not a formula: {g!r}")
    return frozenset(out)


def symbols_of(f: Formula) -> set[str]:
    """All identifiers occurring in the formula: variables (free and bound),
    relation, function, and constant symbols. Used as a freshness pool."""
    out = {t.fn if isinstance(t, App) else t.name for t in iter_terms(f)}
    for sub in iter_subformulas(f):
        if isinstance(sub, RelAtom):
            out.add(sub.rel)
        elif isinstance(sub, (Exists, Forall)):
            out.add(sub.var)
    return out


def eso_symbols(s: EsoSentence) -> set[str]:
    _check_eso(s)
    out = {n for n, _ in s.functions}
    out.update(v for _, v in s.prefix)
    out |= symbols_of(s.matrix)
    return out


def _call_shapes(f: Formula, fns) -> dict[str, list[tuple[Term, ...]]]:
    """Distinct argument tuples of each function named in ``fns``, in first
    occurrence order (pre-order); a function with no occurrence maps to an
    empty list."""
    out: dict[str, dict[tuple[Term, ...], None]] = {n: {} for n in fns}
    for t in iter_terms(f):
        if isinstance(t, App) and t.fn in out:
            out[t.fn][t.args] = None
    return {n: list(shapes) for n, shapes in out.items()}


def function_patterns(s: EsoSentence) -> dict[str, list[tuple[Term, ...]]]:
    """Distinct argument tuples of each quantified function, in first
    occurrence order (pre-order over the matrix).

    Functions with no occurrence map to an empty list.
    """
    _check_eso(s)
    return _call_shapes(s.matrix, [n for n, _ in s.functions])


def _distinct_var_tuple(args: tuple[Term, ...]) -> bool:
    return (all(isinstance(a, Var) for a in args)
            and len({a.name for a in args}) == len(args))


def satisfies_star(s: EsoSentence) -> bool:
    """True when every quantified function is applied to a single argument
    tuple consisting of pairwise-distinct variables."""
    return all(len(pats) <= 1 and all(_distinct_var_tuple(p) for p in pats)
               for pats in function_patterns(s).values())


def single_quantification(f: Formula) -> bool:
    """True when no variable is bound by two different quantifiers."""
    bound = [g.var for g in iter_subformulas(f) if isinstance(g, (Exists, Forall))]
    return len(bound) == len(set(bound))


def prenex_split(f: Formula) -> tuple[list[tuple[str, str]], Formula]:
    """Split a sentence into a quantifier prefix and a quantifier-free matrix.

    Quantifiers are hoisted out of conjunctions and disjunctions in
    leftmost-outermost order. Requires a sentence in which no variable is
    quantified twice: under that restriction a hoisted variable cannot occur
    in the sibling operand, which makes every hoisting step an equivalence
    in both team semantics and classical semantics.
    """
    loose = free_vars(f)
    if loose:
        raise ShapeError(f"not a sentence: free variables {sorted(loose)}")
    prefix = [("forall" if isinstance(g, Forall) else "exists", g.var)
              for g in iter_subformulas(f) if isinstance(g, (Exists, Forall))]
    if len({v for _, v in prefix}) != len(prefix):
        raise ShapeError("a variable is quantified more than once; rename apart first")
    return prefix, _rebuild(
        f, lambda g: g.body if isinstance(g, (Exists, Forall)) else g)


def _wrap_prefix(prefix, matrix: Formula) -> Formula:
    """The inverse of prenex_split: ``matrix`` under ``prefix``, first outermost."""
    out = matrix
    for kind, var in reversed(list(prefix)):
        out = Exists(var, out) if kind == "exists" else Forall(var, out)
    return out


def fresh_var(used, hint: str = "z") -> str:
    """First name not in ``used``: the hint itself, then hint_1, hint_2, ..."""
    if hint not in used:
        return hint
    i = 1
    while f"{hint}_{i}" in used:
        i += 1
    return f"{hint}_{i}"


def check_symbols(f: Formula, sig: Signature,
                  extra_fns: dict[str, int] | None = None) -> None:
    """Raise ShapeError unless every symbol in ``f`` is declared with the
    right arity, either in the signature or in ``extra_fns`` (name -> arity,
    e.g. quantified function symbols)."""
    extra = extra_fns or {}
    for sub in iter_subformulas(f):
        if isinstance(sub, RelAtom):
            if sub.rel not in sig.relations:
                raise ShapeError(f"undeclared relation {sub.rel!r}")
            if sig.relations[sub.rel] != len(sub.args):
                raise ShapeError(
                    f"relation {sub.rel!r} has arity {sig.relations[sub.rel]}, "
                    f"got {len(sub.args)} arguments")
    for t in iter_terms(f):
        if isinstance(t, Const):
            if t.name not in sig.constants:
                raise ShapeError(f"undeclared constant {t.name!r}")
        elif isinstance(t, App):
            if t.fn in extra:
                want = extra[t.fn]
            elif t.fn in sig.functions:
                want = sig.functions[t.fn]
            else:
                raise ShapeError(f"undeclared function {t.fn!r}")
            if want != len(t.args):
                raise ShapeError(
                    f"function {t.fn!r} has arity {want}, got {len(t.args)} arguments")


def replace_terms(f: Formula, mapping: dict[Term, Term]) -> Formula:
    """Replace every occurrence of each key of ``mapping`` (nested ones too)
    by its value, in one pass over the atoms' argument terms; a replaced
    occurrence is not searched further."""
    def swap(t: Term) -> Term:
        if t in mapping:
            return mapping[t]
        if isinstance(t, App):
            return App(t.fn, tuple(swap(a) for a in t.args))
        return t

    def atom(g: Formula) -> Formula:
        if isinstance(g, RelAtom):
            return RelAtom(g.rel, tuple(map(swap, g.args)), g.negated)
        if isinstance(g, Equal):
            return Equal(swap(g.left), swap(g.right), g.negated)
        if isinstance(g, DepAtom):
            return DepAtom(tuple(map(swap, g.terms)), g.negated)
        return g

    return _rebuild(f, atom)
