"""Command-line interface.

One executable, ``deplog``, with a subcommand per layer of the package:

* parse: parse a formula file and echo the canonical rendering.
* check: sentence truth in one structure; team semantics for
  dependence-logic sentences, function-table search for function
  sentences.  Exit 0 when true, 1 when false.
* eval: team satisfaction of an open dependence-logic formula.
* translate: run one rewriting pass and print the result.
* classify: print the fragment report as JSON.
* equiv: exhaustive equivalence check up to a domain size; prints the
  verdict as JSON.  Exit 0 when equivalent, 3 on a counterexample.
* corpus: list the built-in formulas, or print one by name.
* enum: stream every structure of a signature at one size, one JSON
  object per line.

Formula files hold concrete syntax; a file is treated as a function
sentence exactly when it uses the ``fn`` keyword.  Structure, team, and
signature files hold JSON.  check and eval need no signature file: symbol
roles come from the structure file (a bare name listed under "constants"
parses as a constant), with arities read off the tables and, where a
table leaves the arity open, off the formula's own usage.

Exit codes: 0 success (true / equivalent); 1 false; 2 any input or usage
error; 3 counterexample; 4 work budget exhausted (DEPLOG_BUDGET or
--budget raise the limits).
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .errors import BudgetExceededError, DeplogError, ParseError, ShapeError
from .fragments import classify_d, classify_eso
from .harness import corpus, corpus_item, equiv_check, sentence_value
from .structures import (
    Structure, _json_structure, _table_signature, enumerate_structures,
    structure_to_json_dict, team_from_json_dict,
)
from .syntax import (
    EsoSentence, Signature, _read_text, _resolve, _settle, fresh_var, parse_eso,
    parse_formula, prenex_split, render_eso, render_formula, symbols_of,
)
from .team_eval import satisfies
from .transforms import (
    NormalFormD, collapse_existential_to_fo, d_to_eso, eliminate_width1,
    eso_to_d, extract_dep_atoms, simplify_atom_terms, single_forall_reuse,
    skolemize_prefix_existentials, snf_to_star, star_normalize, to_prenex,
)

__all__ = ["main"]

_FN_KEYWORD = re.compile(r"\bfn\b")


def _is_eso_text(text: str) -> bool:
    return _FN_KEYWORD.search(text) is not None


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not valid UTF-8 ({e.reason} at byte "
                             f"{e.start})") from None


def _load_json(path: str):
    text = _read(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(f"{path}: JSON integer has too many digits") from None


def _render(out) -> str:
    return render_eso(out) if isinstance(out, EsoSentence) else render_formula(out)


def _parse_any(text: str, sig: Signature | None):
    return (parse_eso if _is_eso_text(text) else parse_formula)(text, sig)


def _parse_against_structure(text: str, path: str):
    """The formula and the structure at ``path``, over the signature they
    settle; the formula is read once, after the structure's shape check."""
    tables = _json_structure(_load_json(path))
    p, f, fns = _read_text(text, _is_eso_text(text))
    sig = _table_signature(tables, _resolve(p, f, None, fns)[1])
    return _settle(p, f, fns, sig)[0], Structure(sig, *tables)


# ---------------------------------------------------------------------------
# Translate passes
# ---------------------------------------------------------------------------

def _extract_pass(f):
    prefix, body = prenex_split(f)
    _, bindings, theta = extract_dep_atoms(body, reserved=tuple(symbols_of(f)))
    return NormalFormD(tuple(prefix), bindings, theta).to_formula()


def _single_forall_pass(f):
    return single_forall_reuse(f, fresh_var(symbols_of(f), "x"))


_PASSES = {
    "prenex": to_prenex,
    "simplify-atoms": simplify_atom_terms,
    "extract": _extract_pass,
    "skolemize": d_to_eso,
    "d2eso": d_to_eso,
    "star": star_normalize,
    "eso2d": eso_to_d,
    "snf": skolemize_prefix_existentials,
    "prop36": snf_to_star,
    "fo-collapse": collapse_existential_to_fo,
    "width1": eliminate_width1,
    "single-forall": _single_forall_pass,
}
# the passes whose input is a function sentence
_ESO_INPUT = frozenset({"star", "eso2d", "snf", "prop36"})
_PASS_ORDER = list(_PASSES)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    sig = Signature.from_json_dict(_load_json(args.sig)) if args.sig else None
    print(_render(_parse_any(_read(args.file), sig)))
    return 0


def _cmd_check(args) -> int:
    sentence, struct = _parse_against_structure(_read(args.formula), args.structure)
    value = sentence_value(struct, sentence)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_eval(args) -> int:
    text = _read(args.formula)
    if _is_eso_text(text):
        raise ShapeError("eval works on dependence-logic formulas; "
                         "use check for function sentences")
    formula, struct = _parse_against_structure(text, args.structure)
    team = team_from_json_dict(_load_json(args.team))
    value = satisfies(struct, team, formula)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_translate(args) -> int:
    parse = parse_eso if args.pass_name in _ESO_INPUT else parse_formula
    print(_render(_PASSES[args.pass_name](parse(_read(args.input)))))
    return 0


def _cmd_classify(args) -> int:
    tree = _parse_any(_read(args.input), None)
    report = classify_eso(tree) if isinstance(tree, EsoSentence) else classify_d(tree)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_equiv(args) -> int:
    sig = Signature.from_json_dict(_load_json(args.sig))
    left = _parse_any(_read(args.left), sig)
    right = _parse_any(_read(args.right), sig)
    verdict = equiv_check(left, right, sig, args.max_size, budget=args.budget)
    print(json.dumps(verdict.to_dict()))
    return 0 if verdict.outcome == "equivalent" else 3


def _cmd_corpus(args) -> int:
    if args.name:
        item = corpus_item(args.name)
        if args.json:
            print(json.dumps({
                "name": item.name, "kind": item.kind, "text": item.text,
                "signature": item.sig.to_json_dict(),
                "team_vars": list(item.team_vars), "note": item.note,
            }))
        else:
            print(item.text)
        return 0
    for item in corpus():
        print(f"{item.name:13} {item.kind:4} {item.note}")
    return 0


def _cmd_enum(args) -> int:
    sig = Signature.from_json_dict(_load_json(args.sig))
    for struct in enumerate_structures(sig, args.size):
        print(json.dumps(structure_to_json_dict(struct)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, without the usage block;
    subparsers are built from the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (the first ``main``, not the
    import) and shared by every later one: parsing leaves it unchanged."""
    top = _Parser(
        prog="deplog",
        description="dependence-logic and function-sentence toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula file and echo it")
    p.add_argument("file")
    p.add_argument("--sig", help="signature JSON (default: infer roles)")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="sentence truth in one structure")
    p.add_argument("--formula", required=True)
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("eval", help="team satisfaction of an open formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--team", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("translate", help="run one rewriting pass")
    p.add_argument("--pass", dest="pass_name", required=True,
                   choices=_PASS_ORDER)
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("classify", help="fragment report as JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("equiv", help="equivalence check up to a domain size")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--budget", type=int,
                   help="cap on structures and on semantic work "
                        "(a positive integer)")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("corpus", help="list corpus items or print one")
    p.add_argument("--name")
    p.add_argument("--json", action="store_true",
                   help="with --name, print full metadata")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("enum", help="stream structures as JSON lines")
    p.add_argument("--sig", required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(fn=_cmd_enum)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DeplogError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the evaluator compilers recurse once per &/| chain link and, like
        # replace_terms and term equality, once per level a pass nests a term
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
