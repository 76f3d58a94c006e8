"""Command-line interface, exercised in process through main()."""
import json
import os
import resource
import subprocess
import sys

import pytest

import deplog
from deplog.cli import main
from deplog.errors import ShapeError
from deplog.structures import structure_from_json_dict, team_from_json_dict
from deplog.syntax import Signature

SPINE = "forall x. exists y. (=(x,y) & E(x,y))"
CYCLE2 = {"domain": 2, "relations": {"E": [[0, 1], [1, 0]]}}
NO_EDGES = {"domain": 2, "relations": {"E": []}}


@pytest.fixture
def write(tmp_path):
    def _write(name, content):
        p = tmp_path / name
        if isinstance(content, str):
            p.write_text(content, encoding="utf-8")
        else:
            p.write_text(json.dumps(content), encoding="utf-8")
        return str(p)
    return _write


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_echoes_canonical_form(write, capsys):
    f = write("f.dl", "forall x . exists y . ( =(x,y) & E(x , y) )")
    assert main(["parse", f]) == 0
    assert capsys.readouterr().out.strip() == SPINE


def test_parse_eso_file(write, capsys):
    f = write("s.dl", "exists fn f/1. forall x. E(x, f(x))")
    assert main(["parse", f]) == 0
    assert capsys.readouterr().out.strip() == "exists fn f/1. forall x. E(x,f(x))"


def test_parse_with_signature_constant(write, capsys):
    f = write("f.dl", "P(c)")
    sig = write("sig.json", {"relations": {"P": 1}, "functions": {},
                             "constants": ["c"]})
    assert main(["parse", f, "--sig", sig]) == 0
    assert capsys.readouterr().out.strip() == "P(c)"


def test_parse_error_exits_2(write, capsys):
    f = write("bad.dl", "forall x. exists y. =(x,y) &")
    assert main(["parse", f]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "absent.dl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exits_2(tmp_path, write, capsys):
    bad = tmp_path / "bad.dl"
    bad.write_bytes(b"\xff\xfeP(x)")
    assert main(["parse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b"\xff\xfe{}")
    assert main(["check", "--formula", write("f.dl", SPINE),
                 "--structure", str(bad_json)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# the parser recurses only on function applications, so these nest too deeply
DEEP_APPS = "P(" + "f(" * 1500 + "x" + ")" * 1501


def test_parse_deep_nesting_exits_2(write, capsys):
    f = write("deep.dl", DEEP_APPS)
    assert main(["parse", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["equiv", "--left", "l.dl", "--right", "l.dl", "--sig", "sig.json",
     "--max-size", "abc"],
    ["check", "--formula", "f.dl"],
    ["translate", "--pass", "nope", "--input", "f.dl"],
    ["bogus"],
    [],
], ids=["bad_int", "missing_flag", "bad_choice", "unknown_command",
        "no_command"])
def test_bad_flags_exit_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


DEEP_CHAIN = " & ".join(["P(x)"] * 3000)


@pytest.mark.parametrize("command", ["parse", "check", "eval", "classify",
                                     "translate", "equiv"])
def test_deep_chain_exits_2(write, capsys, command):
    # the syntax layer walks chains iteratively, and the classical compiler
    # writes a chain of one connective as one flat run of blocks, so every
    # command decides the dependence-free chain (a traceback would exit 1,
    # which check and eval use for "false", and a recursion limit 2)
    open_f = write("open.dl", DEEP_CHAIN)
    closed = write("closed.dl", f"forall x. ({DEEP_CHAIN})")
    m = write("m.json", {"domain": 1, "relations": {"P": [[0]]}})
    sig = write("sig.json", {"relations": {"P": 1}})
    argv = {
        "parse": ["parse", open_f],
        "check": ["check", "--formula", closed, "--structure", m],
        "eval": ["eval", "--formula", open_f, "--structure", m,
                 "--team", write("t.json", {"vars": ["x"], "rows": [[0]]})],
        "classify": ["classify", "--input", closed],
        "translate": ["translate", "--pass", "prenex", "--input", closed],
        "equiv": ["equiv", "--left", closed, "--right", closed, "--sig", sig,
                  "--max-size", "1"],
    }[command]
    code = main(argv)
    out, err = capsys.readouterr()
    if command == "parse":
        assert (code, out, err) == (0, DEEP_CHAIN + "\n", "")
    elif command == "translate":
        assert (code, out, err) == (0, f"forall x. ({DEEP_CHAIN})\n", "")
    elif command == "classify":
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["forall_count"] == 1
        assert report["memberships"] == ["D(1-forall)", "D(0-dep)"]
        assert report["upper_bound"] == "FO"
    elif command == "equiv":
        assert (code, err) == (0, "")
        verdict = json.loads(out)
        assert (verdict["outcome"], verdict["structures_checked"]) == ("equivalent", 2)
    else:
        assert (code, out, err) == (0, "true\n", "")


def test_deep_quantifier_nest_is_decided(write, capsys):
    # the classical compiler writes a nest in one loop, whatever its depth
    f = write("f.dl", "forall x. " * 5000 + "P(x)")
    m = write("m.json", {"domain": 1, "relations": {"P": [[0]]}})
    assert main(["check", "--formula", f, "--structure", m]) == 0
    assert capsys.readouterr() == ("true\n", "")


def test_deep_dependence_chain_exits_2(write, capsys):
    # the team compiler builds its plan in one loop, so a | chain that holds
    # a dependence atom is decided at any length (the name is kept from when
    # this chain exited 2)
    f = write("f.dl", "forall x. exists y. (=(x,y)" + " | P(y)" * 1500 + ")")
    m = write("m.json", {"domain": 1, "relations": {"P": [[0]]}})
    assert main(["check", "--formula", f, "--structure", m]) == 0
    assert capsys.readouterr() == ("true\n", "")


# ---------------------------------------------------------------------------
# input contract: a malformed input file exits 2 with one error line
# ---------------------------------------------------------------------------

GOOD_FILES = {
    "sentence": "forall x. P(x)",
    "open": "P(x)",
    "structure": {"domain": 2, "relations": {"P": [[0], [1]]}},
    "team": {"vars": ["x"], "rows": [[0], [1]]},
    "sig": {"relations": {"P": 1}},
}
# each subcommand's file arguments (flag, or "" for a positional) by kind
FILE_ARGS = {
    "parse": [("", "sentence"), ("--sig", "sig")],
    "check": [("--formula", "sentence"), ("--structure", "structure")],
    "eval": [("--formula", "open"), ("--structure", "structure"),
             ("--team", "team")],
    "translate": [("--input", "sentence")],
    "classify": [("--input", "sentence")],
    "equiv": [("--left", "sentence"), ("--right", "sentence"),
              ("--sig", "sig")],
    "enum": [("--sig", "sig")],
}
OTHER_ARGS = {"translate": ["--pass", "prenex"], "equiv": ["--max-size", "1"],
              "enum": ["--size", "1"]}
# malformed contents (None: the file is absent) for every kind of file,
# then per kind
ANY_MALFORMED = {"missing": None, "not_utf8": b"\xff\xfe{}", "empty": ""}
# past the interpreter's 4,300-digit limit on converting a string to an int
HUGE_INT = "1" * 5000
FORMULA_MALFORMED = {"unbalanced": "forall x. (P(x)",
                     "deep_parens": DEEP_APPS,
                     "huge_arity": f"exists fn f/{HUGE_INT}. forall x. P(x)"}
JSON_MALFORMED = {"not_json": "{", "deep_json": "[" * 100_000,
                  "not_an_object": [], "huge_int": f"[{HUGE_INT}]"}
MALFORMED = {
    "sentence": FORMULA_MALFORMED,
    "open": FORMULA_MALFORMED,
    "structure": {**JSON_MALFORMED,
                  "list_in_tuple": {"domain": 2, "relations": {"P": [[[0]]]}},
                  # a present table must be an object, even a falsy one
                  **{f"{key}_{name}": {**GOOD_FILES["structure"], key: value}
                     for key, name, value in (("constants", "empty_string", ""),
                                              ("functions", "false", False),
                                              ("functions", "zero", 0),
                                              ("functions", "null", None))}},
    "team": {**JSON_MALFORMED,
             "list_in_row": {"vars": ["x"], "rows": [[[0]]]},
             "object_in_row": {"vars": ["x"], "rows": [[{}]]},
             "row_outside_domain": {"vars": ["x"], "rows": [[5]]}},
    "sig": {**JSON_MALFORMED,
            "list_constant": {"relations": {"P": 1}, "constants": [["c"]]},
            **{f"{key}_{name}": {**GOOD_FILES["sig"], key: value}
               for key, name, value in (("constants", "empty_string", ""),
                                        ("functions", "false", False),
                                        ("functions", "zero", 0),
                                        ("constants", "null", None))}},
}
CONTRACT_CASES = [(command, flag, case)
                  for command, args in FILE_ARGS.items()
                  for flag, kind in args
                  for case in (*ANY_MALFORMED, *MALFORMED[kind])]


@pytest.mark.parametrize("command,flag,case", CONTRACT_CASES)
def test_malformed_input_file_exits_2(tmp_path, write, capsys, command, flag,
                                      case):
    argv = [command, *OTHER_ARGS.get(command, [])]
    for arg, kind in FILE_ARGS[command]:
        if arg != flag:
            path = write(f"{kind}.in", GOOD_FILES[kind])
        else:
            content = {**ANY_MALFORMED, **MALFORMED[kind]}[case]
            path = str(tmp_path / "bad.in")
            if isinstance(content, bytes):
                (tmp_path / "bad.in").write_bytes(content)
            elif content is not None:
                write("bad.in", content)
        argv += [arg, path] if arg else [path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_json_names_the_file(write, capsys):
    sig = write("sig.json", "[" * 100_000)
    assert main(["enum", "--sig", sig, "--size", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {sig}: JSON nested too deeply\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_true_exit_0(write, capsys):
    f = write("f.dl", SPINE)
    m = write("m.json", CYCLE2)
    assert main(["check", "--formula", f, "--structure", m]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_false_exit_1(write, capsys):
    f = write("f.dl", SPINE)
    m = write("m.json", NO_EDGES)
    assert main(["check", "--formula", f, "--structure", m]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_eso_sentence(write, capsys):
    f = write("s.dl", "exists fn f/1. forall x. E(x, f(x))")
    assert main(["check", "--formula", f,
                 "--structure", write("m.json", CYCLE2)]) == 0
    assert main(["check", "--formula", f,
                 "--structure", write("m2.json", NO_EDGES)]) == 1


def test_check_constant_role_from_structure(write, capsys):
    f = write("f.dl", "P(c)")
    m = write("m.json", {"domain": 2, "relations": {"P": [[1]]},
                         "constants": {"c": 1}})
    assert main(["check", "--formula", f, "--structure", m]) == 0
    # a function sentence and its D preimage read c from the structure alike:
    # y = c is no free variable, so both are decided
    d = write("d.dl", "forall x. exists y. (=(x,y) & E(x,y) & ~y = c)")
    s = write("s.dl", "exists fn f1/1. forall x. exists y. "
                      "(f1(x) = y & E(x,y) & ~y = c)")
    for edges, want in (([[0, 1], [1, 0]], "false"),
                        ([[0, 0], [0, 1], [1, 0], [1, 1]], "true")):
        m = write("e.json", {"domain": 2, "relations": {"E": edges},
                             "constants": {"c": 1}})
        for sentence in (d, s):
            capsys.readouterr()
            assert main(["check", "--formula", sentence, "--structure", m]) == (
                0 if want == "true" else 1)
            assert capsys.readouterr() == (want + "\n", "")


@pytest.mark.parametrize("command", ["check", "eval"])
def test_check_and_eval_read_the_formula_once(write, capsys, monkeypatch, command):
    # the structure's signature settles the one reading of the formula
    calls = []
    tokenize = deplog.syntax._tokenize
    monkeypatch.setattr(deplog.syntax, "_tokenize",
                        lambda text: calls.append(text) or tokenize(text))
    m = write("m.json", CYCLE2)
    argv = {"check": ["check", "--formula", write("f.dl", SPINE), "--structure", m],
            "eval": ["eval", "--formula", write("o.dl", "=(x,y) & E(x,y)"),
                     "--structure", m,
                     "--team", write("t.json", {"vars": ["x", "y"], "rows": [[0, 1]]})]}
    assert main(argv[command]) == 0
    assert len(calls) == 1


def test_check_function_table_from_structure(write, capsys):
    f = write("f.dl", "forall x. E(x, g(x))")
    m = write("m.json", {"domain": 2,
                         "relations": {"E": [[0, 1], [1, 0]]},
                         "functions": {"g": [1, 0]}})
    assert main(["check", "--formula", f, "--structure", m]) == 0


def test_check_and_eval_blame_a_bad_function_table(write, capsys):
    # 3 entries on a 2-element domain fit no arity: the formula's g/1 stands
    m = write("m.json", {"domain": 2, "functions": {"g": [0, 1, 1]}})
    t = write("t.json", {"vars": ["x"], "rows": [[0]]})
    want = "error: function g/1 needs a table of length 2, got 3\n"
    assert main(["check", "--formula", write("f.dl", "forall x. g(x) = x"),
                 "--structure", m]) == 2
    assert capsys.readouterr().err == want
    assert main(["eval", "--formula", write("o.dl", "g(x) = x"),
                 "--structure", m, "--team", t]) == 2
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("key", ["relations", "functions", "constants"])
def test_check_and_eval_non_object_table_exit_2(write, capsys, key):
    f = write("f.dl", "=(x,y)")
    m = write("m.json", {"domain": 2, key: [1]})
    t = write("t.json", {"vars": ["x", "y"], "rows": [[0, 1]]})
    assert main(["check", "--formula", write("s.dl", SPINE),
                 "--structure", m]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert main(["eval", "--formula", f, "--structure", m, "--team", t]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


GOOD_OBJECTS = {"signature": {"relations": {"E": 2}}, "structure": NO_EDGES,
                "team": {"vars": ["x", "y"], "rows": []}}
READERS = {"signature": Signature.from_json_dict,
           "structure": lambda data: structure_from_json_dict(data, Signature({"E": 2})),
           "team": team_from_json_dict}


@pytest.mark.parametrize("bad", ["not_an_object", "unknown_keys"])
@pytest.mark.parametrize("reader", [*READERS, "check --structure",
                                    "eval --structure", "eval --team"])
def test_json_object_and_key_errors(write, capsys, reader, bad):
    # the three library readers and the CLI files name the object they
    # expected and every key they do not know, sorted
    what = reader.rpartition("--")[2]
    if bad == "not_an_object":
        data, message = [], f"{what} JSON must be an object"
    else:
        data = {**GOOD_OBJECTS[what], "zap": 1, "bog": 2}
        message = f"unknown {what} keys: ['bog', 'zap']"
    if reader in READERS:
        with pytest.raises(ShapeError) as exc:
            READERS[reader](data)
        assert str(exc.value) == message
        return
    command, flag = reader.split()
    argv = [command, "--formula", write("f.dl", SPINE if command == "check" else "=(x,y)")]
    for arg in ("--structure", "--team")[:1 if command == "check" else 2]:
        kind = arg[2:]
        argv += [arg, write(f"{kind}.json", data if arg == flag else GOOD_OBJECTS[kind])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("table", [{"relations": {"E": [[0, True]]}},
                                   {"relations": {"E": [[0, [1]]]}},
                                   {"functions": {"g": [1, False]}},
                                   {"constants": {"c": True}}])
def test_check_bool_element_exits_2(write, capsys, table):
    f = write("f.dl", "forall x. (E(x, g(x)) | E(c, c))")
    m = write("m.json", {"domain": 2, "relations": {"E": [[0, 1]]},
                         "functions": {"g": [1, 0]}, "constants": {"c": 1},
                         **table})
    assert main(["check", "--formula", f, "--structure", m]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_team_true(write, capsys):
    f = write("f.dl", "=(x,y)")
    m = write("m.json", {"domain": 2, "relations": {}})
    t = write("t.json", {"vars": ["x", "y"], "rows": [[0, 1], [1, 0]]})
    assert main(["eval", "--formula", f, "--structure", m, "--team", t]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_team_false(write, capsys):
    f = write("f.dl", "=(x,y)")
    m = write("m.json", {"domain": 2, "relations": {}})
    t = write("t.json", {"vars": ["x", "y"], "rows": [[0, 0], [0, 1]]})
    assert main(["eval", "--formula", f, "--structure", m, "--team", t]) == 1


def test_eval_rejects_eso_text(write, capsys):
    f = write("s.dl", "exists fn f/1. forall x. E(x, f(x))")
    m = write("m.json", CYCLE2)
    t = write("t.json", {"vars": [], "rows": [[]]})
    assert main(["eval", "--formula", f, "--structure", m, "--team", t]) == 2
    assert "check" in capsys.readouterr().err


def test_eval_bad_team_key_exits_2(write, capsys):
    f = write("f.dl", "=(x,y)")
    m = write("m.json", {"domain": 2, "relations": {}})
    t = write("t.json", {"variables": ["x", "y"], "rows": []})
    assert main(["eval", "--formula", f, "--structure", m, "--team", t]) == 2


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

def test_translate_d2eso_pin(write, capsys):
    f = write("f.dl", SPINE)
    assert main(["translate", "--pass", "d2eso", "--input", f]) == 0
    assert capsys.readouterr().out.strip() == (
        "exists fn f1/1. forall x. exists y. (f1(x) = y & E(x,y))")


def test_translate_every_pass_runs(write, capsys):
    d_inputs = {
        "prenex": SPINE,
        "simplify-atoms": "forall x. exists y. =(g(x), y)",
        "extract": SPINE,
        "skolemize": SPINE,
        "d2eso": SPINE,
        "fo-collapse": "exists x. (=(x) & P(x))",
        "width1": "forall x. exists y. (=(y) & E(x,y))",
        "single-forall": "forall y. P(y)",
    }
    eso_inputs = {
        "star": "exists fn f/1. forall x. P(f(f(x)))",
        "eso2d": "exists fn f/1. forall x. E(x, f(x))",
        "snf": "forall x. exists y. E(x,y)",
        "prop36": "exists fn f/1. forall x. P(f(f(x)))",
    }
    for name, text in {**d_inputs, **eso_inputs}.items():
        f = write(f"{name}.dl", text)
        assert main(["translate", "--pass", name, "--input", f]) == 0, name
        assert capsys.readouterr().out.strip(), name


def test_translate_deterministic(write, capsys):
    f = write("f.dl", "forall x. forall y. exists z. (=(x,y,z) & E(y,z))")
    main(["translate", "--pass", "d2eso", "--input", f])
    first = capsys.readouterr().out
    main(["translate", "--pass", "d2eso", "--input", f])
    assert capsys.readouterr().out == first


def test_translate_extract_needs_clean_atoms(write, capsys):
    f = write("f.dl", "forall x. exists y. =(g(x), y)")
    assert main(["translate", "--pass", "extract", "--input", f]) == 2
    assert "simplification" in capsys.readouterr().err


def test_translate_unknown_pass_exits_2(write, capsys):
    f = write("f.dl", SPINE)
    with pytest.raises(SystemExit) as exc:
        main(["translate", "--pass", "bogus", "--input", f])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_d_json(write, capsys):
    f = write("f.dl", SPINE)
    assert main(["classify", "--input", f]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"forall_count", "max_dep_width", "memberships",
            "upper_bound"} <= set(report)
    assert report["forall_count"] == 1
    assert report["upper_bound"] == "NTIME_RAM(n^1)"
    assert "D(1-forall)" in report["memberships"]


def test_classify_eso_json(write, capsys):
    f = write("s.dl", "exists fn f/1. forall x. E(x, f(x))")
    assert main(["classify", "--input", f]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_arity"] == 1
    assert report["star"] is True


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------

def test_equiv_equivalent_exit_0(write, capsys):
    left = write("l.dl", SPINE)
    right = write("r.dl", "exists fn f1/1. forall x. exists y. (f1(x) = y & E(x,y))")
    sig = write("sig.json", {"relations": {"E": 2}, "functions": {},
                             "constants": []})
    assert main(["equiv", "--left", left, "--right", right, "--sig", sig,
                 "--max-size", "2"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["outcome"] == "equivalent"
    assert verdict["structures_checked"] == 2 + 16


def test_equiv_counterexample_exit_3(write, capsys):
    left = write("l.dl", "exists x. P(x)")
    right = write("r.dl", "forall x. P(x)")
    sig = write("sig.json", {"relations": {"P": 1}, "functions": {},
                             "constants": []})
    assert main(["equiv", "--left", left, "--right", right, "--sig", sig,
                 "--max-size", "2"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["outcome"] == "counterexample"
    assert verdict["structure"]["domain"] == 2
    assert verdict["left_verdict"] != verdict["right_verdict"]


def test_equiv_budget_exit_4(write, capsys):
    left = write("l.dl", SPINE)
    right = write("r.dl", SPINE)
    sig = write("sig.json", {"relations": {"E": 2}, "functions": {},
                             "constants": []})
    assert main(["equiv", "--left", left, "--right", right, "--sig", sig,
                 "--max-size", "3", "--budget", "5"]) == 4
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_equiv_non_positive_budget_exit_2(write, capsys, budget):
    left = write("l.dl", SPINE)
    sig = write("sig.json", {"relations": {"E": 2}, "functions": {},
                             "constants": []})
    assert main(["equiv", "--left", left, "--right", left, "--sig", sig,
                 "--max-size", "1", "--budget", budget]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err and err.count("\n") == 1


def test_equiv_bad_max_size_exit_2(write, capsys):
    left = write("l.dl", SPINE)
    sig = write("sig.json", {"relations": {"E": 2}, "functions": {},
                             "constants": []})
    assert main(["equiv", "--left", left, "--right", left, "--sig", sig,
                 "--max-size", "0"]) == 2


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24
    assert any(line.startswith("phi1 ") for line in lines)
    assert any(line.startswith("even_R ") for line in lines)


def test_corpus_by_name(capsys):
    assert main(["corpus", "--name", "spine"]) == 0
    assert capsys.readouterr().out.strip() == SPINE


def test_corpus_json_metadata(capsys):
    assert main(["corpus", "--name", "phi1", "--json"]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["name"] == "phi1"
    assert meta["kind"] == "D"
    assert meta["team_vars"] == ["x", "y", "u", "v"]
    assert "signature" in meta and "note" in meta


def test_corpus_unknown_name_exit_2(capsys):
    assert main(["corpus", "--name", "nonesuch"]) == 2
    assert "nonesuch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# enum
# ---------------------------------------------------------------------------

def test_enum_streams_structures(write, capsys):
    sig = write("sig.json", {"relations": {"P": 1}, "functions": {},
                             "constants": []})
    assert main(["enum", "--sig", sig, "--size", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["domain"] == 1


def test_enum_deterministic(write, capsys):
    sig = write("sig.json", {"relations": {"E": 2}, "functions": {},
                             "constants": []})
    main(["enum", "--sig", sig, "--size", "2"])
    first = capsys.readouterr().out
    main(["enum", "--sig", sig, "--size", "2"])
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 16


def test_enum_streams_under_a_memory_cap(write):
    # {R/3} at size 3 has 2**27 structures: the walk must stop at the
    # budget after 1,000 of them, building no table of a symbol's values up
    # front; the address-space cap turns a walk that does into a failure
    # of this process alone
    sig = write("sig.json", {"relations": {"R": 3}, "functions": {},
                             "constants": []})
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, DEPLOG_BUDGET="1000", PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "deplog.cli", "enum", "--sig", sig, "--size", "3"],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    assert len(proc.stdout.splitlines()) == 1000


def test_enum_wide_pool_under_a_memory_cap(write):
    # {f/1} at size 6,000 has 6,000 value positions of 6,000 values each:
    # the walk must share one pool among them, where a copy per position
    # (36M entries) ran out of memory before the first structure; the
    # address-space cap turns a walk that copies into a failure of this
    # process alone
    sig = write("sig.json", {"functions": {"f": 1}})
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DEPLOG_BUDGET", None)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.Popen(
        [sys.executable, "-m", "deplog.cli", "enum", "--sig", sig, "--size", "6000"],
        env=env, preexec_fn=cap, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        first = proc.stdout.readline()
    finally:
        proc.kill()
        _, err = proc.communicate(timeout=120)
    assert first, err
    assert json.loads(first)["functions"]["f"] == [0] * 6000


def test_enum_constant_past_the_budget_under_a_memory_cap(write):
    # {c} at size 10^8 has 10^8 structures, past the default structure
    # budget of 10^6: the walk must be refused before it builds a pool of
    # 10^8 values, which ran out of memory; the address-space cap turns a
    # walk that builds it into a failure of this process alone
    sig = write("sig.json", {"constants": ["c"]})
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DEPLOG_BUDGET", None)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "deplog.cli", "enum", "--sig", sig,
         "--size", str(10 ** 8)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: structure enumeration")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["equiv", "enum"])
def test_wide_symbol_refused_under_a_memory_cap(write, command):
    # a 64-ary f or a 40-ary R has more argument tuples at size 2 than the
    # structure budget: the walk is refused before it lists them, which ran
    # out of memory; the address-space cap turns a walk that lists them
    # into a failure of this process alone
    if command == "equiv":
        f = write("f.dl", f"forall x. f({','.join(['x'] * 64)}) = x")
        argv = ["equiv", "--left", f, "--right", f, "--max-size", "2",
                "--sig", write("sig.json", {"functions": {"f": 64}})]
    else:
        argv = ["enum", "--size", "2",
                "--sig", write("sig.json", {"relations": {"R": 40}})]
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DEPLOG_BUDGET", None)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "deplog.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _cli_under_cpu_cap(*argv):
    """deplog in a process of its own, with the default budgets, under a
    10 s CPU cap that turns a runaway computation into a failure of that
    process alone."""
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DEPLOG_BUDGET", None)

    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))

    return subprocess.run([sys.executable, "-m", "deplog.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["check", "equiv"])
@pytest.mark.parametrize("arity", [64, 20])
def test_huge_table_count_refused_up_front(write, command, arity):
    # 2^(2^arity) candidate tables at size 2: a function the matrix never
    # reads costs nothing, so the sentence is decided under the CPU cap
    f = write("f.dl", f"exists fn f/{arity}. forall x. P(x)")
    argv = {
        "check": ["--formula", f, "--structure",
                  write("m.json", GOOD_FILES["structure"])],
        "equiv": ["--left", f, "--right", write("r.dl", "forall x. P(x)"),
                  "--sig", write("sig.json", GOOD_FILES["sig"]), "--max-size", "2"],
    }[command]
    proc = _cli_under_cpu_cap(command, *argv)
    assert proc.returncode == 0, proc.stderr
    if command == "check":
        return
    # a false sentence that reads f: at size 2 its first false instance,
    # x1=0, x2=x3=1, comes after 24 instances that each set an entry either
    # value of which holds, so the search would try 2^24 of their
    # combinations; it stops at the budget, with one line
    xs = [f"x{i}" for i in range(1, 7)]
    args = ", ".join(xs + ["x1"] * (arity - len(xs)))
    text = (f"exists fn f/{arity}. " + "".join(f"forall {x}. " for x in xs)
            + f"((x1 = f({args}) | x2 = x2) & (x1 = x2 | ~x2 = x3))")
    proc = _cli_under_cpu_cap("equiv", "--left", write("g.dl", text),
                              "--right", write("t.dl", "forall x. x = x"),
                              "--sig", write("sig.json", GOOD_FILES["sig"]),
                              "--max-size", "2", "--budget", "100000")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: equivalence check at domain size 2 ")
    assert proc.stderr.endswith("(budget 100000 exhausted, spent >= 100001)\n")
    assert proc.stderr.count("\n") == 1


def test_leader_test_gate_is_cheap_at_large_sizes(write):
    # one structure per size over the empty signature: the gate multiplies
    # size! only until it passes the structure budget's room, where building
    # 20000! in full at every size ran past 30 s
    f = write("t.dl", "true")
    proc = _cli_under_cpu_cap("equiv", "--left", f, "--right", f,
                              "--sig", write("sig.json", {}), "--max-size", "20000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["structures_checked"] == 20000


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def _without_wall_time(out):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in out.splitlines()]


def test_parser_reuse_matches_fresh_processes(write, capsys, monkeypatch):
    # main builds its parser once per process: after a usage error and a
    # help request, every call gives what it gives alone in a process of
    # its own
    from deplog import cli
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    monkeypatch.delenv("DEPLOG_BUDGET", raising=False)
    f = write("f.dl", SPINE)
    sig = write("sig.json", {"relations": {"E": 2}})
    calls = [
        ["equiv", "--left", f, "--right", f, "--sig", sig, "--max-size", "x"],
        ["-h"],
        ["parse", f],
        ["check", "--formula", f, "--structure", write("m.json", CYCLE2)],
        ["equiv", "--left", f, "--right", write("r.dl", "exists fn f1/1. forall x. "
                                                "exists y. (f1(x) = y & E(x,y))"),
         "--sig", sig, "--max-size", "2"],
        ["translate", "--pass", "d2eso", "--input", f],
        ["enum", "--sig", sig, "--size", "1"],
    ]
    cli._build_parser.cache_clear()
    got = [_in_process(argv, capsys) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    src = os.path.dirname(os.path.dirname(deplog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, (code, out, err) in zip(calls, got):
        proc = subprocess.run([sys.executable, "-m", "deplog.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (code, err) == (proc.returncode, proc.stderr), argv
        if argv[0] == "equiv" and code != 2:
            assert _without_wall_time(out) == _without_wall_time(proc.stdout)
        else:
            assert out == proc.stdout, argv
    assert [code for code, _, _ in got] == [2, 0, 0, 0, 0, 0, 0]
