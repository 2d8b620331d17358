import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from liesymp import cli, report
from liesymp.cli import main
from liesymp.report import run_goldens
from liesymp import triple_to_dict, ex1, ex2


@pytest.fixture()
def ex2_file(tmp_path):
    p = tmp_path / "ex2.json"
    p.write_text(json.dumps(triple_to_dict(ex2())))
    return str(p)


def test_validate_missing_file_exits_2(capsys):
    # validate is file-only; a nonexistent path is an input failure
    assert main(["validate", "no-such-file.json"]) == 2
    assert "SerializationError" in capsys.readouterr().err


def test_validate_file(ex2_file, capsys):
    assert main(["validate", ex2_file]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "ex2" in out


def test_validate_degenerate_form_exits_2(tmp_path, capsys):
    d = triple_to_dict(ex2())
    for k in range(4):
        d["omega"][0][k] = "0"
        d["omega"][k][0] = "0"
    p = tmp_path / "degen.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "DegenerateForm" in err


def test_validate_jacobi_violation_exits_2(tmp_path, capsys):
    bad = {"name": "bad", "dim": 4, "basis": ["X1", "X2", "Y1", "Y2"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"3": "1"}},
                        {"i": 0, "j": 3, "coeffs": {"2": "1"}},
                        {"i": 1, "j": 3, "coeffs": {"1": "1"}}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "--kind", "algebra", str(p)]) == 2
    err = capsys.readouterr().err
    assert "JacobiViolation" in err
    assert "X1" in err and "X2" in err and "Y2" in err


@pytest.mark.parametrize("i,j", [(1, 0), (1, 1)])
def test_validate_bracket_index_order_exits_2(tmp_path, capsys, i, j):
    # brackets are stored with i < j; a swapped or diagonal entry is a
    # named validation error, not a traceback
    d = triple_to_dict(ex1())
    d["brackets"][0]["i"], d["brackets"][0]["j"] = i, j
    p = tmp_path / "swapped.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "BracketOrder" in err and f"({i}, {j})" in err


@pytest.mark.parametrize("bad", ["0.5", "1e0", "1_000", " 1 ", "1/0"])
def test_validate_number_outside_grammar_exits_2(tmp_path, capsys, bad):
    # omega(X1, Y1) = 1/2 written as a decimal: the README grammar is
    # integers or p/q, so this is an input error even though it is skew
    d = triple_to_dict(ex1())
    d["omega"][0][2], d["omega"][2][0] = bad, "-1/2"
    p = tmp_path / "decimal.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "SerializationError" in err and repr(bad) in err
    d["omega"][0][2] = "1/2"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 0


def _set_brackets(d):
    d["brackets"] = 5


def _set_coeffs_list(d):
    d["brackets"][0]["coeffs"] = [1]


def _set_ragged_omega(d):
    d["omega"][1] = d["omega"][1][:3]


def _set_bool_index(d):
    d["brackets"][0]["i"] = False


def _name_setter(name):
    def mutate(d):
        d["name"] = name
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_set_brackets, "brackets must be a list"),
    (_set_coeffs_list, "coeffs must be an object"),
    (_set_ragged_omega, "omega must be a list of equal-length rows"),
    (_set_bool_index, "bracket indices must be integers"),
    (_name_setter({"a": 1}), "name must be a string"),
    (_name_setter(None), "name must be a string"),
    (_name_setter([1]), "name must be a string"),
], ids=["brackets-number", "coeffs-list", "ragged-omega", "bool-index",
        "name-object", "name-null", "name-list"])
def test_validate_malformed_payload_shape_exits_2(tmp_path, capsys, mutate,
                                                  message):
    # wrong JSON types or shapes are input errors with a message, never a
    # traceback
    d = triple_to_dict(ex1())
    mutate(d)
    p = tmp_path / "shape.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "SerializationError" in err and message in err


def test_validate_boolean_coefficient_exits_2(tmp_path, capsys):
    # JSON true is not the number 1
    d = triple_to_dict(ex1())
    d["brackets"][0]["coeffs"] = {"3": True}
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "SerializationError" in err and "True" in err


@pytest.mark.parametrize("key", ["0_3", " 3 ", "+3", "03"])
def test_validate_non_canonical_coefficient_key_exits_2(tmp_path, capsys,
                                                        key):
    # int() would read each of these as index 3; only "3" names e_3
    d = triple_to_dict(ex1())
    d["brackets"][0]["coeffs"] = {key: "1"}
    p = tmp_path / "key.json"
    p.write_text(json.dumps(d))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "SerializationError" in err and f"{key!r} is not an index" in err


_HUGE = "7" * 5000   # beyond the interpreter's int-from-string digit limit


def _assert_cut(err: str) -> None:
    # the message names the number by a short prefix and its digit count
    assert "(5000 digits)" in err and _HUGE[:100] not in err
    assert len(err) < 300


def test_oversized_number_arguments_exit_2(capsys):
    assert main(["analyze", f"thurston({_HUGE})"]) == 2
    err = capsys.readouterr().err
    assert "BadNumber" in err
    _assert_cut(err)


@pytest.mark.parametrize("literal", ["string", "integer"])
def test_validate_oversized_number_in_file_exits_2(tmp_path, capsys, literal):
    d = triple_to_dict(ex1())
    d["omega"][0][2] = _HUGE
    text = json.dumps(d)
    if literal == "integer":
        text = text.replace(f'"{_HUGE}"', _HUGE)
    p = tmp_path / "huge.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "SerializationError" in err
    _assert_cut(err)


def test_cli_number_arguments_follow_the_grammar(capsys):
    assert main(["analyze", "thurston(0.5)"]) == 2
    assert "BadNumber" in capsys.readouterr().err
    # a spaced parameter is outside the grammar too, as in a file
    assert main(["analyze", "thurston( 1/2 )"]) == 2
    assert capsys.readouterr().err == (
        "INVALID (BadNumber): ' 1/2 ' is not an integer or p/q\n")


@pytest.mark.parametrize("target,err", [
    ("abelian(x)", "INVALID (BadNumber): 'x' is not an integer or p/q\n"),
    ("abelian(3/2)", "INVALID (BadNumber): abelian(n) needs an integer n, "
                     "got '3/2'\n"),
    ("abelian(1_0)", "INVALID (BadNumber): '1_0' is not an integer or p/q\n"),
    ("thurston(abc)",
     "INVALID (BadNumber): 'abc' is not an integer or p/q\n"),
    ("abelian(0)", "INVALID (Unsatisfiable): abelian factor needs n >= 1\n"),
    ("abelian(-1)", "INVALID (Unsatisfiable): abelian factor needs n >= 1\n"),
    ("abelian( 2 )", "INVALID (BadNumber): ' 2 ' is not an integer or p/q\n"),
    ("thurston(-1)", "INVALID (Unsatisfiable): parameter must be positive\n"),
])
def test_catalog_parameter_outside_the_grammar_exits_2(capsys, target, err):
    # abelian's n was read by int(): a ValueError traceback for "x" and
    # "3/2", and "1_0" was accepted as 10
    assert main(["analyze", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


@pytest.mark.parametrize("argv", [["validate"], ["analyze"],
                                  ["construct", "product"]])
def test_dim_0_triple_payload_exits_2(tmp_path, capsys, argv):
    # validate passed it, and analyze died in a StopIteration traceback
    # looking for a nonzero entry of omega
    p = tmp_path / "z.json"
    p.write_text(json.dumps({"name": "z", "dim": 0, "basis": [],
                             "brackets": [], "omega": [], "J": []}))
    assert main(argv + [str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("INVALID (DimensionMismatch): a triple needs a "
                            "positive dimension\n")


def test_analyze_json_report(capsys):
    assert main(["analyze", "thurston(3)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nijenhuis"]["norm_sq"] == "24"
    assert report["validation"]["metric_positive"] is True
    assert all(report["validation"].values())


def test_analyze_is_deterministic(capsys):
    assert main(["analyze", "ex4"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "ex4"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_text_report(capsys):
    assert main(["analyze", "dim6", "--report", "text"]) == 0
    out = capsys.readouterr().out
    assert "maximally_non_integrable=True" in out


def test_analyze_file_target(ex2_file, capsys):
    assert main(["analyze", ex2_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == "ex2"


def test_analyze_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["analyze", "ex1", "-o", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["nijenhuis"]["norm_sq"] == "16"


@pytest.mark.parametrize("argv", [
    ["analyze", "ex1"],
    ["construct", "product", "ex2"],
    ["synthesize", "--n", "2", "--k", "1"],
    ["examples", "show", "ex1"],
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    # open() raised FileNotFoundError out of _emit: a traceback, exit 1
    out = tmp_path / "no-such-dir" / "x.json"
    assert main(argv + ["-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: cannot write {out}: "
                            "No such file or directory\n")
    assert main(argv + ["-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"usage error: cannot write "
                                       f"{tmp_path}: Is a directory\n")


def test_empty_output_path_is_a_usage_error(capsys):
    # `-o ""` printed the report to stdout and exited 0
    assert main(["analyze", "ex1", "-o", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: cannot write : "
                            "No such file or directory\n")


def test_timings_are_opt_in(capsys):
    assert main(["analyze", "ex1"]) == 0
    assert "timings" not in capsys.readouterr().out
    assert main(["analyze", "ex1", "--timings"]) == 0
    assert "timings" in capsys.readouterr().out


def test_goldens_pass(capsys):
    assert main(["goldens"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_goldens_filter(capsys):
    assert main(["goldens", "--filter", "twistor"]) == 0
    out = capsys.readouterr().out
    assert "twistor" in out and "ex1" not in out


def test_goldens_catch_wrong_expectations(monkeypatch):
    # flip two known-good catalog claims and one twistor claim; exactly
    # those three rows must fail, each read through its own table
    monkeypatch.setitem(report._TABLE_EXPECT["ex3"], "image_involutive", True)
    monkeypatch.setitem(report._TABLE_EXPECT["ex3"], "perp_involutive", False)
    monkeypatch.setitem(report._TWISTOR_EXPECT[2], "minus_image_dim", 5)
    lines, ok = run_goldens()
    assert not ok
    assert [l for l in lines if l.startswith("FAIL")] == [
        "FAIL  ex3 :: image_involutive (expected True, got False)",
        "FAIL  ex3 :: perp_involutive (expected False, got True)",
        "FAIL  twistor(n=2) :: minus_image_dim (expected 5, got 6)",
    ]
    assert lines[-1] == "45/48 golden claims hold"


def test_examples_listing_and_unknown_entry_bytes(capsys):
    # both read the catalog's one table of entry descriptions
    assert main(["examples"]) == 0
    assert capsys.readouterr().out == (
        "ex1            dim 4, nilpotent, neither distribution involutive\n"
        "ex2            dim 4, nilpotent, both distributions involutive\n"
        "ex3            dim 4, solvable, only the complement involutive\n"
        "ex4            dim 4, not nilpotent, only the image involutive\n"
        "dim6           dim 6, nilpotent, im N is the whole algebra\n"
        "thurston(a)    dim 4 family, |N|^2 = 8a (a > 0 rational)\n"
        "abelian(n)     dim 2n abelian, Kaehler (N = 0)\n")
    assert main(["analyze", "foo"]) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown catalog entry 'foo'; known: ex1, ex2, ex3, "
        "ex4, dim6, thurston(a), abelian(n)\n")


def test_examples_subcommand(tmp_path):
    out = tmp_path / "ex.json"
    assert main(["examples", "show", "ex3", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "ex3"


def test_construct_subcommand(capsys):
    assert main(["construct", "product", "ex2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 6 and payload["name"] == "ex2_xR2"


def test_construct_character_with_explicit_functional(capsys):
    assert main(["construct", "character", "ex2", "--xi", "1,0,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"][-2:] == ["c1", "d1"]


def test_construct_character_of_the_wrong_length_exits_2(capsys):
    assert main(["construct", "character", "ex3", "--xi", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("INVALID (DimensionMismatch): --xi has 2 "
                            "entries for dimension 4\n")


@pytest.mark.parametrize("xi,token", [
    ("", ""),
    ("1, 0,0,0", " 0"),
    (" 1,0,0,0 ", " 1"),
])
def test_construct_character_reads_xi_as_given(capsys, xi, token):
    # an empty --xi fell back to the default character and spaced tokens
    # were stripped: all three exited 0 with the bytes of "1,0,0,0"
    assert main(["construct", "character", "ex3", "--xi", xi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"INVALID (BadNumber): {token!r} is not an "
                            "integer or p/q\n")


def test_synthesize_subcommand(capsys):
    assert main(["synthesize", "--n", "3", "--k", "1",
                 "--image-involutive", "false",
                 "--perp-involutive", "true"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 6


def test_synthesize_unsatisfiable_exits_2(capsys):
    assert main(["synthesize", "--n", "2", "--k", "2"]) == 2
    assert "Unsatisfiable" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "1_0", "--k", "1"],     # was read as n = 10
    ["--n", " 3", "--k", "1"],      # was read as n = 3
    ["--n", "3", "--k", "+1"],      # was read as k = 1
    ["--n", "-2", "--k", "0"],      # was a validation failure, exit 2
])
def test_synthesize_sizes_outside_the_grammar_are_usage_errors(argv, capsys):
    assert main(["synthesize"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --")


def test_synthesize_k_zero_builds_the_abelian_algebra(capsys):
    assert main(["synthesize", "--n", "2", "--k", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "abelian(2)"


def test_nspace_dim_subcommand(capsys):
    assert main(["nspace-dim", "--n", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out and "n=3: nullity=16" in out


@pytest.mark.parametrize("argv", [
    ["twistor", "--n", "0"],        # was a ValueError traceback
    ["twistor", "--n", "x"],        # was a ValueError traceback
    ["nspace-dim", "--n", "-2"],    # was a MISMATCH line and exit 3
    ["twistor", "--n", "1_0"],      # was read as n = 10
    ["nspace-dim", "--n", "0"],     # was a MATCH line and exit 0
    ["nspace-dim", "--n", "1,,2"],
    ["twistor", "--n", "1, 2"],
])
def test_n_list_outside_the_grammar_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --n: ")


def test_twistor_subcommand(capsys):
    assert main(["twistor", "--n", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "witness" in out


def test_examples_listing_goes_to_the_output_file(tmp_path, capsys):
    assert main(["examples"]) == 0
    listing = capsys.readouterr().out
    out = tmp_path / "list.txt"
    assert main(["examples", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == listing


def test_examples_action_spellings(capsys):
    assert main(["examples", "show", "ex1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "ex1"
    assert main(["examples", "show"]) == 1  # name required


def test_construct_flag_spellings(capsys):
    # the operation and the base are positional, and both are required
    assert main(["construct", "product"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")


# (argv, what its usage error names). Each value has one spelling, the
# one README's CLI block shows; any other (examples list or --name,
# construct --op or --base, synthesize --inv-image or --inv-perp, analyze
# --alpha, a prefix of an option) is an argument the parser refuses
@pytest.mark.parametrize("argv, named", [
    (["construct", "product", "ex2", "--xi", "1,0,0,0"],
     "usage error: --xi applies to the character construction only\n"),
    (["synthesize", "--n", "3", "--k", "1", "--image-involutive", "true",
      "--inv-image", "n"], "--inv-image n"),
    (["synthesize", "--n", "3", "--k", "1", "--inv-perp", "y",
      "--perp-involutive", "false"], "--inv-perp y"),
    (["examples", "show", "ex1", "--name", "ex2"], "--name ex2"),
    (["examples", "list", "--name", "ex2"], "'list'"),
    (["examples", "list", "ex1"], "'list'"),
    (["construct", "product", "ex2", "--op", "character"],
     "--op character"),
    (["construct", "product", "ex2", "--base", "ex1"], "--base ex1"),
    (["examples", "list"], "'list'"),
    (["examples", "--name", "ex1"], "'ex1'"),
    (["construct", "--op", "product", "ex2"], "--op"),
    (["construct", "product", "--base", "ex2"], "--base"),
    (["synthesize", "--n", "3", "--k", "1", "--inv-image", "n"],
     "--inv-image n"),
    (["synthesize", "--n", "3", "--k", "1", "--inv-image", "n",
      "--inv-perp", "y"], "--inv-image n --inv-perp y"),
    (["analyze", "thurston", "--alpha", "3"], "--alpha 3"),
    (["analyze", "ex1", "--rep", "text"], "--rep text"),
    (["analyze", "ex1", "--h"], "--h"),
    (["synthesize", "--n", "2", "--k", "1", "--image", "false", "--perp",
      "true"], "--image false --perp true"),
], ids=["product_with_xi", "conflicting_flag_spellings",
        "conflicting_perp_spellings", "show_with_name", "list_with_name",
        "list_with_entry_name", "conflicting_op_spellings",
        "conflicting_base_spellings", "examples_list", "examples_name",
        "construct_op", "construct_base", "synthesize_inv_image",
        "short_flag_spellings", "analyze_alpha", "option_prefix",
        "help_prefix", "flag_prefixes"])
def test_arguments_a_command_would_ignore_are_usage_errors(argv, named,
                                                           capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert named in captured.err


def _readme_cli_block() -> list[list[str]]:
    """The argv of each command in README's CLI block, without the
    leading `liesymp`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_block(), ids=" ".join)
def test_readme_cli_block_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triple.json").write_text(json.dumps(triple_to_dict(ex2())))
    assert main(argv) == 0


def test_twistor_sign_filter_and_json(capsys):
    assert main(["twistor", "--n", "2", "--sign", "+"]) == 0
    out = capsys.readouterr().out
    assert "J+" in out and "J-" not in out
    assert main(["twistor", "--n", "2", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["minus_image_dim"] == 6
    assert payload[0]["checks_pass"] is True
    assert payload[0]["plus_witness"] == ["P_1", "-2"]


def test_twistor_json_timings_keep_stdout_json(capsys):
    # the elapsed line goes to stderr, so stdout still parses as JSON;
    # text mode keeps it on stdout
    assert main(["twistor", "--n", "1", "--report", "json",
                 "--timings"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)[0]["checks_pass"] is True
    assert re.fullmatch(r"elapsed: \d+ ms\n", captured.err)
    assert main(["twistor", "--n", "1", "--timings"]) == 0
    captured = capsys.readouterr()
    assert re.search(r"\nelapsed: \d+ ms\n\Z", captured.out)
    assert captured.err == ""


TWISTOR_TEXT = (
    'PASS  twistor(n=1) :: plus structure integrable\n'
    'PASS  twistor(n=1) :: minus image = 0\n'
    'PASS  twistor(n=1) :: p x p values fill q\n'
    'PASS  twistor(n=1) :: orbit form J+ invariant\n'
    'PASS  twistor(n=1) :: orbit form J- invariant\n'
    'PASS  twistor(n=1) :: minus metric positive definite\n'
    'PASS  twistor(n=1) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n'
    'PASS  twistor(n=2) :: plus structure integrable\n'
    'PASS  twistor(n=2) :: minus image = q+p\n'
    'PASS  twistor(n=2) :: p x p values fill q\n'
    'PASS  twistor(n=2) :: orbit form J+ invariant\n'
    'PASS  twistor(n=2) :: orbit form J- invariant\n'
    'PASS  twistor(n=2) :: minus metric positive definite\n'
    'PASS  twistor(n=2) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n'
    'PASS  twistor(n=3) :: plus structure integrable\n'
    'PASS  twistor(n=3) :: minus image = q+p\n'
    'PASS  twistor(n=3) :: p x p values fill q\n'
    'PASS  twistor(n=3) :: orbit form J+ invariant\n'
    'PASS  twistor(n=3) :: orbit form J- invariant\n'
    'PASS  twistor(n=3) :: minus metric positive definite\n'
    'PASS  twistor(n=3) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n')
TWISTOR_PLUS_TEXT = (
    'PASS  twistor(n=1) :: plus structure integrable\n'
    'PASS  twistor(n=1) :: orbit form J+ invariant\n'
    'PASS  twistor(n=1) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n'
    'PASS  twistor(n=2) :: plus structure integrable\n'
    'PASS  twistor(n=2) :: orbit form J+ invariant\n'
    'PASS  twistor(n=2) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n'
    'PASS  twistor(n=3) :: plus structure integrable\n'
    'PASS  twistor(n=3) :: orbit form J+ invariant\n'
    'PASS  twistor(n=3) :: plus form not positive\n'
    '      non-positivity witness: form(P_1, P_1) = -2\n')
TWISTOR_MINUS_TEXT = (
    'PASS  twistor(n=1) :: minus image = 0\n'
    'PASS  twistor(n=1) :: p x p values fill q\n'
    'PASS  twistor(n=1) :: orbit form J- invariant\n'
    'PASS  twistor(n=1) :: minus metric positive definite\n'
    'PASS  twistor(n=2) :: minus image = q+p\n'
    'PASS  twistor(n=2) :: p x p values fill q\n'
    'PASS  twistor(n=2) :: orbit form J- invariant\n'
    'PASS  twistor(n=2) :: minus metric positive definite\n'
    'PASS  twistor(n=3) :: minus image = q+p\n'
    'PASS  twistor(n=3) :: p x p values fill q\n'
    'PASS  twistor(n=3) :: orbit form J- invariant\n'
    'PASS  twistor(n=3) :: minus metric positive definite\n')
# one `twistor --sign - --report json` entry; n, dim, m_dim and the minus
# image dimension are (1, 3, 2, 0), (2, 10, 6, 6) and (3, 21, 12, 12)
TWISTOR_MINUS_JSON_ENTRY = """  {{
    "checks_pass": true,
    "dim": {1},
    "kks_invariant_minus": true,
    "kks_invariant_plus": true,
    "m_dim": {2},
    "minus_image_dim": {3},
    "minus_positive": true,
    "n": {0},
    "p_pairs_fill_q": true,
    "plus_integrable": true,
    "plus_positive": false,
    "plus_witness": [
      "P_1",
      "-2"
    ]
  }}"""


@pytest.mark.parametrize("argv, want", [
    ([], TWISTOR_TEXT),
    (["--sign", "+"], TWISTOR_PLUS_TEXT),
    (["--sign", "-"], TWISTOR_MINUS_TEXT),
    (["--sign", "-", "--report", "json"],
     "[\n" + ",\n".join(TWISTOR_MINUS_JSON_ENTRY.format(*e) for e in
                         ((1, 3, 2, 0), (2, 10, 6, 6), (3, 21, 12, 12)))
     + "\n]\n"),
], ids=["text", "plus_text", "minus_text", "minus_json"])
def test_twistor_output_bytes(argv, want, capsys):
    # the benchmark's digests cover only `twistor --n N --report json`
    assert main(["twistor", "--n", "1,2,3", *argv]) == 0
    assert capsys.readouterr().out == want


def test_unmatched_goldens_filter_is_a_usage_error(capsys):
    assert main(["goldens", "--filter", "zzz"]) == 1
    assert capsys.readouterr() == (
        "", "usage error: no golden entry matches --filter 'zzz'\n")


@pytest.mark.parametrize("argv", [["analyze", "ex1"],
                                  ["construct", "product", "ex1"],
                                  ["examples", "show", "ex1"]])
def test_a_directory_does_not_shadow_a_catalog_entry(argv, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    want = capsys.readouterr().out
    (tmp_path / "ex1").mkdir()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_analyze_reads_a_triple_piped_into_dev_stdin(ex2_file, capsys):
    # /dev/stdin on a pipe is not a regular file, and still a path
    assert main(["analyze", ex2_file]) == 0
    want = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "liesymp.cli", "analyze",
                           "/dev/stdin"], input=Path(ex2_file).read_text(),
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_usage_errors_exit_1(capsys):
    assert main(["analyze"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["analyze", "no-such-entry"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0


# argvs for the single-command parser against the full tree: help of
# every command, bad choices, missing and unknown arguments, "--",
# options in full and abbreviated (refused by both), "=" values, a
# repeated option, an unknown or misspelt command and options before the
# command
_PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "analyze"], ["--timings"],
    ["anlyze", "ex1"], ["--full", "analyze", "ex1"], ["ex1", "analyze"],
] + [[command, "-h"] for command in cli._COMMANDS] + [
    ["twistor", "--help"], ["twistor", "--n", "1", "-h"],
    ["analyze", "ex1", "--h"],
    ["analyze"], ["analyze", "ex1"], ["analyze", "ex1", "--report", "xml"],
    ["analyze", "ex1", "--bogus"], ["analyze", "ex1", "extra"],
    ["analyze", "--", "ex1"], ["analyze", "ex1", "--", "--full"],
    ["analyze", "ex1", "--fu", "--rep", "text", "-o", "r.txt"],
    ["analyze", "ex1", "--full", "--report", "text", "-o", "r.txt"],
    ["analyze", "thurston", "--alpha=1/2", "--timings"],
    ["validate"], ["validate", "x.json", "--kind", "bogus"],
    ["validate", "x.json", "--kind", "triple"],
    ["goldens"], ["goldens", "--filter"], ["goldens", "--filter", "ex1"],
    ["examples"], ["examples", "show"], ["examples", "show", "ex2"],
    ["examples", "a", "b", "c"], ["examples", "--name", "dim6"],
    ["construct", "foo", "ex1"], ["construct", "--op", "bad"],
    ["construct", "character", "ex2", "--xi", "1,0,0,0"],
    ["construct", "--op", "product", "--base", "ex2"],
    ["synthesize"], ["synthesize", "--n", "2"],
    ["synthesize", "--n", "x", "--k", "1"],
    ["synthesize", "--n", "2", "--k", "1", "--i", "y"],
    ["synthesize", "--n", "3", "--k", "1", "--inv-im", "n", "--inv-p", "y"],
    ["synthesize", "--n", "3", "--k", "1", "--image-involutive", "false"],
    ["nspace-dim"], ["nspace-dim", "--n"], ["nspace-dim", "--n", "1,2"],
    ["twistor"], ["twistor", "--sign", "*"], ["twistor", "--n", "0"],
    ["twistor", "--", "--n"], ["twistor", "--n=1", "--sign=+"],
    ["twistor", "-n", "1"], ["twistor", "--n", "1", "--n", "2"],
    ["twistor", "--n", "1,2", "--report", "json"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        result = parse(argv)
    except cli._UsageError as e:
        result = ("usage error", str(e))
    except SystemExit as e:
        result = ("exit", e.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_command_parser_parses_as_the_full_tree(monkeypatch, capsys, argv):
    # the same Namespace, usage-error message, or help text and exit code;
    # the full tree is built only when argv[0] is not a command
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_outcome(lambda a: cli._build_parser().parse_args(a), argv,
                          capsys)
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or build())
    assert _parse_outcome(cli._parse_args, argv, capsys) == full
    assert built == ([] if argv and argv[0] in cli._COMMANDS else [1])


@pytest.mark.parametrize("argv", [["analyze", "ex1"], ["goldens"],
                                  ["twistor", "--n", "1"], ["examples"]])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # stdout is a pipe whose read end is closed before the command starts
    src = str(Path(__file__).resolve().parents[1] / "src")
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "liesymp.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src},
                              timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")


# -- input checks on a payload's name, basis and dim ----------------------


def _write(tmp_path, payload) -> str:
    p = tmp_path / "in.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_repeated_basis_names_exit_2(tmp_path, capsys):
    # two different X1 in one span
    d = triple_to_dict(ex1())
    d["basis"] = ["X1", "X1", "Y1", "Y2"]
    path = _write(tmp_path, d)
    for argv in (["validate", path], ["analyze", path]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "INVALID (DimensionMismatch): basis name 'X1' repeats\n")


def test_dim_against_basis_and_a_refused_coefficient_first(tmp_path,
                                                           capsys):
    d = triple_to_dict(ex1())
    d["dim"] = 5
    assert main(["validate", _write(tmp_path, d)]) == 2
    assert capsys.readouterr().err == (
        "INVALID (DimensionMismatch): 4 basis names for dim 5\n")
    d["brackets"][1]["coeffs"] = {"2": "0.5"}
    assert main(["validate", _write(tmp_path, d)]) == 2
    assert capsys.readouterr().err == (
        "INVALID (SerializationError): bad rational value '0.5': '0.5' is "
        "not an integer or p/q\n")


def test_construct_adds_two_unused_names(tmp_path, capsys):
    d = triple_to_dict(ex1())
    d["basis"] = ["p2", "q2", "X2", "Y2"]
    assert main(["construct", "product", _write(tmp_path, d)]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == [
        "p2", "q2", "X2", "Y2", "p1", "q1"]


_KNOWN = "known: ex1, ex2, ex3, ex4, dim6, thurston(a), abelian(n)\n"


@pytest.mark.parametrize("target,err", [
    (" ex1 ", "usage error: unknown catalog entry ' ex1 '; " + _KNOWN),
    ("thurston (2)",
     "usage error: unknown catalog entry 'thurston (2)'; " + _KNOWN),
    ("ex1(2)", "usage error: ex1 takes no parameter\n"),
])
def test_a_name_outside_the_catalog_is_a_usage_error(capsys, target, err):
    # a name is not stripped, and only `builtin`'s KeyError is a usage
    # error
    assert main(["analyze", target]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


# -- branches of the commands ----------------------------------------------


def _algebra_file(tmp_path) -> str:
    d = triple_to_dict(ex1())
    del d["omega"], d["J"]
    return _write(tmp_path, d)


def test_validate_an_algebra_file(tmp_path, capsys):
    assert main(["validate", _algebra_file(tmp_path)]) == 0
    assert capsys.readouterr().out == "OK: valid algebra 'ex1' (dim 4)\n"


def test_analyze_an_algebra_file_exits_2(tmp_path, capsys):
    path = _algebra_file(tmp_path)
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == (
        f"INVALID (SerializationError): {path} is not a triple payload "
        "(no \"omega\" field)\n")


def test_validate_a_top_level_list_exits_2(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, [triple_to_dict(ex1())])]) == 2
    assert capsys.readouterr().err == (
        "INVALID (SerializationError): algebra payload must be an object\n")


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"INVALID (SerializationError): cannot read {path}: 'utf-8' codec "
        "can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"omega": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["array", "omega"])
def test_json_nested_too_deeply_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "INVALID (SerializationError): JSON nested too deeply\n")


def test_full_text_report_lists_the_values_of_n(capsys):
    assert main(["analyze", "ex1", "--report", "text", "--full"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("  identities: all hold\n"
                        "  N values:\n"
                        "      N(X1,X2) = X1 - Y2\n"
                        "      N(X1,Y2) = -X2 - Y1\n"
                        "      N(X2,Y1) = X2 + Y1\n"
                        "      N(Y1,Y2) = -X1 + Y2\n")


@pytest.mark.parametrize("argv", [["goldens", "--filter", "ex1"],
                                  ["nspace-dim", "--n", "2"]])
def test_timings_end_with_an_elapsed_line(capsys, argv):
    assert main(argv + ["--timings"]) == 0
    assert re.fullmatch(r"elapsed: [0-9]+ ms",
                        capsys.readouterr().out.splitlines()[-1])


def test_an_internal_invariant_violation_exits_2(monkeypatch, capsys):
    from liesymp.errors import InternalInvariantViolation

    def broken(n):
        raise InternalInvariantViolation("two routes disagree")

    monkeypatch.setattr(cli, "twistor_claims", broken)
    assert main(["twistor", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "ERROR (InternalInvariantViolation): two routes disagree\n")


def test_a_key_error_inside_a_command_is_not_a_usage_error(monkeypatch):
    # only an unknown catalog name is; any other KeyError is a bug and
    # shows as one
    def broken(n):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "twistor_claims", broken)
    with pytest.raises(KeyError, match="lost"):
        main(["twistor", "--n", "1"])
