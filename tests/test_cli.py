import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qwi.cli import main
from qwi.plmap import parse_pl
from qwi import predicates as P

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_predicate(tmp_path, capsys):
    cof = write(tmp_path, "f.pl", "pl cuts=[0] pieces=[(1,0),(2,0)]")
    assert main(["check", "cof", cof]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "coterm", cof]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_restr_prints_witness(tmp_path, capsys):
    x = write(tmp_path, "x.pl", "pl id")
    y = write(tmp_path, "y.pl", "pl cuts=[0] pieces=[(1,0),(2,0)]")
    assert main(["check", "restr", x, y]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true"
    assert out[1].startswith("witness: pl ")
    w = parse_pl(out[1].removeprefix("witness: "))
    assert w == parse_pl("pl cuts=[0] pieces=[(1,0),(2,0)]")


def test_check_errors(tmp_path, capsys):
    f = write(tmp_path, "f.pl", "pl id")
    assert main(["check", "nosuch", f]) == 2
    assert main(["check", "disj", f]) == 2  # arity mismatch
    assert main(["check", "cof", str(tmp_path / "missing.pl")]) == 2


def test_check_rejects_wrong_arity_for_every_predicate(tmp_path, capsys):
    unary = {"comp", "bump", "coterm", "cof", "rational", "finrational"}
    binary = {"apart", "disj", "orbital", "restr", "cont", "codesame",
              "oppsupport", "sameset", "member"}
    f = write(tmp_path, "f.pl", "pl cuts=[0] pieces=[(1,0),(2,0)]")
    assert main(["check", "nosuch", f]) == 2
    listed = capsys.readouterr().err.split("expected one of ")[1]
    assert sorted(unary | binary) == ast.literal_eval(listed.strip())
    for name in sorted(unary | binary):
        arity = 1 if name in unary else 2
        wrong = [f, f] if arity == 1 else [f]
        assert main(["check", name, *wrong]) == 2, name
        assert f"takes {arity} map argument(s)" in capsys.readouterr().err


def test_check_member(tmp_path, capsys):
    def encoded(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out
    g = write(tmp_path, "g.pl", encoded("encode-set", "-1,1/2,3"))
    inside = write(tmp_path, "in.pl", encoded("encode-rational", "1/2"))
    outside = write(tmp_path, "out.pl", encoded("encode-rational", "0", "--side", "left"))
    assert main(["check", "member", inside, g]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "member", outside, g]) == 1
    assert capsys.readouterr().out.strip() == "false"
    ident = write(tmp_path, "id.pl", "pl id")
    assert main(["check", "member", ident, g]) == 2  # not a cofinal bump
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_eval(tmp_path, capsys):
    dense = write(tmp_path, "dense.wmso", "Ax Ay (x < y -> Ez (x < z & z < y))")
    assert main(["eval", dense]) == 0
    assert capsys.readouterr().out.strip() == "true"
    top = write(tmp_path, "top.wmso", "Ex Ay ~(x < y)")
    assert main(["eval", top]) == 1
    open_f = write(tmp_path, "open.wmso", "x in X")
    assert main(["eval", open_f, "--assign", "x=1/2,X={1/2,3}"]) == 0
    assert main(["eval", open_f, "--assign", "x=2,X={1/2,3}"]) == 1
    assert main(["eval", open_f]) == 2  # unbound variables


def test_eval_refuses_in_as_a_point_variable(tmp_path, capsys):
    f = write(tmp_path, "in.wmso", "Ex (in < x)")
    assert main(["eval", f]) == 2
    assert capsys.readouterr().err.startswith("error:")
    f = write(tmp_path, "in.wmso", "Ein (x < y)")
    assert main(["eval", f]) == 2
    assert "a quantifier must bind a variable" in capsys.readouterr().err


@pytest.mark.parametrize("assign", ["X{=1", "1}y=1", "0 {{x{=110", "x y=1", ",x=1"])
def test_eval_refuses_malformed_assignment_names(tmp_path, capsys, assign):
    f = write(tmp_path, "true.wmso", "Ex (x = x)")  # true under any assignment
    assert main(["eval", f, f"--assign={assign}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_assignment_items(tmp_path, capsys):
    f = write(tmp_path, "open.wmso", "x in X & y < x")
    assert main(["eval", f, "--assign", " x = 1/2 , X={ 1/2, 3 },y=-1,"]) == 0
    assert main(["eval", f, "--assign", "x=1/2,X={},y=-1"]) == 1
    assert main(["eval", f, "--assign", "x=1/2,X={1/2,3}"]) == 2  # y unbound


def test_eval_rejects_deep_nesting(tmp_path, capsys):
    parens = write(tmp_path, "parens.wmso", "(" * 3000 + "x < y" + ")" * 3000)
    assert main(["eval", parens, "--assign", "x=0,y=1"]) == 2
    assert "nested deeper" in capsys.readouterr().err
    chain = write(tmp_path, "chain.wmso", " & ".join(["x < y"] * 3000))
    assert main(["eval", chain, "--assign", "x=0,y=1"]) == 2
    assert "nested deeper" in capsys.readouterr().err
    shallow = write(tmp_path, "shallow.wmso", "~" * 90 + "(x < y)")
    assert main(["eval", shallow, "--assign", "x=0,y=1"]) == 0


def test_eval_cap_too_small(tmp_path, capsys):
    """`eval` is exact and takes no cap; an unbound variable is an input
    error, reported without a traceback."""
    f = write(tmp_path, "f.wmso", "EX Ax (x in X)")
    with pytest.raises(SystemExit) as refused:
        main(["eval", f, "--cap", "1000000"])
    assert refused.value.code == 2
    assert "--cap" in capsys.readouterr().err
    open_f = write(tmp_path, "open.wmso", "x < y")
    assert main(["eval", open_f, "--assign", "x=0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unbound point variable y" in err
    assert "Traceback" not in err


def test_translate_and_roundtrip(tmp_path, capsys):
    f = write(tmp_path, "s.wmso", "Ax Ey (x < y)\nEX Ax ~(x in X)\n")
    assert main(["translate", f]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and all(line.startswith("Ep (cof(p)") for line in out)
    assert main(["translate", f, "--expand", "2"]) == 0
    assert "disj(" in capsys.readouterr().out
    assert main(["roundtrip", f]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("ok\t") for line in lines)


def test_encode_commands(capsys):
    assert main(["encode-rational", "3/2"]) == 0
    f = parse_pl(capsys.readouterr().out.strip())
    assert P.cof_endpoint(f) == Fraction(3, 2)
    assert main(["encode-rational", "0", "--side", "left"]) == 0
    capsys.readouterr()
    assert main(["encode-set", "-1,0,2"]) == 0
    g = parse_pl(capsys.readouterr().out.strip())
    assert P.fixed_point_set(g) == (Fraction(-1), Fraction(0), Fraction(2))
    assert main(["encode-set", ""]) == 0
    empty = parse_pl(capsys.readouterr().out.strip())
    assert P.finrational_sem(empty) and P.fixed_point_set(empty) == ()
    assert main(["encode-rational", "1/0"]) == 2


def test_verify(capsys):
    assert main(["verify", "--suite", "classes8", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "classes8\t" in out
    line = [l for l in out.splitlines() if l.startswith("classes8\t")][-1]
    suite, cases, failures, wall_time = line.split("\t")
    assert int(cases) > 0 and failures == "0" and float(wall_time) >= 0


def test_verify_small_seeded_suite_is_deterministic(capsys):
    assert main(["verify", "--suite", "group-laws", "--seed", "7",
                 "--cases", "20"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "group-laws", "--seed", "7",
                 "--cases", "20"]) == 0
    second = capsys.readouterr().out
    # the fourth field, the wall time, may differ
    assert (first.splitlines()[-1].split("\t")[:3] == second.splitlines()[-1].split("\t")[:3]
            == ["group-laws", "20", "0"])


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "group-laws", "--cases", "-1"],
    ["verify", "--suite", "discrepancy", "--cases", "-4"],
])
def test_verify_refuses_a_negative_case_count(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_reports_a_cont_degeneracy_that_does_not_reproduce(capsys, monkeypatch):
    """Were the literal cont macro read like its oracle, the discrepancy
    suite reports the lost finding as a failure; it does not raise.  It
    reads the {0, 1} grid here, criterion 9 the full one."""
    literal = P.literal
    monkeypatch.setattr(P, "literal", lambda macro, args: (
        P.cont_sem(*args) if macro == "cont" else literal(macro, args)))
    monkeypatch.setattr(P, "DISCREPANCY_GRID", (0, 1))
    assert main(["verify", "--suite", "discrepancy"]) == 1
    assert "FAIL cont degeneracy example did not reproduce" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["Ax Ey (x < y)\n", "", "# no sentence\n\n"])
def test_translate_refuses_a_negative_expansion_depth(tmp_path, capsys, text):
    f = write(tmp_path, "s.wmso", text)
    assert main(["translate", f, "--expand", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("pieces", ["(1,0) junk (2,0)", "(1,0)(2,0)"])
def test_check_refuses_text_between_pieces(tmp_path, capsys, pieces):
    f = write(tmp_path, "f.pl", f"pl cuts=[0] pieces=[{pieces}]")
    assert main(["check", "cof", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def exit_code(argv) -> int:
    """What the shell sees: main's return value, or argparse's exit code."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


# text near the map and rational syntax, so that the fuzz reaches the parsers
fuzz_text = st.lists(st.one_of(
    st.sampled_from(["pl", "id", " ", "cuts=[", "pieces=[", "]", "(", ")", ",",
                     "/", "-", "0", "1", "2", "1/2", "e5", ".5", "\n", "junk"]),
    st.text(max_size=3)), max_size=14).map("".join)


@given(fuzz_text)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes_on_random_text(tmp_path, capsys, text):
    path = tmp_path / "fuzz.pl"
    path.write_text(text, encoding="utf-8", errors="replace")
    assert exit_code(["check", "cof", str(path)]) in (0, 1, 2)
    assert exit_code(["encode-rational", "--", text]) in (0, 1, 2)
    capsys.readouterr()


# prefixes and atoms of the formula syntax, joined by one connective, so that
# many inputs parse and some are sentences
formula_text = st.tuples(
    st.lists(st.sampled_from(["Ex", "Ay", "EX", "AY", "~", "("]), max_size=3),
    st.lists(st.sampled_from(["x < y", "y = x", "x in X", "y in Y", "in < x"]),
             min_size=1, max_size=3),
    st.sampled_from(["&", "|", "->", "<->", "& ~", ") &", "$", "\n"]),
).map(lambda t: " ".join(t[0]) + " " + f" {t[2]} ".join(t[1]))
# words of the assignment and set syntax
list_text = st.lists(st.sampled_from(
    ["x", "X", "y'", "=", ",", "{", "}", "0", "1", "-1", "1/2", "/", " ", "$"]),
    max_size=10).map("".join)


@given(formula_text, list_text)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_codes_on_random_formulas(tmp_path, capsys, text, items):
    path = tmp_path / "fuzz.wmso"
    path.write_text(text)
    for argv in (["eval", str(path)], ["eval", str(path), f"--assign={items}"],
                 ["encode-set", items], ["translate", str(path)],
                 ["roundtrip", str(path)]):
        assert exit_code(argv) in (0, 1, 2), argv
    capsys.readouterr()


@pytest.mark.parametrize("assign, item", [
    ("x=1,X=1", "X=1"),             # a point bound to a set variable
    ("x={1},X={1}", "x={1}"),       # a set bound to a point variable
    ("X={1}, y = {2} ,", "y = {2}"),
])
def test_eval_refuses_a_binding_of_the_wrong_sort(tmp_path, capsys, assign, item):
    f = write(tmp_path, "open.wmso", "x in X")
    assert main(["eval", f, "--assign", assign]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(item) in err
    assert "unbound" not in err


def test_a_closed_stdout_is_not_bad_input():
    """A reader that went away before the output is written (`qwi ... | true`)
    gets exit code 141, as for a process killed by SIGPIPE, and no message;
    unreadable input still exits 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = [sys.executable, "-m", "qwi.cli", "translate"]
    try:
        done = subprocess.run(run + [str(ROOT / "src/qwi/data/corpus.txt")],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
    done = subprocess.run(run + [str(ROOT / "no such file")], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 2 and done.stderr.startswith("error:")
