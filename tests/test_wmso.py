from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qwi.wmso
from qwi.corpus import load_corpus
from qwi.formulas import (
    And, EqPt, Exists, Forall, FormulaError, Less, Mem, Not, parse_group,
    parse_wmso,
)
from qwi.interp import InterpError, translate
from qwi.numbers import NEG_INF, POS_INF, QInterval
from qwi.wmso import (
    Assignment, automaton, brute_eval, decide, eval as wmso_eval,
    gaps_of, point_candidates,
)

from helpers import EMPTY, qdepth

rationals = st.fractions(max_denominator=30)

POOL = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
        Fraction(1), Fraction(3)]


def test_assignment_landmarks():
    a = EMPTY.with_point("x", Fraction(1)).with_set("X", [Fraction(0), Fraction(2)])
    assert a.landmarks() == [Fraction(0), Fraction(1), Fraction(2)]
    assert a.sets["X"] == (Fraction(0), Fraction(2))
    # duplicates collapse
    b = a.with_set("Y", [Fraction(1), Fraction(1)])
    assert b.sets["Y"] == (Fraction(1),)


def test_gaps_of():
    gaps = gaps_of([Fraction(0), Fraction(1)])
    assert gaps == [QInterval(NEG_INF, Fraction(0)),
                    QInterval(Fraction(0), Fraction(1)),
                    QInterval(Fraction(1), POS_INF)]


def test_point_candidates_cover_each_gap():
    a = EMPTY.with_point("x", Fraction(0))
    cands = point_candidates(a)
    assert Fraction(0) in cands
    assert any(q < 0 for q in cands) and any(q > 0 for q in cands)


def test_eval_rejects_free_and_unbound_vars():
    with pytest.raises(FormulaError):
        decide(parse_wmso("x < y"))
    with pytest.raises(FormulaError, match="unbound point variable y"):
        wmso_eval(parse_wmso("x < y"), EMPTY.with_point("x", Fraction(0)))
    with pytest.raises(FormulaError, match="unbound set variable X"):
        wmso_eval(parse_wmso("x in X"), EMPTY.with_point("x", Fraction(0)))
    with pytest.raises(FormulaError, match="unbound point variable x"):  # bound as a set
        wmso_eval(parse_wmso("x in X"), EMPTY.with_set("x", []).with_set("X", []))


def test_brute_eval_rejects_a_group_atom():
    with pytest.raises(FormulaError, match="not a formula over"):
        brute_eval(parse_group("Ax x = x"), Assignment(), [])


def test_both_deciders_read_one_quantifier_node_for_both_sorts():
    phi = Exists("X", Forall("x", Mem("x", "X")))  # no finite set holds ℚ
    assert brute_eval(phi, EMPTY, POOL) is decide(phi) is False


ILL_SORTED = [
    Exists("s", Exists("x", Exists("y", And(
        Not(EqPt("x", "y")), And(Mem("x", "s"), Mem("y", "s")))))),
    Exists("X", Exists("y", Less("X", "y"))),
    Exists("X", Exists("y", EqPt("y", "X"))),
    Exists("X", Exists("Y", Mem("X", "Y"))),
]


@pytest.mark.parametrize("phi", ILL_SORTED, ids=[
    "lowercase set in in", "set in <", "set in =", "uppercase member of in"])
def test_every_decider_refuses_an_ill_sorted_atom(phi):
    """The case of a name is its sort for every decider, so none answers
    a formula whose atom reads a variable of the other sort."""
    for decider in (decide, lambda phi: wmso_eval(phi, EMPTY),
                    lambda phi: brute_eval(phi, EMPTY, POOL)):
        with pytest.raises(FormulaError, match="wrong sort"):
            decider(phi)
    with pytest.raises(InterpError, match="wrong sort"):
        translate(phi)


def test_eval_with_assignment():
    less = parse_wmso("x < y")
    a = EMPTY.with_point("x", Fraction(0)).with_point("y", Fraction(1))
    assert wmso_eval(less, a)
    assert not wmso_eval(less, EMPTY.with_point("x", Fraction(1))
                         .with_point("y", Fraction(0)))
    member = parse_wmso("x in X")
    b = EMPTY.with_point("x", Fraction(2)).with_set("X", [Fraction(2)])
    assert wmso_eval(member, b)
    assert not wmso_eval(member, b.with_set("X", [Fraction(1), Fraction(3)]))


def test_extensionality_of_finite_sets():
    phi = parse_wmso(
        "AX AY (((Ax (x in X)) <-> (Ax (x in Y)))"
        " | (Ex ((x in X & ~(x in Y)) | (x in Y & ~(x in X)))))")
    assert decide(phi)


def test_decide_does_not_depend_on_call_history():
    """Deciding the corpus twice, in opposite orders, gives equal answers
    and leaves the module's globals as they were: no cache grows."""
    def snapshot():
        return {k: repr(v) for k, v in vars(qwi.wmso).items() if not k.startswith("__")}
    before = snapshot()
    sentences = [parse_wmso(text) for _, text, _ in load_corpus()]
    forward = [decide(phi) for phi in sentences]
    backward = [decide(phi) for phi in reversed(sentences)][::-1]
    assert forward == backward == [truth for truth, _, _ in load_corpus()]
    assert snapshot() == before


def test_automata_are_minimal_and_small():
    assert len(automaton(parse_wmso("x < y")).accept) == 4
    assert len(automaton(parse_wmso("x = y")).accept) == 3
    assert len(automaton(parse_wmso("x in X")).accept) == 3
    # "X has at least n elements" has n + 1 states
    at_least_3 = parse_wmso("Ex Ey Ez (x < y & y < z & x in X & y in X & z in X)")
    assert len(automaton(at_least_3).accept) == 4


def test_corpus_brute_agreement_small_depth():
    for truth, text, note in load_corpus():
        phi = parse_wmso(text)
        if qdepth(phi) <= 3:
            assert brute_eval(phi, EMPTY, POOL) == truth, text


def test_corpus_is_large_and_balanced():
    entries = load_corpus()
    assert len(entries) >= 20
    truths = [t for t, _, _ in entries]
    assert True in truths and False in truths


@given(rationals, rationals)
@settings(max_examples=30)
def test_open_formulas_respect_order(a, b):
    phi = parse_wmso("Ez (x < z & z < y)")
    env = EMPTY.with_point("x", a).with_point("y", b)
    assert wmso_eval(phi, env) == (a < b)
