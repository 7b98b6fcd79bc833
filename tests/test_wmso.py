import operator
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

import qwi.wmso
from qwi.corpus import load_corpus
from qwi.formulas import (
    _BINARY, QUANTIFIERS, And, EqPt, Exists, Forall, Formula, FormulaError,
    Less, Mem, Not, is_set_var, parse_group, parse_wmso, quantifier_rank, relation_vars,
)
from qwi.interp import InterpError, translate
from qwi.numbers import NEG_INF, POS_INF, QInterval, spread
from qwi.wmso import (
    _CONNECTIVES, Assignment, Dfa, _Brute, _complement, _explore, _pattern, _product,
    automaton, brute_eval, decide, eval as wmso_eval, gaps_of, point_candidates,
)

from helpers import EMPTY, deadline, memory_limit
from test_differential import _sentences

rationals = st.fractions(max_denominator=30)


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
        brute_eval(parse_group("Ax x = x"), Assignment())


def test_both_deciders_read_one_quantifier_node_for_both_sorts():
    phi = Exists("X", Forall("x", Mem("x", "X")))  # no finite set holds ℚ
    assert brute_eval(phi, EMPTY) is decide(phi) is False


def test_brute_force_yields_set_candidates_lazily():
    """At 4 landmarks a body of rank 5 meets 2^4 · 32^5 ≈ 5·10^8 candidate
    sets, and the first of them comes at once."""
    phi = parse_wmso("EX Ex1 Ex2 Ex3 Ex4 Ex5 (x5 in X)")
    assert quantifier_rank(phi.body) == 5
    brute = _Brute(Assignment({v: Fraction(i) for i, v in enumerate("abcd")}))
    with deadline(1):
        _, candidates = brute.bind(phi)
        assert next(iter(candidates)) == ()


def test_brute_force_spreads_many_fresh_points_cheaply():
    """At 4 landmarks a body of rank 14 takes 2^14 − 1 fresh points in each
    of the 5 gaps, evenly spaced, so each costs a few bits; points halved
    toward a gap's end cost O(4^r) bits, 1.4 s and 158 MB at this rank on
    a 2-CPU host."""
    phi = parse_wmso("EX " + " ".join(f"Ex{i}" for i in range(1, 15)) + " (x14 in X)")
    assert quantifier_rank(phi.body) == 14
    brute = _Brute(Assignment({v: Fraction(i) for i, v in enumerate("abcd")}))
    with deadline(1), memory_limit(100):
        _, candidates = brute.bind(phi)
        assert next(iter(candidates)) == ()


@pytest.mark.parametrize("lo, hi", [
    (Fraction(-1, 3), Fraction(5, 7)), (Fraction(2), POS_INF), (NEG_INF, Fraction(-3)),
    (NEG_INF, POS_INF)])
def test_spread_points_increase_inside_the_gap(lo, hi):
    points = spread(QInterval(lo, hi), 7)
    assert len(points) == 7 and lo < points[0]
    assert all(p < q for p, q in zip(points, points[1:])) and points[-1] < hi


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
                    lambda phi: brute_eval(phi, EMPTY)):
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
        if quantifier_rank(phi) <= 3:
            assert brute_eval(phi, EMPTY) == truth, text


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


# ---------------------------------------------------------------------------
# the construction without miniscoping, as a reference
# ---------------------------------------------------------------------------

def _atom(phi: Formula) -> Dfa:
    x, y = relation_vars(phi)
    vars = tuple(dict.fromkeys((x, y)))
    bx, by = 1 << vars.index(x), 1 << vars.index(y)
    if type(phi) is Mem:  # x occurs once, on a letter that carries X
        return _pattern(vars, bx, [bx | by])
    return _pattern(vars, bx | by, [bx, by] if type(phi) is Less else [bx | by])


def _project(a: Dfa, var: str) -> Dfa:
    """∃var over a: the subset construction, with the letter of `var` alone
    as an ε-move."""
    i = a.vars.index(var)
    eps, low = 1 << i, (1 << i) - 1
    delta = a.delta

    def close(states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        todo = list(seen)
        while todo:
            t = delta[todo.pop()][eps]
            if t not in seen:
                seen.add(t)
                todo.append(t)
        return frozenset(seen)

    def step(S, b):
        x = (b & low) | (b & ~low) << 1  # b with a 0 inserted at bit i
        return close([delta[s][x] for s in S] + [delta[s][x | eps] for s in S])
    return _explore(a.vars[:i] + a.vars[i + 1:], close([0]), step,
                    lambda S: any(a.accept[s] for s in S))


def _exists(var: str, body: Dfa) -> Dfa:
    if var not in body.vars:  # ℚ is nonempty, and ∅ is a finite set
        return body
    if not is_set_var(var):  # a point occurs exactly once
        body = _product(body, _pattern((var,), 1, [1]), operator.and_)
    return _project(body, var)


def reference_automaton(phi: Formula) -> Dfa:
    """The minimal DFA of phi, each quantifier projected where it stands,
    over every letter of its whole body."""
    t = type(phi)
    if t is Not:
        return _complement(reference_automaton(phi.sub))
    if t in _CONNECTIVES:
        return _product(reference_automaton(phi.a), reference_automaton(phi.b), _CONNECTIVES[t])
    if t is Exists:
        return _exists(phi.var, reference_automaton(phi.body))
    if t is Forall:
        return _complement(_exists(phi.var, _complement(reference_automaton(phi.body))))
    return _atom(phi)


def _subformulas(phi: Formula):
    yield phi
    t = type(phi)
    subs = (phi.sub,) if t is Not else (phi.a, phi.b) if t in _BINARY else (
        (phi.body,) if t in QUANTIFIERS else ())
    for sub in subs:
        yield from _subformulas(sub)


def _chain(k: int, cycle: bool = False) -> str:
    """Ex0 … Ex(k-1) (x0 < x1 & … & x(k-2) < x(k-1)), closed by
    x(k-1) < x0 into a cycle where `cycle`."""
    links = [f"x{i} < x{i + 1}" for i in range(k - 1)] + [f"x{k - 1} < x0"] * cycle
    return " ".join(f"Ex{i}" for i in range(k)) + f" ({' & '.join(links)})"


def _distinct(k: int) -> str:
    """k pairwise distinct points exist."""
    pairs = [f"~(x{i} = x{j})" for i in range(k) for j in range(i + 1, k)]
    return " ".join(f"Ex{i}" for i in range(k)) + f" ({' & '.join(pairs)})"


#: Open formulas that reach each rule of the miniscoping: a quantifier over
#: a negation, ∃ over an implication, ∀ into the disjuncts of one, ∀
#: across a conjunction, ∃ across a disjunction, and the same variable on
#: both sides of a relation.
SHAPES = [
    "Ex ~(x < y & y < z)",
    "Ex (x < y -> (z < x | z in Z))",
    "Ax (y < z -> (x < y | x in Z))",
    "Ax ((x < y | z < y) -> (x < z | y = z))",
    "Ax (x < y & (z < x | x = x))",
    "Ex ((x < y & z < y) | (y < x & x in Z))",
    "EX Ax (x in X -> (y < x & Ez (x < z & z in X & z < y)))",
    "Ex (x < x | y = y)",
    _chain(4), _chain(4, cycle=True), _distinct(4),
]


def test_automaton_equals_the_construction_without_miniscoping():
    """The miniscoped construction gives the very same minimal DFA, state
    numbers and variable order included, on every subformula."""
    texts = [text for _, text, _ in load_corpus()] + _sentences(0, 200) + SHAPES
    for text in texts:
        for sub in _subformulas(parse_wmso(text)):
            assert automaton(sub) == reference_automaton(sub), (text, sub)


@pytest.mark.parametrize("text, truth, bound", [
    pytest.param(_chain(12), True, 0.5, id="12-chain"),
    pytest.param(_chain(20), True, 1.0, id="20-chain"),
    pytest.param(_chain(12, cycle=True), False, 0.5, id="12-cycle"),
    pytest.param(_distinct(6), True, 5.0, id="6 pairwise distinct"),
])
def test_quantifiers_over_few_variables_each_are_cheap(text, truth, bound):
    """A chain is linear in its length once each quantifier sits on the
    links that mention it; the k = 12 chain took 0.4 s without that.
    "k pairwise distinct" stays exponential in k."""
    phi = parse_wmso(text)
    with deadline(bound):
        assert decide(phi) is truth
