"""Three deciders of WMSO over (ℚ,<) must agree: the automaton
(`decide`), the brute-force enumerator (`brute_eval`) and the pullback of
the compiled sentence through the group, under both orientations
(`pullback_eval`).  They share one sort rule, the case of a name, read at
each atom by `formulas.relation_vars`, and no enumerator of points.  The
pullback takes the candidates of a set quantifier from the automaton of
the body, decompiled back to the order formula over its own names, so for
set quantifiers `brute_eval` is the only path independent of the
automaton.  It puts up to 2^r − 1 fresh points of a set into each gap for
a body of quantifier rank r, which its docstring proves enough for a body
without set quantifiers (see `GE_7` and `TWO_BETWEEN`)."""

import random
import re
from fractions import Fraction

import pytest

import qwi.wmso
from qwi.corpus import load_corpus
from qwi.formulas import parse_wmso, quantifier_rank
from qwi.interp import ORIENTATION_VAR, _Pullback, _rightward, pullback_eval, translate
from qwi.wmso import Assignment, brute_eval, decide, eval as wmso_eval, landmark_word

from helpers import EMPTY


def _formula(rnd, depth, pts, sets, names, set_quantifiers):
    """Text of a formula of quantifier depth at most `depth` whose free
    variables are among pts and sets.  At most `set_quantifiers` set
    quantifiers occur, anywhere, also under point quantifiers."""
    if pts and (depth == 0 or rnd.random() < 0.1):
        x = rnd.choice(pts)
        r = rnd.random()
        if sets and r < 0.4:
            return f"{x} in {rnd.choice(sets)}"
        return f"{x} {'<' if r < 0.8 else '='} {rnd.choice(pts)}"
    if pts and rnd.random() < 0.3:
        op = rnd.choice(["&", "|", "->", "<->"])
        a = _formula(rnd, depth, pts, sets, names, set_quantifiers)
        b = _formula(rnd, rnd.randint(0, depth), pts, sets, names, 0)
        return f"({a}) {op} ({b})"
    if rnd.random() < 0.3:
        return f"~({_formula(rnd, depth, pts, sets, names, set_quantifiers)})"
    q = rnd.choice("AE")
    if set_quantifiers and (pts or depth > 1) and rnd.random() < 0.4:
        var = f"S{next(names)}"
        body = _formula(rnd, depth - 1, pts, sets + [var], names, set_quantifiers - 1)
    else:
        var = f"x{next(names)}"
        body = _formula(rnd, depth - 1, pts + [var], sets, names, set_quantifiers)
    return f"{q}{var} ({body})"


def _sentences(seed, n):
    rnd = random.Random(f"differential:{seed}")
    return [_formula(rnd, 1 + i % 4, [], [], iter(range(1, 99)), 1) for i in range(n)]


def test_automaton_brute_force_and_pullback_agree_on_random_sentences():
    texts = _sentences(0, 200)
    # every point quantifier scopes over the rest of the text after it
    assert sum(bool(re.search(r"[AE]x\d+ .*[AE]S\d+", t)) for t in texts) >= 10
    sentences = [parse_wmso(text) for text in texts]
    seen = {(quantifier_rank(phi), decide(phi)) for phi in sentences}
    assert {d for d, _ in seen} == {1, 2, 3, 4} and {t for _, t in seen} == {True, False}
    for phi in sentences:
        truth = decide(phi)
        assert brute_eval(phi, EMPTY) == truth, phi
        psi = translate(phi)
        assert pullback_eval(psi, orientation="right") == truth, phi
        assert pullback_eval(psi, orientation="left") == truth, phi


def test_brute_force_agrees_with_the_automaton_on_open_formulas():
    """On formulas with free a, b and A, under two seeded assignments each,
    `brute_eval` reads what the automaton reads on the landmark word."""
    rnd = random.Random("differential:open")
    points = [Fraction(n, 2) for n in range(-2, 5)]
    seen = set()
    for i in range(150):
        phi = parse_wmso(_formula(rnd, 1 + i % 2, ["a", "b"], ["A"], iter(range(1, 99)), 1))
        for _ in range(2):
            a = (Assignment({"a": rnd.choice(points), "b": rnd.choice(points)})
                 .with_set("A", rnd.sample(points, rnd.randint(0, 3))))
            truth = wmso_eval(phi, a)
            assert brute_eval(phi, a) == truth, (phi, a)
            seen.add(truth)
    assert seen == {True, False}


GE_7 = ("EX Ea (a in X & (Eb (b < a & b in X & (Ec (c < b & c in X))"
        " & (Ec (b < c & c < a & c in X)))) & (Eb (a < b & b in X"
        " & (Ec (a < c & c < b & c in X)) & (Ec (b < c & c in X)))))")


GE_15 = ("EX Ea (a in X & (Eb (b < a & b in X & (Ec (c < b & c in X"
         " & (Ed (d < c & d in X)) & (Ed (c < d & d < b & d in X))))"
         " & (Ec (b < c & c < a & c in X & (Ed (b < d & d < c & d in X))"
         " & (Ed (c < d & d < a & d in X)))))) & (Eb (a < b & b in X"
         " & (Ec (a < c & c < b & c in X & (Ed (a < d & d < c & d in X))"
         " & (Ed (c < d & d < b & d in X)))) & (Ec (b < c & c in X"
         " & (Ed (b < d & d < c & d in X)) & (Ed (c < d & d in X)))))))")


NAMED = [
    GE_7,
    GE_15,
    "AX AY EZ Ax (x in Z <-> (x in X | x in Y))",     # unions
    "AX AY EZ Ax (x in Z <-> (x in X & ~(x in Y)))",  # differences
]


@pytest.mark.parametrize("text", NAMED)
def test_named_sentences_are_true(text):
    phi = parse_wmso(text)
    assert decide(phi)
    psi = translate(phi)
    assert pullback_eval(psi, orientation="right")
    assert pullback_eval(psi, orientation="left")


def test_brute_force_reaches_seven_elements(monkeypatch):
    """GE_7's set quantifier has a body of rank 3, so `brute_eval` tries up
    to 2^3 − 1 = 7 fresh members, which is enough, and 6 is not."""
    phi = parse_wmso(GE_7)
    assert quantifier_rank(phi.body) == 3
    assert brute_eval(phi, EMPTY)
    monkeypatch.setattr(qwi.wmso, "fresh_per_gap", lambda rank: 2 ** rank - 2)
    assert not brute_eval(phi, EMPTY)


def test_brute_force_reaches_fifteen_elements():
    assert brute_eval(parse_wmso(GE_15), EMPTY)


#: True: any two points have two set members between them.  x and y take
#: the fresh points 0 and 1, so a set needs two fresh members in the gap
#: between them: one fresh point per gap reads the sentence False.
TWO_BETWEEN = "Ax Ay (x < y -> EX (Eu Ev (x < u & u < v & v < y & u in X & v in X)))"
NOT_TWO_BETWEEN = "Ex Ey (x < y & ~(EX (Eu Ev (x < u & u < v & v < y & u in X & v in X))))"


@pytest.mark.parametrize("text, truth", [(TWO_BETWEEN, True), (NOT_TWO_BETWEEN, False)])
def test_two_set_members_between_any_two_points(text, truth):
    phi = parse_wmso(text)
    assert decide(phi) == truth
    psi = translate(phi)
    assert pullback_eval(psi, orientation="right") == truth
    assert pullback_eval(psi, orientation="left") == truth


@pytest.mark.parametrize("text, truth", [(TWO_BETWEEN, True), (NOT_TWO_BETWEEN, False)])
def test_brute_force_reads_two_set_members_between_any_two_points(text, truth):
    assert brute_eval(parse_wmso(text), EMPTY) == truth


def test_one_fresh_point_per_gap_misses_two_set_members_between(monkeypatch):
    monkeypatch.setattr(qwi.wmso, "fresh_per_gap", lambda rank: 1)
    assert not brute_eval(parse_wmso(TWO_BETWEEN), EMPTY)


ORIENTED = [
    # a pair set omits some point between its members
    "Ax Ay (x < y -> EX (x in X & y in X & Ez (x < z & z < y & ~(z in X))))",
    # below any point, a set has two points: both fresh, in the first gap
    "Ax EX (Eu Ev (u < v & v < x & u in X & v in X))",
]


@pytest.mark.parametrize("text", ORIENTED)
def test_set_candidates_follow_the_orientation(text):
    """Under the left orientation the landmarks are read right to left, and
    so are the gaps that fresh points of a set candidate go into."""
    psi = translate(parse_wmso(text))
    assert pullback_eval(psi, orientation="left")
    assert pullback_eval(psi, orientation="right")


def test_set_candidates_end_in_distinct_states(monkeypatch):
    """Each set candidate, with the landmarks read in the orientation's
    direction, ends the body's automaton in a state of its own.  The walk
    keeps one set per reachable end state, so then every reachable end
    state is met, and the family is complete."""
    walk, distinct = _Pullback.set_candidates, []

    def checked(self, phi):
        out = walk(self, phi)
        dfa, left = self.automata[id(phi)], not _rightward(self.env[ORIENTATION_VAR])
        # the automaton of the decompiled body reads x for f_x and X for g_X
        a = Assignment({v[2:]: q for v, q in self.a.points.items()},
                       {v[2:]: s for v, s in self.a.sets.items()})
        ends = [dfa.run(landmark_word(dfa, a.with_set(phi.var[2:], s), descending=left)[1])
                for s in out]
        distinct.append(len(set(ends)) == len(ends))
        return out
    monkeypatch.setattr(_Pullback, "set_candidates", checked)
    texts = [text for _, text, _ in load_corpus()] + NAMED + ORIENTED + _sentences(0, 200)
    for text in texts:
        psi = translate(parse_wmso(text))
        for orientation in ("right", "left"):
            pullback_eval(psi, orientation)
    assert len(distinct) > 200 and all(distinct), distinct.count(False)
