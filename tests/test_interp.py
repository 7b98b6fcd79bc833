import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from qwi import predicates as P
from qwi.corpus import load_corpus
from qwi.formulas import (
    And, EqPt, Exists, Forall, GAtom, GVar, Mem, One, TermEq, expand, parse_group,
    parse_wmso, print_group,
)
from qwi.interp import (
    InterpError, _decompile, encode_finite_set, encode_rational, pullback_eval,
    roundtrip_check, translate,
)
from qwi.numbers import NEG_INF, POS_INF, is_finite
from qwi.wmso import decide

from helpers import cof_endpoint, encode_finite_set_alt
from test_differential import _sentences

rationals = st.fractions(max_denominator=24)
finite_sets = st.frozensets(rationals, max_size=5)


@given(rationals)
def test_encode_rational_is_cofinal_and_decodes(q):
    for side in ("left", "right"):
        f = encode_rational(q, side)
        assert P.rational_sem(f)
        assert cof_endpoint(f) == q
    (iv, _), = encode_rational(q, "right").signed_support()
    assert is_finite(iv.lo) and iv.hi is POS_INF
    (iv, _), = encode_rational(q, "left").signed_support()
    assert iv.lo is NEG_INF and is_finite(iv.hi)


@given(rationals, rationals)
def test_codesame_identifies_exactly_equal_rationals(p, q):
    fp = encode_rational(p, "left")
    fq = encode_rational(q, "right")
    assert P.codesame_sem(fp, fq) == (p == q)


@given(finite_sets)
@settings(max_examples=60)
def test_encode_finite_set_variants(S):
    for enc in (encode_finite_set, encode_finite_set_alt):
        g = enc(S)
        assert P.finrational_sem(g)
        assert P.fixed_point_set(g) == tuple(sorted(S))
    assert P.sameset_sem(encode_finite_set(S), encode_finite_set_alt(S))


def test_empty_set_encodings():
    assert P.finrational_sem(encode_finite_set([]))
    assert P.fixed_point_set(encode_finite_set([])) == ()
    assert P.sameset_sem(encode_finite_set([]), encode_finite_set_alt([]))


@given(finite_sets, rationals)
@settings(max_examples=60)
def test_membership_fidelity(S, q):
    for enc in (encode_finite_set, encode_finite_set_alt):
        g = enc(S)
        for side in ("left", "right"):
            assert P.member_sem(encode_rational(q, side), g) == (q in S)


def test_translate_shape():
    psi = translate(parse_wmso("Ax Ey (x < y)"))
    assert isinstance(psi, Exists)  # the orientation prefix Ep (cof(p) & ...)
    body = psi.body
    assert isinstance(body.a, GAtom) and body.a.name == "cof"
    text = print_group(psi)
    assert "rational(" in text and "codesame(" in text
    with pytest.raises(InterpError):
        translate(parse_wmso("x < y"))  # open formulas are not sentences


@pytest.mark.parametrize("phi", [
    Exists("s", Exists("x", Mem("x", "s"))),  # a lowercase set
    Exists("X", Exists("x", EqPt("x", "X"))),  # an uppercase point
    Exists("X", Exists("Y", Mem("X", "Y"))),
])
def test_translate_refuses_a_variable_of_the_wrong_sort(phi):
    """The case of a name is its sort, and each atom position has one."""
    with pytest.raises(InterpError, match="wrong sort"):
        translate(phi)


def test_translate_is_deterministic():
    phi = parse_wmso("Ax Ay (x < y -> Ez (x < z & z < y))")
    first = print_group(translate(phi))
    assert "Elf_0 (codesame(lf_0,f_x) & (Elg_1 (codesame(lg_1,f_y)" in first
    assert "Elf_4 (codesame(lf_4,f_z) & (Elg_5 (codesame(lg_5,f_y)" in first
    assert print_group(translate(phi)) == first
    expanded = print_group(expand(translate(phi), 1))
    assert print_group(expand(translate(phi), 1)) == expanded


#: sha256 of print_group(expand(translate(φ), d)) for each corpus sentence
#: and d = 0..3 in turn, one output a line, as recorded before the order
#: schema and the macros were filled in by `instantiate`.
EXPANDED_CORPUS_SHA256 = "2aa025b2baeb39cb1981054f100137c28e868d8bf4cb5d01503f8a8088ce1a9a"


def test_expanded_translations_of_the_corpus_are_pinned():
    out = "\n".join(print_group(expand(translate(parse_wmso(text)), d))
                    for _, text, _ in load_corpus() for d in range(4))
    assert hashlib.sha256(out.encode()).hexdigest() == EXPANDED_CORPUS_SHA256


#: the fields of a formula node that hold subformulas
_CHILDREN = ("a", "b", "sub", "body")


def _subformulas(psi):
    """psi and each formula below it, in pre-order."""
    yield psi
    for attr in _CHILDREN:
        if hasattr(psi, attr):
            yield from _subformulas(getattr(psi, attr))


def _replaced(psi, old, new):
    """psi with each subformula that is the object `old` replaced by `new`."""
    if psi is old:
        return new
    return type(psi)(**{k: _replaced(v, old, new) if k in _CHILDREN else v
                        for k, v in vars(psi).items()})


def _atoms(psi):
    return (s.name for s in _subformulas(psi) if isinstance(s, GAtom))


def test_translate_uses_membership_schema():
    psi = translate(parse_wmso("Ex EX (x in X)"))
    text = print_group(psi)
    assert "finrational(" in text
    assert "codesame(f_x,(g_X*f_x)*g_X^-1)" in text
    assert "oppsupport(" not in text and "fm_" not in text
    # every compiled atom has a schema or is primitive
    assert set(_atoms(expand(psi, 12))) <= {
        "comp", "apart", "bump", "orbital", "disj", "rational",
    }


def test_pullback_rejects_foreign_formulas():
    for text in [
        "Ax comp(x)",
        "Ep (cof(p) & Ex ((rational(x) & comp(x)) & x = x))",  # the guard must lead alone
        "Ep (cof(p) & Ex (cof(p) & x = x))",                   # and must mention x
        "Ep (cof(p) & Ax (rational(x) & x = x))",              # a ∀ guard implies its body
        "Ep (cof(p) & Ew (oppsupport(p,w) & cof(w)))",         # not a guard kind
        # a set quantifier's body must decompile to an order formula
        "Ep (cof(p) & Eg_X (finrational(g_X) & Ef_x (rational(f_x) & comp(f_x))))",
        "Ep (cof(p) & Eg_X (finrational(g_X) & Ex (rational(x) & codesame(x,x))))",
        "Ep (cof(p) & Eg_X (finrational(g_X) & Ef_x (rational(f_x)"
        " & codesame(f_x,(g_X*f_x)*f_x^-1))))",
        "Eg_X (finrational(g_X) & Ef_x (rational(f_x) & codesame(f_x,f_x)))",  # no ∃p
        # the body reads a point that a non-coding guard bound
        "Ep (cof(p) & Ef_x (cof(f_x) & Eabx (rational(abx) & Eg_X (finrational(g_X)"
        " & codesame(f_x,(g_X*f_x)*g_X^-1)))))",
        "Ep (cof(p) & Eq (cof(q) & ~codesame(q,p)))",  # true, but q is no coded point
        "Ep (cof(p) & p = 1)",
    ]:
        with pytest.raises(InterpError):
            pullback_eval(parse_group(text))
    # a cof atom of two arguments, which the parser refuses, inside a compiled <
    less = translate(parse_wmso("Ex Ey (x < y)"))
    cont, = (s for s in _subformulas(less) if s == GAtom("cont", (GVar("lg_1"), GVar("lf_0"))))
    with pytest.raises(InterpError):
        pullback_eval(_replaced(less, cont, GAtom("cof", (GVar("lf_0"), GVar("lg_1")))))
    with pytest.raises(InterpError, match="outside the translated fragment"):
        pullback_eval(parse_wmso("Ax (x = x)"))  # an order quantifier


def test_pullback_answers_each_mutant_exactly_or_refuses_it():
    """Mutants of compiled sentences, built as ASTs so that no parser check
    screens them: a subformula swapped for one of another sentence, a
    quantifier's variable renamed, an atom renamed, or `v = 1` joined to a
    subformula.  Each is refused with InterpError, or answered with the
    truth of the order sentence it decompiles to."""
    rnd = random.Random("pullback-mutants:1")
    texts = [text for _, text, _ in load_corpus()] + _sentences(0, 60)
    compiled = [translate(parse_wmso(text)) for text in texts]
    answered = refused = 0
    for _ in range(1500):
        psi = rnd.choice(compiled)
        subs = list(_subformulas(psi))
        quants = [s for s in subs if type(s) in (Exists, Forall)]
        names = sorted({q.var for q in quants})
        kind = rnd.randrange(4)
        if kind == 0:
            old, new = rnd.choice(subs), rnd.choice(list(_subformulas(rnd.choice(compiled))))
        elif kind == 1:
            old = rnd.choice(quants)
            new = dataclasses.replace(old, var=rnd.choice(names))
        elif kind == 2:
            old = rnd.choice([s for s in subs if isinstance(s, GAtom)])
            new = dataclasses.replace(old, name=rnd.choice(sorted(P.ORACLES)))
        else:
            old = rnd.choice(subs)
            new = And(old, TermEq(GVar(rnd.choice(names)), One()))
        mutant = _replaced(psi, old, new)
        try:
            got = pullback_eval(mutant)
        except InterpError:
            refused += 1
            continue
        assert got == decide(_decompile(mutant.body.b)), print_group(mutant)
        answered += 1
    assert answered > 50 and refused > 1000


def test_decompile_inverts_translate():
    """Decompiling the body under the orientation prefix gives back the
    order formula itself, over its own names."""
    for text in [text for _, text, _ in load_corpus()] + _sentences(0, 200):
        phi = parse_wmso(text)
        assert _decompile(translate(phi).body.b) == phi, text


def test_compiled_corpus_survives_print_and_parse():
    for truth, text, _ in load_corpus():
        psi = translate(parse_wmso(text))
        parsed = parse_group(print_group(psi))
        assert parsed == psi, text
        assert pullback_eval(parsed, orientation="right") == truth, text
        assert pullback_eval(parsed, orientation="left") == truth, text


@pytest.mark.parametrize("text,expected", [
    ("Ax Ey (x < y)", True),
    ("Ex Ay ~(y < x)", False),
    ("EX Ax (x in X)", False),
    ("Ex EX (x in X)", True),
    ("Ax Ay (x < y -> Ez (x < z & z < y))", True),
    ("Ex ((Ex (x = x)) & x = x)", True),  # the inner x shadows the outer one
])
def test_roundtrip_examples(text, expected):
    phi = parse_wmso(text)
    assert decide(phi) == expected
    assert roundtrip_check(phi)


@pytest.mark.parametrize("orientation", ["up", "", "Right"])
def test_pullback_refuses_an_unknown_orientation(orientation):
    psi = translate(parse_wmso("Ax Ey (x < y)"))
    with pytest.raises(InterpError, match="orientation must be"):
        pullback_eval(psi, orientation=orientation)


def test_orientation_robustness_on_sample():
    for text in ["Ax Ey (x < y)", "Ex Ay ~(y < x)",
                 "AX Ey Ax (x in X -> x < y)"]:
        psi = translate(parse_wmso(text))
        assert pullback_eval(psi, orientation="right") == \
            pullback_eval(psi, orientation="left")


def test_pullback_does_not_depend_on_call_history():
    compiled = [translate(parse_wmso(text)) for _, text, _ in load_corpus()[:8]]
    right_first = [(pullback_eval(psi, orientation="right"),
                    pullback_eval(psi, orientation="left")) for psi in compiled]
    left_first = [(pullback_eval(psi, orientation="left"),
                   pullback_eval(psi, orientation="right"))[::-1] for psi in compiled]
    assert left_first == right_first
    assert [pullback_eval(psi) for psi in compiled] == \
        [pullback_eval(psi) for psi in compiled]
