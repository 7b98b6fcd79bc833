import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qwi import predicates as P
from qwi.corpus import load_corpus
from qwi.formulas import (
    EqPt, Exists, GAtom, Mem, expand, parse_group, parse_wmso, print_group,
)
from qwi.interp import (
    InterpError, _decompile, encode_finite_set, encode_rational, pullback_eval,
    roundtrip_check, translate,
)
from qwi.numbers import NEG_INF, POS_INF, is_finite

from helpers import encode_finite_set_alt
from test_differential import _sentences

rationals = st.fractions(max_denominator=24)
finite_sets = st.frozensets(rationals, max_size=5)


@given(rationals)
def test_encode_rational_is_cofinal_and_decodes(q):
    for side in ("left", "right"):
        f = encode_rational(q, side)
        assert P.rational_sem(f)
        assert P.cof_endpoint(f) == q
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


def _atoms(psi):
    if isinstance(psi, GAtom):
        yield psi.name
    for attr in ("a", "b", "sub", "body"):
        if hasattr(psi, attr):
            yield from _atoms(getattr(psi, attr))


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
    ]:
        with pytest.raises(InterpError):
            pullback_eval(parse_group(text))
    with pytest.raises(InterpError, match="outside the translated fragment"):
        pullback_eval(parse_wmso("Ax (x = x)"))  # an order quantifier


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
    from qwi.wmso import decide
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
