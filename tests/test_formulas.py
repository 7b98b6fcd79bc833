import pytest
from hypothesis import given, settings, strategies as st

from qwi.formulas import (
    And, EqPt, Exists, ExistsPt, ExistsSet, Forall, ForallPt, ForallSet,
    FormulaError, GAtom, GVar, Iff, Implies, Inv, Less, MACROS, Mem, Mul,
    Not, One, Or, TermEq, expand, free_vars, parse_group,
    parse_wmso, print_group, print_term, print_wmso, qdepth, substitute,
)


def test_parse_wmso_basics():
    phi = parse_wmso("Ax Ey (x < y)")
    assert phi == ForallPt("x", ExistsPt("y", Less("x", "y")))
    assert parse_wmso("EX Ax (x in X)") == \
        ExistsSet("X", ForallPt("x", Mem("x", "X")))
    assert parse_wmso("x = y") == EqPt("x", "y")
    assert qdepth(phi) == 2
    assert free_vars(phi) == set()
    assert free_vars(parse_wmso("x in X")) == {"x", "X"}


def test_quantifier_prefix_scope_extends_to_the_end():
    # the quantifier captures the whole remaining subformula ...
    a = parse_wmso("Ex (x < y) & y = y")
    assert isinstance(a, ExistsPt) and isinstance(a.body, And)
    # ... unless parentheses stop it
    b = parse_wmso("(Ex (x < y)) & y = y")
    assert isinstance(b, And) and isinstance(b.a, ExistsPt)


def test_connective_precedence_and_associativity():
    phi = parse_wmso("x < y & y < z | x = z -> x = x <-> y = y")
    assert isinstance(phi, Iff)
    assert isinstance(phi.a, Implies)
    assert isinstance(phi.a.a, Or)
    assert isinstance(phi.a.a.a, And)
    # implication is right-associative
    chain = parse_wmso("x = x -> y = y -> x = y")
    assert isinstance(chain, Implies) and isinstance(chain.b, Implies)


def test_wmso_sort_errors():
    with pytest.raises(FormulaError):
        parse_wmso("X < y")  # set variable in a point position
    with pytest.raises(FormulaError):
        parse_wmso("x in y")  # point variable in a set position
    with pytest.raises(FormulaError):
        parse_wmso("Ax (x < y")  # unbalanced parenthesis
    with pytest.raises(FormulaError):
        parse_wmso("x <")


def test_parse_group_terms_and_atoms():
    phi = parse_group("Ez (disj(x,z) & y = x*z)")
    assert phi == Exists("z", And(GAtom("disj", (GVar("x"), GVar("z"))),
                                  TermEq(GVar("y"), Mul(GVar("x"), GVar("z")))))
    inv = parse_group("w*x*w^-1 = 1")
    assert inv == TermEq(Mul(Mul(GVar("w"), GVar("x")), Inv(GVar("w"))), One())
    with pytest.raises(FormulaError):
        parse_group("comp(x, y)")  # wrong arity
    with pytest.raises(FormulaError):
        parse_group("unknownatom(x)")
    with pytest.raises(FormulaError):
        parse_group("x < y")  # order atom is not group syntax


def test_gauge_is_not_group_syntax():
    # no oracle decides it, so the parser refuses it like any unknown atom
    with pytest.raises(FormulaError):
        parse_group("gauge(f,g)")


def test_print_parse_roundtrip_examples():
    texts = [
        "Ax Ey (x < y)",
        "Ax Ay ((x < y & y < x) -> x = y)",
        "EX Ax (x in X -> Ey (y < x & ~(y in X)))",
        "((Ax (x in X)) <-> (Ax (x in Y)))",
        "Ax ~(x < x)",
    ]
    for text in texts:
        phi = parse_wmso(text)
        assert parse_wmso(print_wmso(phi)) == phi
    gtexts = [
        "Ez (disj(x,z) & y = x*z)",
        "Aw ~disj(x, w*x*w^-1)",
        "bump(x) & ~coterm(x)",
        "Ep (cof(p) & (Ex (rational(x) -> codesame(x,p))))",
    ]
    for text in gtexts:
        phi = parse_group(text)
        assert parse_group(print_group(phi)) == phi


def test_printer_protects_quantified_operands():
    # a quantifier on the left of a connective must be parenthesized or the
    # reparse would swallow the right operand into its scope
    phi = And(ExistsPt("x", Less("x", "y")), EqPt("y", "y"))
    assert parse_wmso(print_wmso(phi)) == phi
    phi2 = Or(Not(ExistsPt("x", Less("x", "y"))), EqPt("y", "y"))
    assert parse_wmso(print_wmso(phi2)) == phi2


def test_print_term():
    t = Mul(Mul(GVar("w"), GVar("x")), Inv(Mul(GVar("w"), GVar("v"))))
    assert print_term(t) == "(w*x)*(w*v)^-1"
    assert parse_group(f"{print_term(t)} = 1") == TermEq(t, One())


def test_substitute_renames_capture():
    # substituting y:=x under a binder for x must rename the binder
    phi = ExistsPt("x", Less("x", "y"))
    out = substitute(phi, {"y": "x"})
    assert isinstance(out, ExistsPt)
    assert out.var != "x"
    assert out.body == Less(out.var, "x")
    # substitution leaves bound occurrences alone
    assert substitute(phi, {"x": "z"}) == phi


def test_substitute_terms():
    phi = GAtom("disj", (GVar("x"), GVar("z")))
    out = substitute(phi, {"x": Mul(GVar("w"), GVar("v"))})
    assert out == GAtom("disj", (Mul(GVar("w"), GVar("v")), GVar("z")))


@pytest.mark.parametrize("name,arity", [
    ("restr", 2), ("cont", 2), ("coterm", 1), ("cof", 1),
    ("oppsupport", 2), ("codesame", 2), ("inf", 1), ("finrational", 1),
    ("sameset", 2),
])
def test_macro_schemas_are_wellformed(name, arity):
    params, body = MACROS[name]
    assert len(params) == arity
    assert free_vars(body) <= set(params)


def test_expand_replaces_defined_atoms():
    phi = parse_group("restr(a,b)")
    once = expand(phi, 1)
    assert isinstance(once, Exists)
    assert free_vars(once) == {"a", "b"}
    # expanding further unfolds nothing here (restr's schema is primitive)
    assert expand(once, 1) == once
    deep = expand(parse_group("finrational(f)"), 4)
    assert free_vars(deep) == {"f"}
    # after enough rounds only primitive atoms remain
    def atoms(psi):
        if isinstance(psi, GAtom):
            yield psi.name
        for attr in ("a", "b", "sub", "body"):
            if hasattr(psi, attr):
                yield from atoms(getattr(psi, attr))
    assert set(atoms(expand(deep, 10))) <= {
        "comp", "apart", "bump", "orbital", "disj", "rational",
    }


def test_expand_refreshes_bound_variables():
    phi = parse_group("restr(z,b)")  # argument z collides with the schema's Ez
    out = expand(phi, 1)
    assert free_vars(out) == {"z", "b"}
    assert isinstance(out, Exists) and out.var != "z"
