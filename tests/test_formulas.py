import pytest
from hypothesis import given, settings, strategies as st

from qwi.formulas import (
    ATOM_ARITY, MAX_DEPTH, QUANTIFIERS, And, EqPt, Evaluator, Exists, Forall,
    FormulaError, GAtom, GVar, Iff, Implies, Inv, Less, MACROS, Mem, Mul, Not,
    One, Or, TermEq, _depth, expand, free_vars, is_set_var, parse_group,
    parse_wmso, print_group, print_term, print_wmso, quantifier_rank,
)


def test_parse_wmso_basics():
    phi = parse_wmso("Ax Ey (x < y)")
    assert phi == Forall("x", Exists("y", Less("x", "y")))
    assert parse_wmso("EX Ax (x in X)") == Exists("X", Forall("x", Mem("x", "X")))
    assert parse_wmso("x = y") == EqPt("x", "y")
    assert quantifier_rank(phi) == 2
    assert quantifier_rank(parse_wmso("~(EX Ex (x in X)) | Ay (y = y)")) == 2
    assert free_vars(phi) == set()
    assert free_vars(parse_wmso("x in X")) == {"x", "X"}


def test_free_vars_takes_terms_as_formulas():
    """One walk answers for a formula and for each of its terms."""
    eq = parse_group("x*y^-1 = 1")
    assert free_vars(eq.t) == free_vars(eq) == {"x", "y"}
    assert free_vars(eq.u) == set()
    atom = parse_group("Ez codesame(z, w*z*w^-1)").body
    assert [free_vars(a) for a in atom.args] == [{"z"}, {"w", "z"}]
    with pytest.raises(FormulaError, match="unknown node"):
        free_vars("x")


def test_quantifier_prefix_scope_extends_to_the_end():
    # the quantifier captures the whole remaining subformula ...
    a = parse_wmso("Ex (x < y) & y = y")
    assert isinstance(a, Exists) and isinstance(a.body, And)
    # ... unless parentheses stop it
    b = parse_wmso("(Ex (x < y)) & y = y")
    assert isinstance(b, And) and isinstance(b.a, Exists)


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


@pytest.mark.parametrize("name, is_set", [
    ("x", False), ("y1", False), ("f_x", False), ("g_X", False), ("X", True),
    ("Xs", True), ("", False),
])
def test_the_case_of_a_name_is_its_sort(name, is_set):
    assert is_set_var(name) == is_set


@pytest.mark.parametrize("text", ["in < x", "in = x", "in in X", "x < in", "x = in"])
def test_in_is_never_a_point_variable(text):
    with pytest.raises(FormulaError):
        parse_wmso(text)


@pytest.mark.parametrize("parse, text", [
    (parse_wmso, "Ein (x < y)"), (parse_wmso, "Ain (x = x)"),
    (parse_wmso, "E1 Ax (x = x)"), (parse_wmso, "E_x Ax (x = x)"),
    (parse_wmso, "E' (x = x)"), (parse_group, "Ein (x = x)"),
    (parse_group, "E1 (x = x)"),
])
def test_a_quantifier_binds_only_a_variable_name(parse, text):
    with pytest.raises(FormulaError, match="at position 1"):
        parse(text)


def test_a_bound_name_may_end_in_primes_and_digits():
    assert parse_wmso("Ex' (x' = x')") == Exists("x'", EqPt("x'", "x'"))
    assert parse_wmso("Ax1_' (x1_' = x1_')") == Forall("x1_'", EqPt("x1_'", "x1_'"))


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


_BINARY = (And, Or, Implies, Iff)


def _formulas(atoms, quantifiers):
    """Formulas over `atoms` built with every connective and each of
    `quantifiers`, a list of (class, variable strategy) pairs."""
    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            *(st.builds(c, sub, sub) for c in _BINARY),
            *(st.builds(q, var, sub) for q, var in quantifiers),
        )
    return st.recursive(atoms, extend, max_leaves=10)


# variable names that the parser cannot read as a quantifier or as `in`
_POINTS, _SETS = st.sampled_from("xyz"), st.sampled_from("XY")
wmso_formulas = _formulas(
    st.one_of(st.builds(Less, _POINTS, _POINTS), st.builds(EqPt, _POINTS, _POINTS),
              st.builds(Mem, _POINTS, _SETS)),
    [(q, var) for q in (Exists, Forall) for var in (_POINTS, _SETS)],
)
_terms = st.recursive(
    st.one_of(st.builds(GVar, _POINTS), st.just(One())),
    lambda t: st.one_of(st.builds(Mul, t, t), st.builds(Inv, t)),
    max_leaves=4,
)
group_formulas = _formulas(
    st.one_of(
        st.builds(TermEq, _terms, _terms),
        st.sampled_from(sorted(ATOM_ARITY.items())).flatmap(
            lambda item: st.tuples(*[_terms] * item[1]).map(
                lambda args: GAtom(item[0], args))),
    ),
    [(Exists, _POINTS), (Forall, _POINTS)],
)


@given(wmso_formulas)
@settings(max_examples=300)
def test_wmso_print_parse_roundtrip(phi):
    assert _depth(phi) <= MAX_DEPTH
    assert parse_wmso(print_wmso(phi)) == phi


@given(group_formulas)
@settings(max_examples=300)
def test_group_print_parse_roundtrip(phi):
    assert _depth(phi) <= MAX_DEPTH
    assert parse_group(print_group(phi)) == phi


class _Recording(Evaluator):
    """Reads order atoms over the booleans and records every node it visits,
    every quantifier it binds and every atom it decides."""

    def __init__(self):
        self.env, self.visited, self.bound, self.decided = {}, [], [], []

    def run(self, phi):
        self.visited.append(phi)
        return super().run(phi)

    def bind(self, phi):
        self.bound.append(phi)
        return self.env, [False, True]

    def atom(self, phi):
        self.decided.append(phi)
        x, y = self.env[phi.x], self.env[phi.y]
        return x < y if isinstance(phi, Less) else x == y


def test_evaluator_binds_only_quantifiers():
    phi = parse_wmso("Ax ((Ey (x < y & ~(y = x))) | x = x) <-> (Az Ax (z < x -> Ay (y = z)))")
    ev = _Recording()
    ev.run(phi)
    quantifiers = [n for n in ev.visited if type(n) in QUANTIFIERS]
    atoms = [n for n in ev.visited if isinstance(n, (Less, EqPt))]
    assert ev.bound == quantifiers  # once per quantifier visit, in order
    assert len(quantifiers) > 4  # nested quantifiers are visited repeatedly
    assert ev.decided == atoms
    assert len(quantifiers) + len(atoms) + sum(
        isinstance(n, (Not, *_BINARY)) for n in ev.visited) == len(ev.visited)


def test_printer_protects_quantified_operands():
    # a quantifier on the left of a connective must be parenthesized or the
    # reparse would swallow the right operand into its scope
    phi = And(Exists("x", Less("x", "y")), EqPt("y", "y"))
    assert parse_wmso(print_wmso(phi)) == phi
    phi2 = Or(Not(Exists("x", Less("x", "y"))), EqPt("y", "y"))
    assert parse_wmso(print_wmso(phi2)) == phi2


def test_print_term():
    t = Mul(Mul(GVar("w"), GVar("x")), Inv(Mul(GVar("w"), GVar("v"))))
    assert print_term(t) == "(w*x)*(w*v)^-1"
    assert parse_group(f"{print_term(t)} = 1") == TermEq(t, One())


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


def _bound(psi):
    """The bound variables of psi."""
    if type(psi) in QUANTIFIERS:
        yield psi.var
    for attr in ("a", "b", "sub", "body"):
        if hasattr(psi, attr):
            yield from _bound(getattr(psi, attr))


@pytest.mark.parametrize("text", ["restr(z_0,b)", "cont(z_0,z_1)", "cof(w_0*y)"])
def test_expand_never_captures_an_argument(text):
    """The arguments use the names v_n that the schemas' bound variables
    are renamed to.  Expansion keeps the arguments' variables free, and no
    bound variable takes one of their names."""
    phi = parse_group(text)
    for depth in range(1, 4):
        out = expand(phi, depth)
        assert free_vars(out) == free_vars(phi), (depth, print_group(out))
        assert not free_vars(phi) & set(_bound(out)), (depth, print_group(out))


def test_expand_refuses_a_negative_depth():
    with pytest.raises(FormulaError):
        expand(parse_group("restr(a,b)"), -1)


@pytest.mark.parametrize("text, bad", [
    ("x <     $", "$"),      # bad character
    ("x <     X", "X"),      # set variable where a point variable goes
    ("x  in    y", "y"),     # point variable where a set variable goes
    ("x    z", "z"),         # no relation between the two variables
    ("x   <   y   )", ")"),  # trailing input
    ("  Ex  ( x  <  y ) &  ?", "?"),
])
def test_parse_errors_point_at_the_offending_token(text, bad):
    with pytest.raises(FormulaError, match=rf"at position {text.index(bad)}\b"):
        parse_wmso(text)
