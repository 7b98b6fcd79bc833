"""Formula ASTs for the two logics, with parsing, printing and macro
expansion.  `instantiate` fills a defining schema in at its arguments: the
one rewriting step of macro expansion and of `interp.translate`.

Monadic second-order formulas over (ℚ,<) use lowercase point variables and
uppercase set variables; set quantification is over finite sets only.  The
group language is first-order with terms built from `*`, `^-1` and the
identity constant `1`, and a fixed signature of named atoms.  The two ASTs
share their connectives and quantifiers; a WMSO variable's sort is the
case of its name (`is_set_var`), which `relation_vars` checks for every
decider.  `free_vars` takes a formula or a term, and one table,
`_RELATION`, holds the relation symbols as `_SYMBOL` holds the connectives'.

Concrete syntax.  `~` binds tightest; then come the binary connectives of
`_SYMBOL`, from `&` to `<->`: `&` and `|` associate to the left, `->` and
`<->` to the right.  A quantifier `Ev` or `Av` is a prefix whose body runs
to the end of the current subformula.  WMSO atoms are `x < y`, `x = y` and
`x in X`; group atoms are `t = u` and `name(t,...)` over terms built from
lowercase variables, `1`, `*` and `^-1`.  A variable is
`[A-Za-z][A-Za-z0-9_']*`; a word of two or more characters that starts
with `A` or `E` is a quantifier, and `in` is reserved, never a variable:
    Ax Ey (x < y)          EX Ax (x in X)
    Ez (disj(x,z) & y = x*z)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional, Union


class FormulaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Less:
    x: str
    y: str


@dataclass(frozen=True)
class EqPt:
    x: str
    y: str


@dataclass(frozen=True)
class Mem:
    x: str
    X: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True)
class Or:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True)
class Implies:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True)
class Iff:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


# group terms
@dataclass(frozen=True)
class GVar:
    name: str


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Mul:
    t: "Term"
    u: "Term"


@dataclass(frozen=True)
class Inv:
    t: "Term"


Term = Union[GVar, One, Mul, Inv]


@dataclass(frozen=True)
class TermEq:
    t: Term
    u: Term


@dataclass(frozen=True)
class GAtom:
    name: str
    args: tuple[Term, ...]


Formula = Union[
    Less, EqPt, Mem, Not, And, Or, Implies, Iff, Exists, Forall, TermEq, GAtom,
]

ATOM_ARITY = {
    "comp": 1, "bump": 1, "coterm": 1, "cof": 1, "inf": 1,
    "rational": 1, "finrational": 1,
    "apart": 2, "orbital": 2, "disj": 2, "restr": 2, "cont": 2,
    "codesame": 2, "oppsupport": 2, "sameset": 2,
}

#: The quantifiers, shared by both logics, each mapped to True for ∃ and
#: False for ∀.
QUANTIFIERS = {Exists: True, Forall: False}
#: The binary connectives, loosest first, with their symbols: the one table
#: that the parser climbs and the printer reads.
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}
_BINARY = tuple(_SYMBOL)
_RIGHT = (Iff, Implies)  # the right-associative ones; the rest associate left
#: The WMSO relations with their symbols, read by the parser, the printer
#: and `interp`.
_RELATION = {Less: "<", EqPt: "=", Mem: "in"}


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def is_set_var(name: str) -> bool:
    """Whether a WMSO variable names a finite set: uppercase sets, lowercase points."""
    return name[:1].isupper()


def relation_vars(phi: Formula) -> tuple[str, str]:
    """The variables of a WMSO relation: two points, or a point and a set
    for `in`.  Another node or a variable of the wrong sort raises."""
    t = type(phi)
    if t not in _RELATION:
        raise FormulaError(f"not a formula over (Q,<): {phi!r}")
    x, y = vars(phi).values()
    if is_set_var(x) or is_set_var(y) != (t is Mem):
        raise FormulaError(f"a variable of the wrong sort in {phi!r}")
    return x, y


def free_vars(phi: Union[Formula, Term]) -> set[str]:
    """The free variables of a formula, or the variables of a term."""
    t = type(phi)
    if t is GVar:
        return {phi.name}
    if t in QUANTIFIERS:
        return free_vars(phi.body) - {phi.var}
    if t in _RELATION:
        return set(vars(phi).values())
    if t is GAtom or t is Not or t in _BINARY or t in (TermEq, Mul, Inv, One):
        out: set[str] = set()
        for sub in phi.args if t is GAtom else vars(phi).values():
            out |= free_vars(sub)
        return out
    raise FormulaError(f"unknown node {phi!r}")


def quantifier_rank(phi: Formula) -> int:
    """The deepest nesting of quantifiers in phi, of either sort."""
    t = type(phi)
    if t is Not or t in _BINARY:
        return max(map(quantifier_rank, vars(phi).values()))
    return 1 + quantifier_rank(phi.body) if t in QUANTIFIERS else 0


def rebuild(phi: Formula, f) -> Formula:
    """phi with `f` applied to each immediate subformula: the operand of a
    negation, both sides of a binary connective, or a quantifier's body.
    An atom comes back as it is."""
    t = type(phi)
    if t is Not:
        return Not(f(phi.sub))
    if t in _BINARY:
        return t(f(phi.a), f(phi.b))
    if t in QUANTIFIERS:
        return t(phi.var, f(phi.body))
    return phi


# ---------------------------------------------------------------------------
# the evaluator skeleton
# ---------------------------------------------------------------------------

_MISSING = object()


class Evaluator:
    """The tree walk that every evaluator of formulas shares.

    The connectives are decided here, once, and so is each quantifier: it
    binds its variable to each candidate in turn, runs the body, stops at
    the first candidate that settles the quantifier, and restores the
    variable's old binding.  A subclass supplies the rest.  `atom(phi)`
    decides every node that is neither a connective nor a quantifier.
    `bind(phi)` is called on quantifier nodes only and returns (env,
    candidates): `env` is the dict that the variable is bound in, and
    `candidates` what it ranges over.  A subclass that cannot range over
    some variable raises from `bind`.
    """

    def run(self, phi: Formula) -> bool:
        t = type(phi)
        if t is Not:
            return not self.run(phi.sub)
        if t is And:
            return self.run(phi.a) and self.run(phi.b)
        if t is Or:
            return self.run(phi.a) or self.run(phi.b)
        if t is Implies:
            return (not self.run(phi.a)) or self.run(phi.b)
        if t is Iff:
            return self.run(phi.a) == self.run(phi.b)
        want = QUANTIFIERS.get(t)
        if want is None:
            return self.atom(phi)
        env, candidates = self.bind(phi)
        var = phi.var
        prev = env.get(var, _MISSING)
        try:
            for c in candidates:
                env[var] = c
                if self.run(phi.body) == want:
                    return want
        finally:
            if prev is _MISSING:
                env.pop(var, None)
            else:
                env[var] = prev
        return not want


# ---------------------------------------------------------------------------
# tokenizer and parsers
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym><->|->|\^-1|[()<=*&|~,]|1)|(?P<id>[A-Za-z][A-Za-z0-9_']*)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, at the token's own first character."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start(m.lastgroup)
        if m.lastgroup == "bad":
            raise FormulaError(f"bad character at position {pos}: {text[pos:pos+10]!r}")
        out.append((m.lastgroup, m.group(m.lastgroup), pos))
    return out


#: Deepest nesting a parsed formula may have.  Every walker over formulas
#: recurses once per level, so deeper input is refused, not evaluated.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, lang: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.lang = lang  # "wmso" | "group"
        self.depth = 0

    def nested(self, parse, *args):
        """parse(*args) one nesting level deeper, refusing to go below MAX_DEPTH."""
        if self.depth >= MAX_DEPTH:
            raise FormulaError(f"formula nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise FormulaError(f"unexpected end of formula: {self.text!r}")
        self.i += 1
        return t

    def take(self, sym: str) -> bool:
        """Consume the next token if it is `sym`."""
        t = self.peek()
        if t is None or t[1] != sym:
            return False
        self.i += 1
        return True

    def expect(self, val: str):
        t = self.next()
        if t[1] != val:
            raise FormulaError(
                f"expected {val!r} at position {t[2]} in {self.text!r}, got {t[1]!r}"
            )

    def formula(self, level: int = 0) -> Formula:
        """The connectives of `_SYMBOL` from `level` on, over unary formulas."""
        if level == len(_BINARY):
            return self.unary()
        node = _BINARY[level]
        a = self.formula(level + 1)
        if node in _RIGHT:
            if self.take(_SYMBOL[node]):
                a = node(a, self.nested(self.formula, level))
        else:
            while self.take(_SYMBOL[node]):
                a = node(a, self.formula(level + 1))
        return a

    def unary(self) -> Formula:
        if self.take("~"):
            return Not(self.nested(self.unary))
        t = self.peek()
        if t and t[0] == "id" and len(t[1]) >= 2 and t[1][0] in "AE":
            self.i += 1  # a quantifier: its body runs to the end of the subformula
            name = t[1][1:]  # the rest of a name token: a name if it starts with a letter
            if not name[0].isalpha() or name == "in":
                raise FormulaError(
                    f"a quantifier must bind a variable, got {name!r} at position {t[2] + 1}")
            if self.lang == "group" and not name[0].islower():
                raise FormulaError(f"group variables are lowercase: {name!r}")
            return (Exists if t[1][0] == "E" else Forall)(name, self.nested(self.formula))
        save = self.i
        if self.take("("):
            try:
                inner = self.nested(self.formula)
                self.expect(")")
                return inner
            except FormulaError:
                if self.lang == "wmso":
                    raise
                self.i = save  # may be a parenthesized term, retry as atom
        return self._wmso_atom() if self.lang == "wmso" else self._group_atom()

    def _point(self) -> str:
        """A lowercase variable: a point of (ℚ,<), or a group element."""
        t = self.next()
        if t[0] != "id" or t[1] == "in" or is_set_var(t[1]):
            raise FormulaError(
                f"expected a lowercase variable at position {t[2]} in {self.text!r}, "
                f"got {t[1]!r}"
            )
        return t[1]

    def _wmso_atom(self) -> Formula:
        x, op = self._point(), self.next()
        rel = next((r for r, sym in _RELATION.items() if sym == op[1]), None)
        if rel is None:
            raise FormulaError(f"expected <, = or in at position {op[2]} in {self.text!r}")
        if rel is not Mem:
            return rel(x, self._point())
        Y = self.next()
        if Y[0] != "id" or not is_set_var(Y[1]):
            raise FormulaError(f"membership needs a set variable at position {Y[2]}, "
                               f"got {Y[1]!r}")
        return Mem(x, Y[1])

    def _group_atom(self) -> Formula:
        t = self.peek()
        if t and t[0] == "id" and t[1] in ATOM_ARITY:
            nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
            if nxt and nxt[1] == "(":
                self.i += 2
                args = [self.term()]
                while self.take(","):
                    args.append(self.term())
                self.expect(")")
                if len(args) != ATOM_ARITY[t[1]]:
                    raise FormulaError(
                        f"{t[1]} takes {ATOM_ARITY[t[1]]} argument(s), got {len(args)}"
                    )
                return GAtom(t[1], tuple(args))
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        return TermEq(lhs, rhs)

    # term := factor {'*' factor}; factor := primary ['^-1']*
    def term(self) -> Term:
        t = self.factor()
        while self.take("*"):
            t = Mul(t, self.factor())
        return t

    def factor(self) -> Term:
        t = self.primary()
        while self.take("^-1"):
            t = Inv(t)
        return t

    def primary(self) -> Term:
        if self.take("1"):
            return One()
        if self.take("("):
            inner = self.nested(self.term)
            self.expect(")")
            return inner
        return GVar(self._point())

    def done(self):
        t = self.peek()
        if t is not None:
            raise FormulaError(
                f"trailing input at position {t[2]} in {self.text!r}: {t[1]!r}"
            )


def parse_wmso(text: str) -> Formula:
    return _parse(text, "wmso")


def parse_group(text: str) -> Formula:
    return _parse(text, "group")


def _parse(text: str, lang: str) -> Formula:
    p = _Parser(text, lang)
    out = p.formula()
    p.done()
    if _depth(out) > MAX_DEPTH:  # long flat chains of & | * ^-1 nest without parentheses
        raise FormulaError(f"formula nested deeper than {MAX_DEPTH} levels")
    return out


def _depth(phi) -> int:
    """Height of a formula or term tree, found without recursion."""
    height, stack = 0, [(phi, 1)]
    while stack:
        node, d = stack.pop()
        height = max(height, d)
        for v in vars(node).values():
            if not isinstance(v, str):
                stack.extend((c, d + 1) for c in (v if isinstance(v, tuple) else (v,)))
    return height


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_term(t: Term) -> str:
    if isinstance(t, GVar):
        return t.name
    if isinstance(t, One):
        return "1"
    if isinstance(t, Inv):
        return f"{_operand(t.t)}^-1"
    if isinstance(t, Mul):
        return f"{_operand(t.t)}*{_operand(t.u)}"
    raise FormulaError(f"unknown term {t!r}")


def _operand(t: Term) -> str:
    """t as an operand of `*` or `^-1`: a product is parenthesized."""
    s = print_term(t)
    return f"({s})" if isinstance(t, Mul) else s


def _print(phi: Formula) -> str:
    if type(phi) in _RELATION:
        x, y = vars(phi).values()
        return f"{x} {_RELATION[type(phi)]} {y}"
    if isinstance(phi, TermEq):
        return f"{print_term(phi.t)} = {print_term(phi.u)}"
    if isinstance(phi, GAtom):
        return f"{phi.name}({','.join(print_term(a) for a in phi.args)})"
    if isinstance(phi, Not):
        return f"~{_wrap(phi.sub)}"
    if type(phi) in _SYMBOL:
        return f"({_side(phi.a)} {_SYMBOL[type(phi)]} {_side(phi.b)})"
    if type(phi) in QUANTIFIERS:
        return f"{'E' if QUANTIFIERS[type(phi)] else 'A'}{phi.var} {_wrap(phi.body)}"
    raise FormulaError(f"unknown node {phi!r}")


def _wrap(phi: Formula) -> str:
    """phi as the operand of `~` or the body of a quantifier: a relation, an
    equation or a quantifier is parenthesized; a binary connective already is."""
    t, s = type(phi), _print(phi)
    return f"({s})" if t in _RELATION or t in QUANTIFIERS or t is TermEq else s


def _side(phi: Formula) -> str:
    # a prefix quantifier (possibly under ~) would capture the connective
    # that follows; parenthesize it
    core = phi
    while isinstance(core, Not):
        core = core.sub
    s = _print(phi)
    return f"({s})" if type(core) in QUANTIFIERS else s


#: One printer serves both logics, whose ASTs share their connectives.
print_wmso = print_group = _print


# ---------------------------------------------------------------------------
# macro table and expansion
# ---------------------------------------------------------------------------

#: A defining schema: its parameters, and a group formula free in them only.
Schema = tuple[list[str], Formula]


def _schema(params: list[str], text: str) -> Schema:
    return params, parse_group(text)


#: Defining schemas for the atoms that have them.  The remaining atoms
#: (comp, apart, bump, orbital, disj, rational) are primitive from the
#: expansion's point of view.
MACROS: dict[str, Schema] = {
    "restr": _schema(["x", "y"], "Ez (disj(x,z) & y = x*z)"),
    "cont": _schema(["x", "y"], "Az (disj(y,z) -> disj(x,z))"),
    "coterm": _schema(["x"], "bump(x) & Az (~(z = 1) -> ~disj(x,z))"),
    "cof": _schema(["x"], "bump(x) & ~coterm(x) & Aw ~disj(x, w*x*w^-1)"),
    "oppsupport": _schema(
        ["x", "y"],
        "cof(x) & cof(y) & disj(x,y) & Az (~(z = 1) -> ~(disj(x,z) & disj(y,z)))",
    ),
    # both supports are half-lines, so the literal cont has gap-bump witnesses
    "codesame": _schema(
        ["x", "y"],
        "cof(x) & cof(y) & ((cont(x,y) & cont(y,x)) | oppsupport(x,y))",
    ),
    "inf": _schema(
        ["x"],
        "Ey Ey1 Ey2 Ew (restr(y,x) & orbital(y1,y) & y = y1*y2 & y2 = w*y*w^-1)",
    ),
    "finrational": _schema(
        ["x"],
        "comp(x) & ~inf(x) & Ay (disj(x,y) -> y = 1)"
        " & Ay ((cof(y) & codesame(y, x*y*x^-1)) -> rational(y))",
    ),
    # x and y fix the same points, each tested by conjugation as membership is
    "sameset": _schema(
        ["x", "y"],
        "finrational(x) & finrational(y)"
        " & Az (cof(z) -> (codesame(z, x*z*x^-1) <-> codesame(z, y*z*y^-1)))",
    ),
}


def instantiate(schema: Schema, args: tuple[Term, ...], names: Iterator[int]) -> Formula:
    """The body of `schema` with each parameter replaced by its argument,
    in one walk.  Each bound variable v is renamed v_n, with n drawn from
    `names` in pre-order, so that one counter makes the names both distinct
    and repeatable; a v_n that occurs in an argument is skipped, so no
    argument variable is captured."""
    params, body = schema
    taken = set().union(*map(free_vars, args))

    def walk(node, env: dict[str, Term]):
        t = type(node)
        if t is GVar:
            return env.get(node.name, node)
        if t in QUANTIFIERS:
            v = f"{node.var}_{next(names)}"
            while v in taken:
                v = f"{node.var}_{next(names)}"
            return t(v, walk(node.body, {**env, node.var: GVar(v)}))
        if t is GAtom:
            return GAtom(node.name, tuple(walk(a, env) for a in node.args))
        return t(*(walk(sub, env) for sub in vars(node).values()))

    return walk(body, dict(zip(params, args)))


def expand(phi: Formula, depth: int) -> Formula:
    """Replace defined atoms by their schemas, `depth` times."""
    if depth < 0:
        raise FormulaError(f"the expansion depth must not be negative, got {depth}")
    names = count()
    for _ in range(depth):
        out = _expand_once(phi, names)
        if out == phi:
            break
        phi = out
    return phi


def _expand_once(phi: Formula, names: Iterator[int]) -> Formula:
    if isinstance(phi, GAtom) and phi.name in MACROS:
        return instantiate(MACROS[phi.name], phi.args, names)
    return rebuild(phi, lambda sub: _expand_once(sub, names))
