"""Command-line entry point: `qwi <subcommand> ...`.

Exit codes: 0 for true / success, 1 for false / failures, 2 for usage or
input errors, 141 (128 + SIGPIPE) when the reader of stdout has gone away.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .numbers import parse_rational
from .plmap import PLMap, format_pl, parse_pl
from . import predicates as P
from .formulas import ATOM_ARITY, expand, is_set_var, parse_wmso, print_group
from .wmso import Assignment, decide, eval as wmso_eval
from .interp import (
    encode_finite_set, encode_rational, pullback_eval, translate,
)
from .suites import SUITE_NAMES, run_suite


class CliError(Exception):
    pass


# the predicates `qwi check` decides: every oracle, and membership
_PREDICATES = {**P.ORACLES, "member": P.member_sem}
_ARITY = {**ATOM_ARITY, "member": 2}


def _read_pl(path: str) -> PLMap:
    with open(path) as fh:
        return parse_pl(fh.read())


def _cmd_check(args) -> int:
    if args.predicate not in _PREDICATES:
        raise CliError(f"unknown predicate {args.predicate!r}; "
                       f"expected one of {sorted(_PREDICATES)}")
    arity, fn = _ARITY[args.predicate], _PREDICATES[args.predicate]
    files = [args.plfile] + ([args.plfile2] if args.plfile2 else [])
    if len(files) != arity:
        raise CliError(f"{args.predicate} takes {arity} map argument(s), "
                       f"got {len(files)}")
    maps = [_read_pl(p) for p in files]
    value = fn(*maps)
    print("true" if value else "false")
    if value and args.predicate == "restr":
        print(f"witness: {format_pl(P.restr_witness(*maps))}")
    return 0 if value else 1


#: One `--assign` item: a variable bound to a rational or to a braced list.
_ITEM_RE = re.compile(
    r"\s*(?P<name>[A-Za-z][A-Za-z0-9_']*)\s*=\s*"
    r"(?:\{(?P<set>[^{}]*)\}|(?P<point>[^,{}]*?))\s*(?:,|$)"
)


def _rationals(text: str) -> list[Fraction]:
    """The rationals of a comma-separated list; blank text is the empty list."""
    return [parse_rational(v) for v in text.split(",")] if text.strip() else []


def _parse_assignment(text: str) -> Assignment:
    a, pos = Assignment(), 0
    while text[pos:].strip():
        m = _ITEM_RE.match(text, pos)
        if m is None:
            raise CliError(f"bad assignment item at position {pos}: {text[pos:]!r}")
        name, is_set = m["name"], m["set"] is not None
        if is_set_var(name) != is_set:
            takes = ("a set variable takes a braced list" if is_set_var(name)
                     else "a point variable takes a rational")
            raise CliError(f"bad assignment item {m[0].rstrip(',').strip()!r}: {takes}")
        if is_set:
            a = a.with_set(name, _rationals(m["set"]))
        else:
            a = a.with_point(name, parse_rational(m["point"]))
        pos = m.end()
    return a


def _cmd_eval(args) -> int:
    with open(args.formula_file) as fh:
        phi = parse_wmso(fh.read())
    a = _parse_assignment(args.assign) if args.assign else Assignment()
    value = wmso_eval(phi, a)
    print("true" if value else "false")
    return 0 if value else 1


def _sentences(path: str) -> list[str]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            out.append(parts[1] if len(parts) == 3 else line)
    return out


def _cmd_translate(args) -> int:
    if args.expand < 0:
        raise CliError(f"the expansion depth must not be negative, got {args.expand}")
    for text in _sentences(args.wmso_file):
        psi = translate(parse_wmso(text))
        if args.expand:
            psi = expand(psi, args.expand)
        print(print_group(psi))
    return 0


def _cmd_roundtrip(args) -> int:
    failures = 0
    for text in _sentences(args.wmso_file):
        phi = parse_wmso(text)
        direct = decide(phi)
        back = pullback_eval(translate(phi))
        ok = direct == back
        failures += not ok
        print(f"{'ok' if ok else 'MISMATCH'}\tdirect={direct}\t"
              f"pullback={back}\t{text}")
    return 0 if failures == 0 else 1


def _cmd_encode_rational(args) -> int:
    q = parse_rational(args.q)
    print(format_pl(encode_rational(q, args.side)))
    return 0


def _cmd_encode_set(args) -> int:
    print(format_pl(encode_finite_set(_rationals(args.elements))))
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed, cases=args.cases)
    for r in reports:
        print(r.render())
    print()
    for r in reports:
        print(r.machine_line())
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qwi",
        description="Piecewise-linear automorphisms of (Q,<), their "
                    "conjugacy calculus, and the WMSO interpretation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a predicate oracle on map files")
    p.add_argument("predicate")
    p.add_argument("plfile")
    p.add_argument("plfile2", nargs="?")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a WMSO formula over (Q,<), exactly")
    p.add_argument("formula_file")
    p.add_argument("--assign", default=None,
                   help="e.g. x=1/2,X={0,1}")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("translate", help="compile WMSO sentences to the group language")
    p.add_argument("wmso_file")
    p.add_argument("--expand", type=int, default=0,
                   help="expand predicate macros to this depth")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("roundtrip", help="verify direct truth against the pullback")
    p.add_argument("wmso_file")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("encode-rational", help="print the map coding a rational")
    p.add_argument("q")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.set_defaults(fn=_cmd_encode_rational)

    p = sub.add_parser("encode-set", help="print the map coding a finite set")
    p.add_argument("elements", help="comma-separated rationals, or '' for the empty set")
    p.set_defaults(fn=_cmd_encode_set)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="seeded cases to run; only group-laws, orbitals and "
                        "predicates read it, the exhaustive suites ignore it")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let `encode-set -1,0,2` work without an explicit `--` separator
    if argv and argv[0] == "encode-set" and "--" not in argv:
        argv.insert(1, "--")
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout is seen here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; the exit flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
