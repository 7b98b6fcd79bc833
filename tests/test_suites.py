import pytest

from qwi import predicates as P, suites
from qwi.patterns import (
    EMPTY, IRRATIONAL, MAX_ONLY, MIN_AND_MAX, NO_MIN_NO_MAX, RATIONAL, SINGLETON,
    Fixed, Moving,
    canonical_pattern, lemma21_decompose, make_pattern, mirror_pattern,
)
from qwi.suites import SUITE_NAMES, SuiteReport, run_suite


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "group-laws", "orbitals", "predicates", "lemma21", "lemma22",
        "classes8", "wmso", "roundtrip", "discrepancy", "all",
    }


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("name", ["group-laws", "discrepancy", "all"])
def test_negative_case_count_is_refused(name):
    with pytest.raises(ValueError):
        run_suite(name, cases=-1)


def test_machine_line_format():
    r = SuiteReport("demo", 12, ["boom"], seed=3, wall_time=0.5)
    assert r.machine_line() == "demo\t12\t1\t0.500"
    assert not r.ok
    assert "FAIL boom" in r.render()


@pytest.mark.parametrize("name", ["group-laws", "orbitals", "predicates"])
def test_seeded_suites_pass_and_are_deterministic(name):
    a, = run_suite(name, seed=5, cases=25)
    b, = run_suite(name, seed=5, cases=25)
    assert a.ok and b.ok
    assert (a.cases, a.failures, a.notes) == (b.cases, b.failures, b.notes)


def test_all_runs_each_suite_exactly_once(monkeypatch):
    # small scale throughout: criterion 9 reads the {0, 1, 2} grid
    monkeypatch.setattr(P, "DISCREPANCY_GRID", (0, 1))
    reports = run_suite("all", seed=0, cases=15)
    names = [r.suite for r in reports]
    assert sorted(names) == sorted(n for n in SUITE_NAMES if n != "all")
    assert all(r.ok for r in reports)


def test_lemma21_check_reads_the_tail_shift(monkeypatch):
    """On either side, g2 must be g with g1, its first tail orbital, made
    fixed.  Two forged decompositions whose g and g2 are isomorphic are
    refused: one names an orbital g does not start its tail with, one
    gives g2 in canonical form."""
    m = Moving(1, RATIONAL, IRRATIONAL)
    p = make_pattern([Fixed(MAX_ONLY)],
                     right_tail=[m, Fixed(EMPTY), Moving(-1, IRRATIONAL, RATIONAL), Fixed(MIN_AND_MAX)])
    for q in (p, mirror_pattern(p)):
        assert suites._lemma21_failure(q) is None
        g1, g2, g = lemma21_decompose(q)
        for forged in ((Moving(-g1.parity, g1.left, g1.right), g2, g),
                       (g1, canonical_pattern(g2), g)):
            monkeypatch.setattr(suites, "lemma21_decompose", lambda _: forged)
            assert suites._lemma21_failure(q).endswith("g2 is not g with g1 made fixed")
        monkeypatch.undo()


def test_lemma21_check_reads_the_restriction(monkeypatch):
    """On either side, g must be p with some orbitals made fixed.  Three
    forged decompositions whose g is isomorphic to g2 are refused: two are
    tail shifts of other patterns, one turning p's F(single) into
    F(minmax) and one flipping the parity of the orbital it keeps, and one
    keeps an orbital below g1 that p does not have."""
    m = Moving(1, RATIONAL, RATIONAL)
    p = make_pattern([Fixed(MAX_ONLY)], right_tail=[m, Fixed(SINGLETON)])
    extra = make_pattern([Fixed(NO_MIN_NO_MAX), Moving(1, IRRATIONAL, IRRATIONAL), Fixed(MAX_ONLY)],
                         right_tail=[m, Fixed(SINGLETON)])
    forged = [lemma21_decompose(make_pattern([Fixed(MAX_ONLY)], right_tail=w))
              for w in ([m, Fixed(MIN_AND_MAX)], [Moving(-1, RATIONAL, RATIONAL), Fixed(SINGLETON)])]
    forged.append((m, extra, extra))
    for side in (lambda q: q, mirror_pattern):  # m and its parity flip are their own mirrors
        assert suites._lemma21_failure(side(p)) is None
        for g1, g2, g in forged:
            monkeypatch.setattr(suites, "lemma21_decompose",
                                lambda _: (g1, side(g2), side(g)))
            assert suites._lemma21_failure(side(p)).endswith(
                "g is not p with some orbitals made fixed")
            monkeypatch.undo()
