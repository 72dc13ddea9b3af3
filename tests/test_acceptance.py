"""Acceptance suite: every exit criterion, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion test is independent and pinned to its stated budget and
tolerance (all comparisons are exact unless a wall-clock budget is named).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from delpezzo.catalog import legendre_j, witness_catalog
from delpezzo.enumeration import enumerate_instar_without_in, enumerate_isotrivial
from delpezzo.errors import InvalidSurfaceError
from delpezzo.forms import BinaryForm, factor_over_rationals
from delpezzo.kodaira import configuration, fiber_properties
from delpezzo.sextic import parse_binary_form, parse_sextic
from delpezzo.surfaces import classify_surface, classify_weierstrass, degree_rule
from delpezzo.weierstrass import reduce_to_short, weierstrass_data

import bruteforce


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL - {description}")
        raise
    print(f"[acceptance {number:02d}] PASS - {description}")


def form(text, degree):
    return parse_binary_form(text, degree)


def fibers_of(report):
    return {(t.tag, t.n, c) for t, c in report.fibers.entries}


def sing_of(report):
    return {(l.family, l.index, c) for l, c in report.sing.entries}


# -- 1, 2: reference-table reproduction -------------------------------------------------


def test_criterion_01_j0_table_reproduction():
    with criterion(1, "j=0 table: 10/10 rows reproduced exactly in < 1 s"):
        rows = [w for w in witness_catalog() if w.table == "j0"]
        assert len(rows) == 10
        start = time.perf_counter()
        matched = 0
        for w in rows:
            report = classify_surface(w.equation)
            assert fibers_of(report) == set(w.fibers), w.name
            assert sing_of(report) == set(w.sing), w.name
            assert report.coreg == w.coreg[2], w.name
            assert report.rho == w.rho, w.name
            assert report.moduli_dim == w.moduli_dim, w.name
            matched += 1
        elapsed = time.perf_counter() - start
        assert matched == 10
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_02_j1728_table_reproduction():
    with criterion(2, "j=1728 table: 4/4 rows, coreg split 1/0/0/1"):
        rows = [w for w in witness_catalog() if w.table == "j1728"]
        assert len(rows) == 4
        coreg_by_fibers = {}
        for w in rows:
            report = classify_surface(w.equation)
            assert fibers_of(report) == set(w.fibers), w.name
            assert sing_of(report) == set(w.sing), w.name
            assert report.coreg == w.coreg[2], w.name
            assert report.rho == w.rho, w.name
            assert report.moduli_dim == w.moduli_dim, w.name
            assert report.j.constant and report.j.value == 1728
            coreg_by_fibers[str(report.fibers)] = report.coreg
        assert coreg_by_fibers == {
            "III* + III": 1,
            "2I0*": 0,
            "I0* + 2III": 0,
            "4III": 1,
        }


# -- 3: the two surfaces without a toric model --------------------------------------------


def test_criterion_03_exceptional_surfaces_and_discriminants():
    with criterion(3, "D5+A1 and D6 witnesses: fibers, exact delta ratio 16, "
                      "coreg profile (1,0,0), no toric model"):
        first = "w^2 + z^3 - 3*(x-y)*x*y^2*z + 2*(x-y)*x^2*y^3"
        second = "w^2 + z^3 - 3*(x^2-y^2)*y^2*z + 2*(x^2-y^2)*x*y^3"

        wd1 = reduce_to_short(parse_sextic(first))
        assert wd1.delta == form("16*(-108)*(x-y)^2*x^3*y^7", 12)
        report1 = classify_surface(first)
        assert fibers_of(report1) == {("In*", 1, 1), ("III", None, 1),
                                      ("II", None, 1)}
        assert (report1.coreg1, report1.coreg2, report1.coreg) == (1, 0, 0)
        assert report1.toric_model is False

        wd2 = reduce_to_short(parse_sextic(second))
        assert wd2.delta == form("16*(-108)*(x^2-y^2)^2*y^8", 12)
        report2 = classify_surface(second)
        assert fibers_of(report2) == {("In*", 2, 1), ("II", None, 2)}
        assert (report2.coreg1, report2.coreg2, report2.coreg) == (1, 0, 0)
        assert report2.toric_model is False


# -- 4: non-isotrivial witnesses with extremal singularities ---------------------------------


def test_criterion_04_nodal_witnesses():
    with criterion(4, "nodal II*+2I1 / IV*+I3+I1 / III*+I2+I1 witnesses: "
                      "coreg1 = coreg = 0, toric model, conjugate I1 pair"):
        cases = {
            "w^2 + z^3 + x^4*z + x^5*y": {("II*", None, 1), ("In", 1, 2)},
            "w^2 + z^3 - 3*x^3*(x+4*y)*z + 2*x^4*(x^2+6*x*y+6*y^2)": {
                ("IV*", None, 1), ("In", 3, 1), ("In", 1, 1)},
            "w^2 + z^3 - 3*x^3*(x+2*y)*z + 2*x^5*(x+3*y)": {
                ("III*", None, 1), ("In", 2, 1), ("In", 1, 1)},
        }
        for text, expected in cases.items():
            report = classify_surface(text)
            assert fibers_of(report) == expected, text
            assert report.coreg1 == 0 and report.coreg == 0
            assert report.toric_model is True
            assert not report.isotrivial
        # the 2I1 of the first witness is one rational place of degree 2
        report = classify_surface("w^2 + z^3 + x^4*z + x^5*y")
        nodal_places = [p for p in report.fibers.places if p.fiber.tag == "In"]
        assert len(nodal_places) == 1
        assert nodal_places[0].geometric_degree == 2
        assert nodal_places[0].poly == form("4*x^2+27*y^2", 2)


# -- 5: enumerator equality -------------------------------------------------------------------


J0_LIST = [
    (("II*", None, 1), ("II", None, 1)),
    (("IV*", None, 1), ("IV", None, 1)),
    (("IV*", None, 1), ("II", None, 2)),
    (("I0*", None, 2),),
    (("I0*", None, 1), ("IV", None, 1), ("II", None, 1)),
    (("I0*", None, 1), ("II", None, 3)),
    (("IV", None, 3),),
    (("IV", None, 2), ("II", None, 2)),
    (("IV", None, 1), ("II", None, 4)),
    (("II", None, 6),),
]
J1728_LIST = [
    (("III*", None, 1), ("III", None, 1)),
    (("I0*", None, 2),),
    (("I0*", None, 1), ("III", None, 2)),
    (("III", None, 4),),
]
INSTAR_LIST = [
    (("In*", 1, 1), ("III", None, 1), ("II", None, 1)),
    (("In*", 2, 1), ("II", None, 2)),
    (("In*", 2, 1), ("IV", None, 1)),
    (("In*", 3, 1), ("III", None, 1)),
    (("In*", 4, 1), ("II", None, 1)),
]


def _expected_keys(rows):
    return {configuration(*row).multiset() for row in rows}


def test_criterion_05_enumerators_match_reference_lists():
    with criterion(5, "enumerations: 10 (j=0), 4 (j=1728), 1 (generic), "
                      "5 In*-without-In at rank cap 8"):
        zero = enumerate_isotrivial("zero")
        assert len(zero) == 10
        assert {fc.multiset() for fc in zero} == _expected_keys(J0_LIST)
        special = enumerate_isotrivial("value1728")
        assert len(special) == 4
        assert {fc.multiset() for fc in special} == _expected_keys(J1728_LIST)
        generic = enumerate_isotrivial("generic")
        assert [fc.multiset() for fc in generic] == [
            configuration(("I0*", None, 2)).multiset()
        ]
        instar = enumerate_instar_without_in(8)
        assert len(instar) == 5
        assert {fc.multiset() for fc in instar} == _expected_keys(INSTAR_LIST)


# -- 6: the three-root family -----------------------------------------------------------------


def test_criterion_06_three_root_family():
    with criterion(6, "three-root family: 2I0*, rho 1, isotrivial, "
                      "coreg (1,0,0); non-special a give three distinct "
                      "j values outside {0, 1728}"):
        # Non-special parameters: one per multiplier orbit.  (The spec's
        # literal triple {2, -1, 1/2} is the harmonic orbit where the
        # depressed f6 vanishes; see the second half.)
        seen_j = []
        for a in (Fraction(3), Fraction(4), Fraction(5)):
            report = classify_surface(f"w^2 = z*(z+x*y)*(z+{a}*x*y)")
            assert fibers_of(report) == {("I0*", None, 2)}
            assert report.rho == 1
            assert report.isotrivial
            assert (report.coreg1, report.coreg2, report.coreg) == (1, 0, 0)
            assert report.j.constant
            assert report.j.value == legendre_j(a)
            assert report.j.value not in (0, 1728)
            seen_j.append(report.j.value)
        assert len(set(seen_j)) == 3
        # The harmonic parameters classify identically except that their
        # constant j *is* 1728 - all three lie in one orbit, so no three
        # distinct values exist there.
        for text in (
            "w^2 = z*(z+x*y)*(z+2*x*y)",
            "w^2 = z*(z+x*y)*(z-1*x*y)",
            "w^2 = z*(z+x*y)*(z+1/2*x*y)",
        ):
            report = classify_surface(text)
            assert fibers_of(report) == {("I0*", None, 2)}
            assert report.rho == 1
            assert (report.coreg1, report.coreg2, report.coreg) == (1, 0, 0)
            assert report.j.constant and report.j.value == 1728


# -- 7: randomized invariants ------------------------------------------------------------------


COREG1_SING_RHO1 = [
    {("E", 8, 1)}, {("E", 7, 1), ("A", 1, 1)}, {("E", 6, 1), ("A", 2, 1)},
]
COREG1_SING_RHO_BIG = [
    {("E", 6, 1)}, {("D", 4, 1), ("A", 2, 1)}, {("D", 4, 1)},
    {("A", 2, 3)}, {("A", 2, 2)}, {("A", 2, 1)}, {("A", 1, 4)}, set(),
]
COREG1_CONFIGS = _expected_keys(
    [row for row in J0_LIST if row != (("I0*", None, 2),)]
    + [
        (("III*", None, 1), ("III", None, 1)),
        (("III", None, 4),),
    ]
)


def _check_report_invariants(report):
    places = report.fibers.places
    assert sum(p.geometric_degree * p.vD for p in places) == 12
    assert report.fibers.chi_total == 12
    assert report.rho == 9 - report.sing.total_rank
    assert report.rho >= 1
    has_pole = any(
        fiber_properties(t).j_class == "pole" for t, _ in report.fibers.entries
    )
    assert has_pole == (not report.isotrivial)
    assert report.coreg <= report.coreg2 <= report.coreg1
    assert report.toric_model == (report.coreg1 == 0)
    if report.coreg == 1:
        key = sing_of(report)
        if key in COREG1_SING_RHO1:
            assert report.rho == 1
        else:
            assert key in COREG1_SING_RHO_BIG
            assert report.rho > 1
        assert report.isotrivial
        assert report.fibers.multiset() in COREG1_CONFIGS
    else:
        assert (not report.isotrivial) or report.fibers.multiset() in {
            configuration(("I0*", None, 2)).multiset(),
            configuration(("I0*", None, 1), ("III", None, 2)).multiset(),
        }


def test_criterion_07_randomized_invariant_suite():
    with criterion(7, "10^4 random (f4, f6): all report invariants hold, "
                      "rejects carry documented codes, < 60 s"):
        rng = random.Random(20260808)
        start = time.perf_counter()
        accepted = rejected = 0
        for _ in range(10_000):
            f4 = BinaryForm.from_coefficients(
                4, [rng.randint(-20, 20) for _ in range(5)]
            )
            f6 = BinaryForm.from_coefficients(
                6, [rng.randint(-20, 20) for _ in range(7)]
            )
            try:
                report = classify_weierstrass(weierstrass_data(f4, f6))
            except InvalidSurfaceError as exc:
                assert exc.code in {"missing-w2", "missing-z3",
                                    "zero-discriminant", "non-minimal"}
                rejected += 1
                continue
            _check_report_invariants(report)
            accepted += 1
        # all four documented error codes are reachable
        codes = set()
        for text in ("z^3 + x^6", "w^2 + x^6", "w^2 = z^3",
                     "w^2 + z^3 + x^6"):
            try:
                classify_surface(text)
            except InvalidSurfaceError as exc:
                codes.add(exc.code)
        assert codes == {"missing-w2", "missing-z3", "zero-discriminant",
                         "non-minimal"}
        elapsed = time.perf_counter() - start
        assert accepted + rejected == 10_000
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


# -- 8: factorization round-trip ----------------------------------------------------------------


def test_criterion_08_factorization_round_trip():
    with criterion(8, "10^4 random forms of degree <= 12: exact reconstruction; "
                      "degree <= 4 factors agree with the brute-force oracle, "
                      "< 120 s"):
        rng = random.Random(431)
        start = time.perf_counter()
        for index in range(10_000):
            degree = rng.randint(0, 12)
            f = BinaryForm.from_coefficients(
                degree, [rng.randint(-50, 50) for _ in range(degree + 1)]
            )
            if f.is_zero:
                continue
            fact = factor_over_rationals(f)
            rebuilt = (fact.content,)
            for g, m in fact.factors:
                rebuilt = bruteforce.poly_mul(rebuilt, bruteforce.poly_pow(g.coefficients, m))
            assert BinaryForm.from_coefficients(f.degree, rebuilt) == f
            assert sum(m * g.degree for g, m in fact.factors) == f.degree
            if index % 20 == 0:
                # complete linear-factor agreement with the rational-root oracle
                mine = {
                    tuple(int(c) for c in g.coefficients): m
                    for g, m in fact.factors
                    if g.degree == 1
                }
                oracle = bruteforce.linear_factors(
                    tuple(int(c) for c in f.coefficients)
                )
                assert mine == oracle
                # every degree <= 4 factor is irreducible per bounded search
                for g, m in fact.factors:
                    if 2 <= g.degree <= 4:
                        ints = tuple(int(c) for c in g.coefficients)
                        assert bruteforce.bounded_factor_search(ints) == [
                            (ints, 1)
                        ]
        # constructed products: full factor-set recovery against the oracle
        small_irreducibles = [
            (1, 0), (0, 1), (1, -1), (1, 1), (2, -3), (1, 0, 1), (4, 0, 27),
            (1, 1, 1), (2, 0, 0, 0, 3),
        ]
        for _ in range(300):
            picks = {}
            degree = 0
            while degree < 10:
                cand = rng.choice(small_irreducibles)
                mult = rng.randint(1, 3)
                if degree + (len(cand) - 1) * mult > 12:
                    break
                picks[cand] = picks.get(cand, 0) + mult
                degree += (len(cand) - 1) * mult
            if not picks:
                continue
            product = (1,)
            for cand, mult in picks.items():
                for _ in range(mult):
                    product = bruteforce.poly_mul(product, cand)
            f = BinaryForm.from_coefficients(len(product) - 1, product)
            fact = factor_over_rationals(f)
            got = {
                tuple(int(c) for c in g.coefficients): m
                for g, m in fact.factors
            }
            assert got == picks
            assert fact.content == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


# -- 9: degree rule --------------------------------------------------------------------------------


def test_criterion_09_degree_rule():
    with criterion(9, "degrees 2..9: coreg = coreg1 = coreg2 = 0, toric model"):
        for d in range(2, 10):
            report = degree_rule(d)
            assert report.coreg == 0
            assert report.coreg1 == 0
            assert report.coreg2 == 0
            assert report.toric_model is True
        with pytest.raises(ValueError):
            degree_rule(1)


# -- 10: the headline dichotomy over the catalog -----------------------------------------------------


def test_criterion_10_dichotomy_over_catalog():
    with criterion(10, "catalog dichotomy: coreg = 1 exactly for isotrivial "
                       "witnesses outside {2I0*, I0*+2III}"):
        exceptional = [
            {("I0*", None, 2)},
            {("I0*", None, 1), ("III", None, 2)},
        ]
        for witness in witness_catalog():
            report = classify_surface(witness.equation)
            expected_coreg = (
                1 if report.isotrivial and fibers_of(report) not in exceptional
                else 0
            )
            assert report.coreg == expected_coreg, witness.name
            assert report.coreg == witness.coreg[2], witness.name