"""Witness catalog integrity and reference-table regeneration."""

from fractions import Fraction

import pytest

import delpezzo.catalog as catalog
import delpezzo.kodaira as kodaira
from delpezzo.catalog import (
    Witness,
    emit_tables,
    legendre_j,
    verify_witness,
    witness_catalog,
    witness_for_configuration,
)
from delpezzo.errors import TableMismatchError
from delpezzo.forms import factor_over_rationals
from delpezzo.sextic import parse_binary_form
from delpezzo.surfaces import classify_surface


def test_catalog_size_and_unique_names():
    witnesses = witness_catalog()
    assert len(witnesses) >= 20
    names = [w.name for w in witnesses]
    assert len(set(names)) == len(names)


def test_catalog_verifies_clean():
    assert {w.name: verify_witness(w) for w in witness_catalog()} == {
        w.name: [] for w in witness_catalog()}


def test_each_witness_is_factored_at_most_once(monkeypatch):
    calls = []
    real = kodaira.factor_over_rationals

    def counted(form):
        calls.append(form)
        return real(form)

    monkeypatch.setattr(kodaira, "factor_over_rationals", counted)
    for witness in witness_catalog():
        calls.clear()
        report = classify_surface(witness.equation)
        assert calls == [], witness.name
        report.to_json()
        report.to_json()
        higher = [p.poly for p in report.fibers.pieces if p.poly.degree > 1]
        assert sorted(calls, key=str) == sorted(higher, key=str), witness.name


def test_verify_witness_detects_mismatch():
    witness = witness_catalog()[0]
    broken = Witness(
        **{
            **witness.__dict__,
            "rho": 5,
            "coreg": (0, 0, 0),
        }
    )
    problems = verify_witness(broken)
    assert any("rho" in p for p in problems)
    assert any("coreg" in p for p in problems)


def test_verify_witness_reports_invalid_equation():
    witness = witness_catalog()[0]
    broken = Witness(**{**witness.__dict__, "equation": "w^2 + z^3 + x^6"})
    problems = verify_witness(broken)
    assert problems and "failed" in problems[0]


def test_table_row_counts_and_cells():
    text, data = emit_tables()
    assert len(data["j0"]["rows"]) == 10
    assert len(data["j1728"]["rows"]) == 4
    by_fibers = {row["fibers"]: row for row in data["j0"]["rows"]}
    assert by_fibers["3IV"]["sing"] == "3A2"
    assert by_fibers["3IV"]["coreg"] == 1
    assert by_fibers["3IV"]["rho"] == 3
    assert by_fibers["3IV"]["dim_moduli"] == 0
    assert by_fibers["2I0*"]["coreg"] == 0
    assert by_fibers["6II"]["rho"] == 9 and by_fibers["6II"]["dim_moduli"] == 3
    by_fibers_1728 = {row["fibers"]: row for row in data["j1728"]["rows"]}
    assert by_fibers_1728["I0* + 2III"]["coreg"] == 0
    assert by_fibers_1728["III* + III"]["coreg"] == 1
    assert "Isotrivial fibrations with j = 0" in text
    assert "x^5*y" in text


def test_table_mismatch_is_a_hard_failure(monkeypatch):
    original = witness_catalog()
    broken = []
    for witness in original:
        if witness.name == "j0/E8":
            witness = Witness(**{**witness.__dict__, "rho": 3})
        broken.append(witness)
    monkeypatch.setattr(catalog, "witness_catalog", lambda: tuple(broken))
    with pytest.raises(TableMismatchError, match="rho"):
        emit_tables()


def test_table_parameters_are_distinct():
    """The three chosen root parameters keep every advertised root simple."""
    params = {2, 3, 5}
    assert len(params) == 3 and not params & {0, 1}
    for witness in witness_catalog():
        if witness.table is None:
            continue
        degree = 6 if witness.table == "j0" else 4
        f = parse_binary_form(witness.table_f, degree)
        fact = factor_over_rationals(f)
        # multiplicities of the table polynomial match the fiber count data:
        # number of geometric fibers = number of distinct roots
        distinct_roots = sum(g.degree for g, _ in fact.factors)
        expected_fibers = sum(c for _, _, c in witness.fibers)
        assert distinct_roots == expected_fibers, witness.name


def test_legendre_j_values():
    assert legendre_j(Fraction(2)) == 1728
    assert legendre_j(Fraction(-1)) == 1728
    assert legendre_j(Fraction(1, 2)) == 1728
    assert legendre_j(Fraction(3)) == Fraction(21952, 9)
    assert legendre_j(Fraction(4)) == Fraction(35152, 9)
    assert legendre_j(Fraction(5)) == Fraction(148176, 25)
    with pytest.raises(ValueError):
        legendre_j(Fraction(1))


def test_witness_lookup_prefers_requested_table():
    key = frozenset({("I0*", None, 2)})
    assert witness_for_configuration(key, "j1728") == "j1728/2D4"
    assert witness_for_configuration(key, "j0") == "j0/2D4"
    assert witness_for_configuration(frozenset({("In", 12, 1)})) is None
