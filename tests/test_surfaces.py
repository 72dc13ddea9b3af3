"""Coregularity decisions, Picard rank, labels, moduli, full pipeline."""

import itertools
import random
from fractions import Fraction

import pytest

import delpezzo.forms as forms
import delpezzo.kodaira as kodaira
from delpezzo.catalog import witness_catalog
from delpezzo.errors import InvalidSurfaceError
from delpezzo.forms import BinaryForm
from delpezzo.kodaira import DuValLabel, configuration
from delpezzo.sextic import parse_binary_form, parse_sextic
from delpezzo.surfaces import (
    classify_surface,
    classify_weierstrass,
    decide_coregularity,
    degree_rule,
    duval_configuration,
    label_special,
    moduli_dimension,
    picard_rank,
    SingularityConfig,
)
from delpezzo.weierstrass import JInvariant, reduce_to_short, weierstrass_data
from perfbench import gen, workloads


def form(text, degree):
    return parse_binary_form(text, degree)


def sing(*items):
    return SingularityConfig.from_counts(
        {DuValLabel(fam, idx): count for fam, idx, count in items}
    )


CONSTANT_J = JInvariant(True, Fraction(7, 5))
J_ZERO = JInvariant(True, Fraction(0))
J_1728 = JInvariant(True, Fraction(1728))
J_MOVING = JInvariant(False)


# -- singularities and rank ------------------------------------------------------


def test_duval_configuration_examples():
    assert duval_configuration(
        configuration(("II*", None, 1), ("II", None, 1))
    ) == sing(("E", 8, 1))
    assert duval_configuration(
        configuration(("I0*", None, 1), ("III", None, 2))
    ) == sing(("D", 4, 1), ("A", 1, 2))
    assert duval_configuration(configuration(("II", None, 6),)) == sing()


def test_duval_configuration_In_shift():
    config = configuration(("In", 3, 1), ("In", 1, 2), ("IV*", None, 1),
                           ("In", 4, 1))
    assert duval_configuration(config) == sing(
        ("E", 6, 1), ("A", 2, 1), ("A", 3, 1)
    )


def test_picard_rank_examples():
    assert picard_rank(sing(("E", 8, 1))) == 1
    assert picard_rank(sing(("D", 4, 1))) == 5
    assert picard_rank(sing()) == 9
    with pytest.raises(ValueError):
        picard_rank(sing(("E", 8, 1), ("A", 1, 1)))


# -- coregularity ------------------------------------------------------------------


def test_coreg_two_half_fibers_any_constant_j():
    for j in (CONSTANT_J, J_ZERO, J_1728):
        got = decide_coregularity(configuration(("I0*", None, 2),), j)
        assert (got.coreg1, got.coreg2, got.coreg, got.toric_model) == (1, 0, 0, False)


def test_coreg_extremal_j_zero():
    got = decide_coregularity(
        configuration(("II*", None, 1), ("II", None, 1)), J_ZERO
    )
    assert (got.coreg1, got.coreg2, got.coreg, got.toric_model) == (1, 1, 1, False)


def test_coreg_instar_moving_j():
    got = decide_coregularity(
        configuration(("In*", 1, 1), ("III", None, 1), ("II", None, 1)), J_MOVING
    )
    assert (got.coreg1, got.coreg2, got.coreg, got.toric_model) == (1, 0, 0, False)


def test_coreg_nodal_moving_j():
    got = decide_coregularity(
        configuration(("II*", None, 1), ("In", 1, 2)), J_MOVING
    )
    assert (got.coreg1, got.coreg2, got.coreg, got.toric_model) == (0, 0, 0, True)


def test_coreg_half_fiber_with_two_a1_j_1728():
    got = decide_coregularity(
        configuration(("I0*", None, 1), ("III", None, 2)), J_1728
    )
    assert (got.coreg1, got.coreg2, got.coreg, got.toric_model) == (1, 0, 0, False)


def test_coreg_chain_inequality_everywhere():
    cases = [
        (configuration(("IV", None, 3),), J_ZERO),
        (configuration(("III", None, 4),), J_1728),
        (configuration(("In", 9, 1), ("In", 1, 3)), J_MOVING),
        (configuration(("In*", 2, 1), ("II", None, 2)), J_MOVING),
    ]
    for config, j in cases:
        got = decide_coregularity(config, j)
        assert got.coreg <= got.coreg2 <= got.coreg1
        assert got.toric_model == (got.coreg1 == 0)


# -- labels and moduli ---------------------------------------------------------------


def test_label_extremal():
    labels = label_special(configuration(("IV*", None, 1), ("IV", None, 1)))
    assert set(labels) == {"extremal", "X'1(E6+A2)"}


def test_label_d6():
    labels = label_special(configuration(("In*", 2, 1), ("II", None, 2)))
    assert set(labels) == {"X'1(D6)"}


def test_label_none():
    assert label_special(configuration(("II", None, 6),)) == ()


def test_label_2d4():
    assert set(label_special(configuration(("I0*", None, 2),))) == {"X1(2D4)"}


def test_moduli_dimension_rows():
    assert moduli_dimension(configuration(("II", None, 6),), 9, J_ZERO) == 3
    assert moduli_dimension(
        configuration(("IV*", None, 1), ("IV", None, 1)), 1, J_ZERO
    ) == 0
    assert moduli_dimension(
        configuration(("II*", None, 1), ("In", 1, 2)), 1, J_MOVING
    ) is None
    assert moduli_dimension(configuration(("I0*", None, 2),), 1, CONSTANT_J) is None


# -- degree rule ------------------------------------------------------------------------


def test_degree_rule_all_degrees():
    for d in range(2, 10):
        report = degree_rule(d)
        assert (report.coreg, report.coreg1, report.coreg2) == (0, 0, 0)
        assert report.toric_model is True
        assert report.fibers is None and report.sing is None
    with pytest.raises(ValueError, match="classify_surface"):
        degree_rule(1)
    with pytest.raises(ValueError):
        degree_rule(0)
    with pytest.raises(ValueError):
        degree_rule(10)


# -- full pipeline -----------------------------------------------------------------------


def test_classify_surface_extremal_row():
    report = classify_surface("w^2 + z^3 + x^4*y^2")
    assert str(report.fibers) == "IV* + IV"
    assert str(report.sing) == "E6 + A2"
    assert report.rho == 1
    assert report.isotrivial and report.j.value == 0
    assert report.coreg == 1
    assert set(report.labels) == {"extremal", "X'1(E6+A2)"}
    assert report.moduli_dim == 0


def test_classify_surface_non_isotrivial_specialization():
    report = classify_surface(
        "w^2 + z^3 - 3*x^3*(x+4*y)*z + 2*x^4*(x^2+6*x*y+6*y^2)"
    )
    assert str(report.fibers) == "IV* + I3 + I1"
    assert str(report.sing) == "E6 + A2"
    assert report.coreg1 == 0 and report.coreg == 0
    assert report.toric_model is True
    assert not report.isotrivial


def test_classify_surface_determinism():
    text = "w^2 + z^3 - 3*(x-y)*x*y^2*z + 2*(x-y)*x^2*y^3"
    a = classify_surface(text).to_json()
    b = classify_surface(text).to_json()
    assert a == b


def test_full_reports_on_random_inputs_hold_invariants():
    rng = random.Random(77)
    accepted = 0
    rejected = 0
    while accepted < 150:
        f4 = BinaryForm.from_coefficients(4, [rng.randint(-20, 20) for _ in range(5)])
        f6 = BinaryForm.from_coefficients(6, [rng.randint(-20, 20) for _ in range(7)])
        try:
            report = classify_weierstrass(weierstrass_data(f4, f6))
        except InvalidSurfaceError as exc:
            rejected += 1
            assert exc.code in {"missing-w2", "missing-z3",
                                "zero-discriminant", "non-minimal"}
            continue
        accepted += 1
        assert report.fibers.chi_total == 12
        assert report.rho == 9 - report.sing.total_rank >= 1
        assert report.coreg <= report.coreg2 <= report.coreg1
        assert report.toric_model == (report.coreg1 == 0)
        has_pole = any(t.tag in ("In", "In*") for t, _ in report.fibers.entries)
        assert has_pole == (not report.isotrivial)


def test_classify_weierstrass_equals_equation_path():
    pairs = [
        ("0", "x^5*y"),
        ("x^4", "x^5*y"),
        ("-3*(x-y)*x*y^2", "-2*(x-y)*x^2*y^3"),
        ("x^2*y^2", "0"),
    ]
    for f4_text, f6_text in pairs:
        direct = classify_weierstrass(
            weierstrass_data(form(f4_text, 4), form(f6_text, 6))
        )
        via_text = classify_surface(
            f"w^2 - z^3 - ({f4_text})*z - ({f6_text})"
        )
        assert direct.to_json() == via_text.to_json()


def test_generic_verdicts_factor_nothing_and_output_factors_once(monkeypatch):
    factored, zassenhaus = [], []
    real = kodaira.factor_over_rationals

    def counted(form):
        factored.append(form)
        return real(form)

    monkeypatch.setattr(kodaira, "factor_over_rationals", counted)
    monkeypatch.setattr(forms, "dup_zz_factor", lambda *args: zassenhaus.append(args))
    lines = itertools.chain(
        (g.text for g in itertools.islice(gen.dense_stream(13), 100)),
        (case.text for case in itertools.islice(workloads.cli_cases(13), 100)),
    )
    named = 0
    for line in lines:
        try:
            report = classify_surface(line)
        except InvalidSurfaceError:
            continue
        assert factored == []
        report.to_json()
        higher = [p.poly for p in report.fibers.pieces if p.poly.degree > 1]
        assert sorted(factored, key=str) == sorted(higher, key=str)
        report.to_json()
        assert len(factored) == len(higher)
        named += bool(higher)
        factored.clear()
    assert zassenhaus == [] and named >= 120


def _int_unless_fractional(value):
    """int, or a Fraction that is not integral: never a float, never an
    integral Fraction."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def test_coefficients_are_ints_unless_fractional():
    cases = itertools.chain(
        (w.equation for w in witness_catalog()),
        (c.text for c in itertools.islice(workloads.transformed_cases(3), 100)),
        (c.text for c in itertools.islice(workloads.dense_cases(3), 10)),
    )
    rejected = 0
    for text in cases:
        sextic = parse_sextic(text)
        slots = (sextic.c_wz, sextic.c_w, sextic.c_z2, sextic.c_z, sextic.c_0)
        assert all(type(c) is int for c in (sextic.den, sextic.c_w2, sextic.c_z3) + sum(slots, ()))
        try:
            data = reduce_to_short(sextic)
        except InvalidSurfaceError:
            rejected += 1
            continue
        report = classify_weierstrass(data)
        assert report.j.value is None or _int_unless_fractional(report.j.value)
        forms_ = [data.f4, data.f6, data.delta]
        forms_ += [p.poly for p in report.fibers.places + report.fibers.pieces]
        for f in forms_:
            assert all(_int_unless_fractional(c) for c in f.coefficients), (text, f)
    assert rejected > 0
    with pytest.raises(TypeError):
        BinaryForm.from_coefficients(1, [1, 0.5])
