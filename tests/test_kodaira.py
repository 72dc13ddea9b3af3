"""Per-place classification, fiber configurations and the reference data."""

import random
from collections import Counter

import pytest

import bruteforce
from delpezzo import forms
from delpezzo.errors import (
    InconsistentValuationError,
    InternalInvariantError,
    InvalidSurfaceError,
    NonMinimalError,
)
from delpezzo.forms import INFINITY, Y_FORM, BinaryForm
from delpezzo.kodaira import (
    FiberConfiguration,
    KodairaType,
    classify_fibration,
    classify_place,
    configuration,
    fiber_properties,
)
from delpezzo.sextic import parse_binary_form
from delpezzo.weierstrass import weierstrass_data
from perfbench import oracle


def form(text, degree):
    return parse_binary_form(text, degree)


def T(tag, n=None):
    return KodairaType(tag, n)


# -- classify_place ---------------------------------------------------------------


@pytest.mark.parametrize(
    "triple, expected",
    [
        ((INFINITY, 5, 10), T("II*")),
        ((INFINITY, 1, 2), T("II")),
        ((2, 3, 7), T("In*", 1)),
        ((1, 2, 3), T("III")),
        ((1, 1, 2), T("II")),
        ((0, 0, 3), T("In", 3)),
        ((0, 0, 1), T("In", 1)),
        ((2, 3, 6), T("I0*")),
        ((3, 3, 6), T("I0*")),
        ((2, 4, 6), T("I0*")),
        ((INFINITY, 3, 6), T("I0*")),
        ((2, INFINITY, 6), T("I0*")),
        ((2, 3, 9), T("In*", 3)),
        ((3, 4, 8), T("IV*")),
        ((INFINITY, 4, 8), T("IV*")),
        ((3, 5, 9), T("III*")),
        ((3, INFINITY, 9), T("III*")),
        ((4, 5, 10), T("II*")),
        ((1, INFINITY, 3), T("III")),
        ((2, 2, 4), T("IV")),
        ((INFINITY, 2, 4), T("IV")),
    ],
)
def test_classify_place_table(triple, expected):
    assert classify_place(*triple) == expected


def test_classify_place_non_minimal():
    with pytest.raises(NonMinimalError):
        classify_place(4, 6, 12)
    with pytest.raises(NonMinimalError):
        classify_place(INFINITY, 6, 12)
    with pytest.raises(NonMinimalError):
        classify_place(5, INFINITY, 15)


def test_classify_place_inconsistent_triples():
    with pytest.raises(InconsistentValuationError):
        classify_place(1, 1, 3)  # min(3, 2) = 2 forced
    with pytest.raises(InconsistentValuationError):
        classify_place(0, 1, 1)  # min(0, 2) = 0 < 1
    with pytest.raises(InconsistentValuationError):
        classify_place(2, 3, 5)  # tie at 6 cannot drop below it
    with pytest.raises(InconsistentValuationError):
        classify_place(INFINITY, INFINITY, 12)
    with pytest.raises(InconsistentValuationError):
        classify_place(0, 0, 0)


def test_classify_place_total_on_consistent_triples():
    """Every arithmetically consistent triple classifies or is non-minimal;
    no unreachable state exists."""
    v4_range = list(range(0, 7)) + [INFINITY]
    v6_range = list(range(0, 9)) + [INFINITY]
    seen_types = set()
    for v4 in v4_range:
        for v6 in v6_range:
            if v4 == INFINITY and v6 == INFINITY:
                continue
            m4, m6 = 3 * v4, 2 * v6
            if m4 != m6:
                candidates = [min(m4, m6)]
            else:
                candidates = list(range(m4, m4 + 9))
            for vD in candidates:
                if vD < 1 or vD == INFINITY:
                    continue
                try:
                    t = classify_place(v4, v6, int(vD))
                    seen_types.add((t.tag, t.n))
                    assert fiber_properties(t).chi == vD
                except NonMinimalError:
                    assert v4 >= 4 and v6 >= 6
    tags = {tag for tag, _ in seen_types}
    assert tags == {"In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*"}


def test_euler_number_equals_vd_for_every_type():
    # chi cross-check used throughout: chi(classify(v4, v6, vD)) = vD
    for triple in [(0, 0, 5), (INFINITY, 1, 2), (1, 2, 3), (2, 2, 4),
                   (2, 3, 6), (2, 3, 8), (3, 4, 8), (3, 5, 9), (4, 5, 10)]:
        t = classify_place(*triple)
        assert fiber_properties(t).chi == triple[2]


# -- reference data per type -----------------------------------------------------------


def test_fiber_properties_reference_table():
    rows = {
        T("I0"): (None, 0, "any", 0),
        T("In", 1): (None, 1, "pole", 0),
        T("In", 5): (("A", 4), 5, "pole", 4),
        T("II"): (None, 2, "zero", 0),
        T("III"): (("A", 1), 3, "value1728", 1),
        T("IV"): (("A", 2), 4, "zero", 2),
        T("I0*"): (("D", 4), 6, "any", 4),
        T("In*", 2): (("D", 6), 8, "pole", 6),
        T("IV*"): (("E", 6), 8, "zero", 6),
        T("III*"): (("E", 7), 9, "value1728", 7),
        T("II*"): (("E", 8), 10, "zero", 8),
    }
    for t, (duval, chi, j_class, rank) in rows.items():
        props = fiber_properties(t)
        got_duval = None if props.duval is None else (props.duval.family,
                                                      props.duval.index)
        assert got_duval == duval
        assert props.chi == chi
        assert props.j_class == j_class
        assert props.rank == rank


def test_kodaira_type_validation_and_display():
    assert str(T("In", 3)) == "I3"
    assert str(T("In*", 1)) == "I1*"
    assert str(T("II*")) == "II*"
    with pytest.raises(ValueError):
        KodairaType("In")
    with pytest.raises(ValueError):
        KodairaType("II", 2)
    with pytest.raises(ValueError):
        KodairaType("In*", 0)
    with pytest.raises(ValueError):
        KodairaType("V")


# -- classify_fibration -------------------------------------------------------------------


def _classify(f4_text, f6_text):
    wd = weierstrass_data(form(f4_text, 4), form(f6_text, 6))
    return classify_fibration(wd)


def test_fibration_pure_sextic_e8():
    config = _classify("0", "x^5*y")
    assert config.entries == configuration(("II*", None, 1), ("II", None, 1)).entries
    by_poly = {str(p.poly): p for p in config.places}
    assert by_poly["x"].fiber == T("II*") and by_poly["x"].vD == 10
    assert by_poly["y"].fiber == T("II") and by_poly["y"].vD == 2


def test_fibration_conjugate_nodal_fibers():
    config = _classify("x^4", "x^5*y")
    assert config.entries == configuration(("II*", None, 1), ("In", 1, 2)).entries
    nodal = [p for p in config.places if p.fiber.tag == "In"]
    assert len(nodal) == 1
    assert nodal[0].poly == form("4*x^2+27*y^2", 2)
    assert nodal[0].geometric_degree == 2


def test_fibration_two_half_fibers():
    config = _classify("0", "x^3*y^3")
    assert config.entries == configuration(("I0*", None, 2),).entries
    assert len(config.places) == 2


def test_fibration_d6_shape():
    config = _classify("-3*(x^2-y^2)*y^2", "2*(x^2-y^2)*x*y^3")
    assert config.entries == configuration(("In*", 2, 1), ("II", None, 2)).entries


def test_fibration_chi_conservation_and_rank_bound():
    for f4_text, f6_text in [
        ("0", "x^5*y"),
        ("x^4", "x^5*y"),
        ("0", "x^3*y^3"),
        ("-3*(x-y)*x*y^2", "2*(x-y)*x^2*y^3"),
        ("x^2*y^2", "0"),
        ("x*y*(x-y)*(x-2*y)", "0"),
    ]:
        config = _classify(f4_text, f6_text)
        assert config.chi_total == 12
        assert sum(p.geometric_degree * p.vD for p in config.places) == 12
        assert config.rank_total <= 8
        for place in config.places:
            assert fiber_properties(place.fiber).chi == place.vD


def test_fibration_conjugate_degree_three_place():
    # f6 = x^6 - 2y^6 + x^3 y^3: irreducible cubic factors give conjugate fibers
    config = _classify("0", "x^6 + x^3*y^3 - 2*y^6")
    assert config.chi_total == 12
    assert all(p.vD == 2 for p in config.places)  # squarefree sextic, all II
    assert sum(p.geometric_degree for p in config.places) == 6
    assert sum(c for t, c in config.entries if t.tag == "II") == 6


def test_configuration_display():
    assert str(configuration(("In*", 1, 1), ("III", None, 1), ("II", None, 1))) == "I1* + III + II"
    assert str(configuration(("I0*", None, 2),)) == "2I0*"
    assert str(configuration(("II", None, 6),)) == "6II"


def test_places_are_read_lazily_without_changing_equality():
    wd = weierstrass_data(form("x^4", 4), form("x^5*y", 6))
    read, unread = classify_fibration(wd), classify_fibration(wd)
    assert read.places  # fills the cache of one of the two
    assert read == unread and hash(read) == hash(unread)
    assert read != classify_fibration(weierstrass_data(form("y^4", 4), form("x*y^5", 6)))


def test_the_split_runs_once_in_weierstrass_data(monkeypatch):
    # every Yun and order split starts with the modular coprimality check
    calls = Counter()
    for name in ("_u_coprime_mod_prime", "_u_gcd"):
        def counted(*args, _name=name, _original=getattr(forms, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(forms, name, counted)
    # delta = 1728 x^8 y^3 (2x + 9y): Yun and the order splits need gcds
    wd = weierstrass_data(form("-3*x^3*(x+4*y)", 4), form("2*x^4*(x^2+6*x*y+6*y^2)", 6))
    assert calls["_u_coprime_mod_prime"] and calls["_u_gcd"]
    calls.clear()
    config = classify_fibration(wd)
    assert not calls
    assert str(config) == "IV* + I3 + I1"
    assert classify_fibration(wd) == config and not calls


def test_places_must_add_up_to_the_entries():
    config = classify_fibration(weierstrass_data(form("0", 4), form("x^5*y", 6)))
    broken = FiberConfiguration(configuration(("II", None, 2)).entries, config.pieces)
    with pytest.raises(InternalInvariantError):
        broken.places


# -- the split against an independent oracle on structured pairs ------------------


def _small_form(rng, degree):
    while True:
        coefficients = [rng.randint(-3, 3) for _ in range(degree + 1)]
        f = BinaryForm.from_coefficients(degree, coefficients)
        if not f.is_zero:
            return f


def _special_place(rng):
    """y, a linear form, or a quadratic or cubic form (often irreducible)."""
    kind = rng.choice(("y", "linear", "quadratic", "cubic"))
    if kind == "y":
        return Y_FORM
    if kind == "linear":
        return BinaryForm.from_coefficients(1, [rng.randint(1, 3), rng.randint(-3, 3)])
    if kind == "quadratic":
        return BinaryForm.from_coefficients(
            2, [1, rng.randint(-2, 2), rng.choice((1, 2, 3, 5))])
    return BinaryForm.from_coefficients(
        3, [1, 0, rng.randint(-2, 2), rng.choice((2, 3, 5))])


def _form(coefficients):
    return BinaryForm.from_coefficients(len(coefficients) - 1, coefficients)


def _power_product(rng, p, e, degree):
    """A small constant times p^e times powers of small forms, of the degree."""
    f = bruteforce.poly_scale(rng.choice((-3, -2, -1, 1, 2, 3)),
                              bruteforce.poly_pow(p.coefficients, e))
    rest = degree - e * p.degree
    while rest:
        d = rng.randint(1, min(rest, 3))
        k = rng.randint(1, rest // d)
        f = bruteforce.poly_mul(f, bruteforce.poly_pow(_small_form(rng, d).coefficients, k))
        rest -= d * k
    return _form(f)


def structured_pair(rng):
    """(f4, f6) built from powers of small forms sharing a special place p.

    Products give the additive types; the tie f4 = -3 s^2 a^2 p^(2m),
    f6 = 2 s^3 a^3 p^(3m) + p^(3m+k) r cancels in 4 f4^3 + 27 f6^2 and gives
    I_k (m = 0) or I_k* (m = 1) at p."""
    p = _special_place(rng)
    if rng.random() < 0.3:
        m = 1 if p.degree == 1 and rng.random() < 0.5 else 0
        k = rng.randint(1, (6 - 3 * m) // p.degree)
        s = rng.choice((1, 2, -1))
        a = _small_form(rng, 2 - m)
        r = _small_form(rng, 6 - (3 * m + k) * p.degree)
        mul, power = bruteforce.poly_mul, bruteforce.poly_pow
        a, p, r = a.coefficients, p.coefficients, r.coefficients
        f4 = bruteforce.poly_scale(-3 * s**2, mul(power(a, 2), power(p, 2 * m)))
        f6 = bruteforce.poly_add(
            bruteforce.poly_scale(2 * s**3, mul(power(a, 3), power(p, 3 * m))),
            mul(power(p, 3 * m + k), r))
        return _form(f4), _form(f6)
    f4 = _power_product(rng, p, rng.randint(0, 4 // p.degree), 4)
    f6 = _power_product(rng, p, rng.randint(0, 6 // p.degree), 6)
    zero = rng.random()
    if zero < 0.15:
        f4 = form("0", 4)
    elif zero < 0.3:
        f6 = form("0", 6)
    return f4, f6


def _reach_key(place):
    if place.poly == Y_FORM:
        kind = "y"
    else:
        kind = "rational" if place.poly.degree == 1 else "conjugate"
    tag = place.fiber.tag
    return kind, "In>=2" if tag == "In" and place.fiber.n >= 2 else tag


def _multiplicity(place, f):
    """The brute-force valuation of f at place; infinite for the zero form."""
    if f.is_zero:
        return INFINITY
    return bruteforce.multiplicity(tuple(place.coefficients), tuple(f.coefficients))


def test_split_matches_oracle_on_structured_pairs():
    rng = random.Random(20261018)
    reached, accepted = set(), 0
    for _ in range(500):
        f4, f6 = structured_pair(rng)
        try:
            wd = weierstrass_data(f4, f6)
        except InvalidSurfaceError:
            continue
        accepted += 1
        config = classify_fibration(wd)
        expected = oracle.fiber_configuration(f4.coefficients, f6.coefficients)
        assert config.multiset() == expected
        for place in config.places:
            triple = tuple(_multiplicity(place.poly, f) for f in (wd.f4, wd.f6, wd.delta))
            assert (place.v4, place.v6, place.vD) == triple, (f4, f6, place)
            reached.add(_reach_key(place))
    assert accepted > 400
    every = {"II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*", "In>=2"}
    assert {tag for kind, tag in reached if kind == "rational"} >= every
    assert {tag for kind, tag in reached if kind == "y"} >= every
    # deg * vD <= 12 leaves conjugate places only the types with vD <= 6
    assert {tag for kind, tag in reached if kind == "conjugate"} >= {
        "II", "III", "IV", "I0*", "In>=2"
    }
