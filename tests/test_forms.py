"""The kernel product, gcd, squarefree splitting, factorization, valuations."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from delpezzo import forms
from delpezzo.errors import ZeroFormError
from delpezzo.forms import (
    INFINITY,
    BinaryForm,
    Factorization,
    _dehomogenize,
    _u_mul,
    _u_squarefree_parts,
    _y_part,
    _valuation_at_irreducible,
    factor_over_rationals,
    form_gcd,
)
from delpezzo.sextic import parse_binary_form

import bruteforce


def form(text: str, degree: int) -> BinaryForm:
    return parse_binary_form(text, degree)


def as_tuple(f: BinaryForm) -> tuple:
    return tuple(int(c) for c in f.coefficients)


def test_string_round_trips_through_parser():
    f = form("-2*x^3 + 1/3*x*y^2 - y^3", 3)
    assert parse_binary_form(str(f), 3) == f


# -- the kernel product ------------------------------------------------------------


def test_u_mul_matches_poly_mul():
    # kernel lists of any lengths, the constant lists [c] and zero lists
    # among them; a product keeps the length of its degree even when zero
    rng = random.Random(9000)
    lists = [[0], [1], [-3], [0, 0, 0], [0, 1], [5, 0, 0, -2]]
    lists += [[rng.choice([0, 0, rng.randint(-99, 99), rng.randint(-2**80, 2**80)])
               for _ in range(rng.randint(1, 13))] for _ in range(60)]
    for a in lists:
        for b in lists:
            product = _u_mul(a, b)
            assert product == list(bruteforce.poly_mul(tuple(a), tuple(b)))
            assert len(product) == len(a) + len(b) - 1
            assert all(type(c) is int for c in product)


# -- gcd ---------------------------------------------------------------------------


def test_gcd_basic():
    a = form("(x-y)^2*x", 3)
    b = form("(x-y)*y", 2)
    assert form_gcd(a, b) == form("x-y", 1)


def test_gcd_with_pure_power_place():
    a = form("x^5*y", 6)
    b = form("x^10*(4*x^2+27*y^2)", 12)
    assert form_gcd(a, b) == form("x^5", 5)


def test_gcd_with_zero_is_primitive_part():
    f = form("6*x^2 - 9*y^2", 2)
    assert form_gcd(f, form("0", 4)) == form("2*x^2 - 3*y^2", 2)
    assert form_gcd(form("0", 4), f) == form("2*x^2 - 3*y^2", 2)


def test_gcd_both_zero_rejected():
    with pytest.raises(ZeroFormError):
        form_gcd(form("0", 1), form("0", 2))


def test_gcd_divides_both():
    a = form("(2*x+3*y)^2*(x-5*y)*x^2", 5)
    b = form("(2*x+3*y)*(x-5*y)^3*y", 5)
    g = form_gcd(a, b)
    assert g == form("(2*x+3*y)*(x-5*y)", 2)
    assert bruteforce.try_divide(as_tuple(a), as_tuple(g)) is not None
    assert bruteforce.try_divide(as_tuple(b), as_tuple(g)) is not None


# -- squarefree decomposition (Yun, on the dehomogenization t = x/y) -------------------
#
# _dehomogenize(f) is (k, u): y^k times the primitive u(t) = f(t, 1), low to
# high, with the content and the sign of f taken out.  _y_part does the same
# for a kernel list, whose trailing zeros count the power of y.


def _u_product(parts):
    out = [1]
    for g, m in parts:
        for _ in range(m):
            out = list(bruteforce.poly_mul(tuple(out), tuple(g)))
    return out


def test_squarefree_cube():
    assert _dehomogenize(form("x^3*y^3", 6)) == (3, [0, 0, 0, 1])
    assert _u_squarefree_parts([0, 0, 0, 1]) == [([0, 1], 3)]
    assert _u_squarefree_parts([1, 0, 3, 0, 3, 0, 1]) == [([1, 0, 1], 3)]  # (t^2+1)^3


def test_squarefree_mixed_multiplicities():
    k, u = _dehomogenize(form("(x-y)^2*x^3*y^7", 12))
    assert k == 7
    assert _u_squarefree_parts(u) == [([-1, 1], 2), ([0, 1], 3)]


def test_squarefree_already_squarefree():
    assert _u_squarefree_parts([1, 0, 1]) == [([1, 0, 1], 1)]
    assert _u_squarefree_parts([5]) == []


def test_squarefree_content_and_reconstruction():
    k, u = _dehomogenize(form("-12*(x-y)^2*(x+y)*y^4", 7))
    assert k == 4 and u == [1, -1, -1, 1]  # (t-1)^2 (t+1), content -12 gone
    parts = _u_squarefree_parts(u)
    assert parts == [([1, 1], 1), ([-1, 1], 2)]
    assert _u_product(parts) == u


def test_y_part_reads_the_power_of_y_from_trailing_zeros():
    # 6 x^2 y^3 - 9 x^3 y^2 = y^2 x^2 (6 y - 9 x)
    assert _y_part([0, 0, 6, -9, 0, 0]) == (2, [0, 0, -2, 3])
    assert _y_part([4]) == (0, [1])
    assert _y_part([0, 0, 7]) == (0, [0, 0, 1])
    assert _dehomogenize(form("6*x^2*y^3 - 9*x^3*y^2", 5)) == (2, [0, 0, -2, 3])
    with pytest.raises(ZeroFormError):
        _y_part([0, 0, 0])


def test_squarefree_zero_rejected():
    # the zero form has no dehomogenization, so it never reaches Yun
    with pytest.raises(ZeroFormError):
        _dehomogenize(form("0", 3))


# -- irreducible factorization ---------------------------------------------------------


def test_factor_difference_of_squares():
    fact = factor_over_rationals(form("x^2-y^2", 2))
    assert fact.content == 1
    assert fact.factors == ((form("x-y", 1), 1), (form("x+y", 1), 1))


def test_factor_discriminant_shape():
    fact = factor_over_rationals(form("-16*x^10*(4*x^2+27*y^2)", 12))
    assert fact.content == -16
    assert fact.factors == ((form("x", 1), 10), (form("4*x^2+27*y^2", 2), 1))
    # the quadratic has no rational roots: 4 t^2 + 27 != 0 over Q
    assert bruteforce.linear_factors((4, 0, 27)) == {}


def test_factor_with_negative_content():
    fact = factor_over_rationals(form("-1728*(x-y)^2*x^3*y^7", 12))
    assert fact.content == -1728
    assert set(fact.factors) == {
        (form("x-y", 1), 2),
        (form("x", 1), 3),
        (form("y", 1), 7),
    }
    # canonical order: degree first, then coefficient tuples
    assert fact.factors == tuple(
        sorted(fact.factors, key=lambda item: item[0].sort_key())
    )


def test_factor_constant_form():
    fact = factor_over_rationals(form("7/3", 0))
    assert fact.content == Fraction(7, 3) and fact.factors == ()


def test_factor_zero_rejected():
    with pytest.raises(ZeroFormError):
        factor_over_rationals(form("0", 6))


def test_factor_normalization_and_irreducibility():
    f = form("(2*x-3*y)^2*(-5)*(x^2+x*y+y^2)*y^3", 7)
    fact = factor_over_rationals(f)
    assert _expanded(fact) == f
    for factor, mult in fact.factors:
        assert factor.leading_coefficient > 0
        ints = [int(c) for c in factor.coefficients]
        assert math.gcd(*(abs(v) for v in ints)) == 1
        if factor.degree <= 3 and factor.degree >= 2:
            # rational root theorem: degree 2-3 irreducible iff no linear factor
            assert bruteforce.linear_factors(tuple(ints)) == {}
        if factor.degree == 4:
            assert bruteforce.bounded_factor_search(tuple(ints)) == [(tuple(ints), 1)]
    # multiplicities match the independent oracle
    assert dict(bruteforce.linear_factors(as_tuple(f))) == {
        (2, -3): 2,
        (0, 1): 3,
    }


# -- differential test against Zassenhaus ------------------------------------------------


def zassenhaus_reference(f: BinaryForm) -> Factorization:
    """The factorization of f by sympy's dup_zz_factor alone."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor

    k = next(i for i, c in enumerate(f.coefficients) if c)
    rest = f.coefficients[k:]
    den = math.lcm(*(Fraction(c).denominator for c in rest))
    lead, raw = dup_zz_factor([ZZ(int(c * den)) for c in rest], ZZ)
    content = Fraction(int(lead), den)
    factors = [(form("y", 1), k)] if k else []
    for coeffs, mult in raw:
        coeffs = [int(c) for c in coeffs]
        if coeffs[0] < 0:
            coeffs, content = [-c for c in coeffs], content * (-1) ** mult
        factors.append((BinaryForm.from_coefficients(len(coeffs) - 1, coeffs), mult))
    return Factorization(content, tuple(sorted(factors, key=lambda i: i[0].sort_key())))


@pytest.fixture
def zassenhaus_calls(monkeypatch):
    calls = []
    real = forms.dup_zz_factor

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(forms, "dup_zz_factor", counted)
    return calls


def _random_form(rng, degree, bits=16, lead=None):
    coeffs = [rng.randint(-(1 << bits), 1 << bits) or 1 for _ in range(degree + 1)]
    if lead is not None:
        coeffs[0] = lead
    return BinaryForm.from_coefficients(degree, coeffs)


def _without_rational_root(rng, degree, bits=8):
    """A random form of degree 2 or 3 with no linear factor, so irreducible."""
    while True:
        f = _random_form(rng, degree, bits)
        if not bruteforce.linear_factors(as_tuple(f)):
            return f


def _product(forms_):
    """The product of forms, by the oracle's convolution."""
    coefficients = (1,)
    for f in forms_:
        coefficients = bruteforce.poly_mul(coefficients, f.coefficients)
    return BinaryForm.from_coefficients(len(coefficients) - 1, coefficients)


def _scaled(f: BinaryForm, c) -> BinaryForm:
    return BinaryForm.from_coefficients(f.degree, (c * a for a in f.coefficients))


def _expanded(fact: Factorization) -> BinaryForm:
    return _scaled(_product(g for g, m in fact.factors for _ in range(m)), fact.content)


SMALL_PRIMES_PRODUCT = math.prod(forms._SMALL_PRIMES)


def test_factor_irreducible_degrees_2_to_12_without_zassenhaus(zassenhaus_calls):
    rng = random.Random(9001)
    for degree in range(2, 13):
        irreducible = 0
        for _ in range(12):
            f = _random_form(rng, degree, rng.choice([4, 16, 64]))
            expected = zassenhaus_reference(f)
            assert factor_over_rationals(f) == expected, f
            irreducible += len(expected.factors) == 1
        assert irreducible >= 10, degree
    assert zassenhaus_calls == []


def test_factor_products_of_linear_forms_without_zassenhaus(zassenhaus_calls):
    rng = random.Random(9002)
    for _ in range(150):
        linear = [_random_form(rng, 1, rng.choice([2, 8, 40]))
                  for _ in range(rng.randint(2, 12))]
        f = _scaled(_product(linear), Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        assert factor_over_rationals(f) == zassenhaus_reference(f), f
    assert zassenhaus_calls == []


def test_factor_products_of_quadratics_and_cubics_fall_back_to_zassenhaus(zassenhaus_calls):
    rng = random.Random(9003)
    cases = [form("(x^2+y^2)*(x^2+2*y^2)", 4), form("x^4+y^4", 4)]  # x^4+1 splits mod every p
    for _ in range(60):
        pieces = [_without_rational_root(rng, rng.choice([2, 3]))
                  for _ in range(rng.randint(2, 3))]
        pieces += [_random_form(rng, 1, 6) for _ in range(rng.randint(0, 2))]
        cases.append(_product(pieces))
    for f in cases:
        zassenhaus_calls.clear()
        expected = zassenhaus_reference(f)
        assert factor_over_rationals(f) == expected, f
        nonlinear = [g for g, _ in expected.factors if g.degree > 1]
        # a product of nonlinear pieces leaves no rational root and no proof
        assert len(zassenhaus_calls) == (len(nonlinear) > 1 or nonlinear[0].degree > 3)
        assert all(len(u) - 1 == sum(g.degree for g in nonlinear) for u in zassenhaus_calls)


def test_factor_with_lead_divisible_by_the_small_primes():
    rng = random.Random(9004)
    leads = [SMALL_PRIMES_PRODUCT, SMALL_PRIMES_PRODUCT * 1009, 2 * 3 * 5 * 7, 2**40 * 3**20]
    for lead in leads:
        for degree in range(2, 9):
            f = _random_form(rng, degree, 12, lead=lead)
            assert factor_over_rationals(f) == zassenhaus_reference(f), f
            g = _product([_random_form(rng, 1, 4, lead=lead), _random_form(rng, degree, 6)])
            assert factor_over_rationals(g) == zassenhaus_reference(g), g


def test_factor_non_squarefree_forms():
    rng = random.Random(9005)
    for _ in range(80):
        pieces = [_random_form(rng, rng.randint(1, 3), 5) for _ in range(rng.randint(1, 3))]
        f = _product(p for p in pieces for _ in range(rng.randint(1, 4)))
        assert factor_over_rationals(f) == zassenhaus_reference(f), f


def test_factor_forms_with_powers_of_x_and_y():
    rng = random.Random(9006)
    for _ in range(60):
        kx, ky = rng.randint(0, 3), rng.randint(1, 4)
        f = _product([form("x", 1)] * kx + [form("y", 1)] * ky
                     + [_random_form(rng, rng.randint(1, 6), 10)])
        assert factor_over_rationals(f) == zassenhaus_reference(f), f


def test_factor_coefficients_past_the_int_str_limit():
    rng = random.Random(9007)
    huge = 10**4400 + 3
    linear = BinaryForm.from_coefficients(1, [huge, 3])
    cases = [
        linear,
        _scaled(_product([linear, form("x^2+7*y^2", 2)]), huge),
        BinaryForm.from_coefficients(2, [huge, 0, 27 * huge**2 + 1]),
    ]
    for degree in (3, 5):
        cases.append(_random_form(rng, degree, 14700))  # about 4,400 digits
        cases.append(_product([_random_form(rng, 1, 14700), _random_form(rng, degree, 30)]))
    for f in cases:
        assert factor_over_rationals(f) == zassenhaus_reference(f)


def test_rational_str_past_the_int_str_limit():
    assert forms.rational_str(-12) == "-12"
    assert forms.rational_str(Fraction(-7, 3)) == "-7/3"
    assert forms.rational_str(Fraction(6, 3)) == "2"
    big = 7 * 10**5000 + 123
    assert forms.rational_str(big) == "7" + "0" * 4997 + "123"
    assert forms.rational_str(-big) == "-7" + "0" * 4997 + "123"
    assert forms.rational_str(Fraction(1, 10**4400)) == "1/1" + "0" * 4400
    assert forms.rational_str(10**3000 * (10**2000 - 1)) == "9" * 2000 + "0" * 3000
    f = BinaryForm.from_coefficients(1, [big, -1])
    assert str(f) == "7" + "0" * 4997 + "123*x - y"


# -- valuation at an irreducible place ------------------------------------------------------


def test_valuation_examples():
    v = _valuation_at_irreducible
    assert v(form("x^5*y", 6), form("x", 1)) == 5
    assert v(form("0", 6), form("x", 1)) == INFINITY
    assert v(form("(x-y)^2*x^3*y^7", 12), form("x-y", 1)) == 2
    assert v(form("(x-y)^2*x^3*y^7", 12), form("y", 1)) == 7
    assert v(form("x^2+y^2", 2), form("x-y", 1)) == 0
    assert v(form("(x^2+y^2)^2*(x^2-2*y^2)", 6), form("x^2+y^2", 2)) == 2


def test_valuation_rejects_bad_places():
    # a multiple of y other than y itself is reducible or not primitive
    with pytest.raises(ValueError):
        _valuation_at_irreducible(form("x^2", 2), form("x*y", 2))
    with pytest.raises(ValueError):
        _valuation_at_irreducible(form("x^2", 2), form("2*y", 1))


def test_valuation_rejects_a_constant_place():
    # every power of a unit divides f, so no largest one exists
    with pytest.raises(ValueError):
        _valuation_at_irreducible(form("x^2+y^2", 2), form("3", 0))
    with pytest.raises(ValueError):
        _valuation_at_irreducible(form("0", 2), form("1", 0))


def test_valuation_scale_invariant_in_place():
    assert _valuation_at_irreducible(form("(2*x+4*y)^3*y^3", 6), form("x+2*y", 1)) == 3


# -- property tests -----------------------------------------------------------------------

coefficient = st.integers(min_value=-50, max_value=50)


@st.composite
def binary_forms(draw, max_degree=12):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = draw(
        st.lists(coefficient, min_size=degree + 1, max_size=degree + 1)
    )
    return BinaryForm.from_coefficients(degree, coeffs)


nonzero_forms = binary_forms().filter(lambda f: not f.is_zero)


@given(nonzero_forms)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_factorization_round_trip(f):
    fact = factor_over_rationals(f)
    assert _expanded(fact) == f
    assert sum(m * g.degree for g, m in fact.factors) == f.degree
    # pairwise non-proportional (they are primitive with positive lead, so
    # non-proportional means distinct)
    polys = [g for g, _ in fact.factors]
    assert len(set(polys)) == len(polys)


@given(nonzero_forms)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_squarefree_parts_are_squarefree_and_coprime(f):
    _, u = _dehomogenize(f)
    parts = _u_squarefree_parts(u)
    assert _u_product(parts) == u
    assert [m for _, m in parts] == sorted({m for _, m in parts})
    # each g homogenized at its own degree, so y divides none of them
    gs = [BinaryForm.from_coefficients(len(g) - 1, g[::-1]) for g, _ in parts]
    for g in gs:
        # squarefree: every linear factor of g appears exactly once, and the
        # full factorization of g has multiplicity-one factors
        assert all(m == 1 for m in bruteforce.linear_factors(as_tuple(g)).values())
        assert all(m == 1 for _, m in factor_over_rationals(g).factors)
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            assert form_gcd(gs[i], gs[j]).degree == 0


@given(nonzero_forms, nonzero_forms, binary_forms(max_degree=2).filter(lambda f: not f.is_zero),
       st.integers(min_value=0, max_value=2))
@example(BinaryForm(2, (0, 1, 0)), BinaryForm(2, (0, 0, 1)), BinaryForm(0, (1,)), 0)  # y
@example(BinaryForm(1, (0, 1)), BinaryForm(2, (1, 0, 1)), BinaryForm(1, (0, 1)), 2)  # y^2
@settings(max_examples=120, derandomize=True, deadline=None)
def test_gcd_divides_and_is_maximal(a, b, c, k):
    # random forms are almost always coprime; a shared c^k makes maximality bite
    a, b = _product([a] + [c] * k), _product([b] + [c] * k)
    g = form_gcd(a, b)
    ga = bruteforce.try_divide(tuple(c for c in a.coefficients), tuple(g.coefficients))
    gb = bruteforce.try_divide(tuple(c for c in b.coefficients), tuple(g.coefficients))
    assert ga is not None and gb is not None
    # maximality: any common irreducible factor divides g
    fa = {p: m for p, m in factor_over_rationals(a).factors}
    fb = {p: m for p, m in factor_over_rationals(b).factors}
    for p in set(fa) & set(fb):
        want = min(fa[p], fb[p])
        assert bruteforce.multiplicity(as_tuple(p), as_tuple(g)) == want


def test_oracle_divides_int_forms_as_over_the_rationals():
    """bruteforce.try_divide divides int forms in integers and forms of
    Fractions by long division over Q; both give the same quotient, number
    types included, or None."""
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(3000):
        cand = tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 4)))
        if not any(cand):
            continue
        cofactor = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 4)))
        form = bruteforce.poly_mul(cand, cofactor)
        if rng.random() < 0.5:  # most often no multiple of cand any more
            i = rng.randrange(len(form))
            form = form[:i] + (form[i] + rng.choice((-3, -1, 1, 2)),) + form[i + 1:]
        if rng.random() < 0.4:
            cand = bruteforce.poly_scale(rng.choice((2, 3, -4, 6)), cand)
        if not any(form):
            continue
        got = bruteforce.try_divide(form, cand)
        want = bruteforce.try_divide(tuple(map(Fraction, form)), tuple(map(Fraction, cand)))
        assert got == want, (form, cand)
        assert got is None or list(map(type, got)) == list(map(type, want)), (form, cand)
        lead = next(c for c in cand if c)
        seen["divides" if got else "does not divide"] += 1
        seen["fractional quotient"] += bool(got) and any(type(c) is Fraction for c in got)
        seen["non-primitive"] += math.gcd(*cand) > 1
        seen["negative lead"] += lead < 0
        seen["y divides cand"] += cand[0] == 0
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


@given(nonzero_forms)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_linear_factors_match_rational_root_oracle(f):
    fact = factor_over_rationals(f)
    mine = {
        tuple(int(c) for c in g.coefficients): m
        for g, m in fact.factors
        if g.degree == 1
    }
    oracle = bruteforce.linear_factors(as_tuple(f))
    assert mine == oracle
