"""Reduction to short form, discriminant, j-invariant, validation."""

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import bruteforce
from test_kodaira import structured_pair

from delpezzo import weierstrass
from delpezzo.errors import (
    InvalidSurfaceError,
    MissingCubeTermError,
    MissingSquareTermError,
    NonMinimalError,
    ZeroDiscriminantError,
)
from delpezzo.catalog import witness_catalog
from delpezzo.forms import Y_FORM, BinaryForm
from delpezzo.kodaira import classify_fibration
from perfbench import workloads
from delpezzo.sextic import (
    GeneralSextic,
    parse_binary_form,
    parse_sextic,
    sextic_from_polynomial,
)
from delpezzo.weierstrass import (
    JInvariant,
    WeierstrassData,
    _j_from_parts,
    reduce_to_short,
    weierstrass_data,
)


def form(text, degree):
    return parse_binary_form(text, degree)


def _form(coefficients) -> BinaryForm:
    return BinaryForm.from_coefficients(len(coefficients) - 1, coefficients)


def _parts(f4: BinaryForm, f6: BinaryForm) -> tuple[tuple, tuple]:
    """f4^3 and f6^2 by the oracle's convolution, x-major."""
    return bruteforce.poly_pow(f4.coefficients, 3), bruteforce.poly_pow(f6.coefficients, 2)


def _delta(f4: BinaryForm, f6: BinaryForm) -> BinaryForm:
    """-16 (4 f4^3 + 27 f6^2) by the oracle's convolution."""
    cube, square = _parts(f4, f6)
    return _form([-16 * (4 * c + 27 * s) for c, s in zip(cube, square)])


def j_of(f4, f6):
    """j as weierstrass_data computes it, or from f4^3 and f6^2 alone for a
    pair it rejects as non-minimal."""
    try:
        return weierstrass_data(f4, f6).j
    except NonMinimalError:
        return _j_from_parts(*(list(reversed(part)) for part in _parts(f4, f6)))


# -- reduction -----------------------------------------------------------------


def test_reduce_short_input_with_plus_convention():
    # w^2 + z^3 + z*x^3*y = 0 is the same surface as w^2 = z^3 + x^3*y z
    # (substitute z -> -z); the reduced pair keeps f4 up to that symmetry
    wd = reduce_to_short(parse_sextic("w^2 + z^3 + z*x^3*y"))
    assert wd.f4 == form("x^3*y", 4)
    assert wd.f6.is_zero
    assert wd.j.constant and wd.j.value == 1728


def test_reduce_three_root_family_a2_recorded_oracle():
    # depressing z(z+xy)(z+2xy) with z -> z - xy gives f4 = -x^2 y^2, f6 = 0
    wd = reduce_to_short(parse_sextic("w^2 = z*(z+x*y)*(z+2*x*y)"))
    assert wd.f4 == form("-x^2*y^2", 4)
    assert wd.f6.is_zero
    assert wd.j.constant and wd.j.value == 1728


def test_reduce_three_root_family_a3_recorded_oracle():
    # a = 3: f4 = -(a^2-a+1)/3 x^2y^2 = -7/3 x^2y^2,
    #        f6 = (1+a)(2a-1)(a-2)/27 x^3y^3 = 20/27 x^3y^3
    wd = reduce_to_short(parse_sextic("w^2 = z*(z+x*y)*(z+3*x*y)"))
    assert wd.f4 == form("-7/3*x^2*y^2", 4)
    assert wd.f6 == form("20/27*x^3*y^3", 6)
    assert wd.j.constant and wd.j.value == Fraction(21952, 9)


def test_reduce_missing_square_or_cube_term():
    with pytest.raises(MissingSquareTermError):
        reduce_to_short(parse_sextic("w*x^3 + z^3 + x^6"))
    with pytest.raises(MissingCubeTermError):
        reduce_to_short(parse_sextic("w^2 + z^2*x^2 + x^6"))


def test_reduce_handles_completing_the_square():
    # (w + z*x + y^3)^2 = z^3 + x^4 z + x^5 y  expanded has wz and w terms
    wd_direct = weierstrass_data(form("x^4", 4), form("x^5*y", 6))
    text = (
        "w^2 + 2*w*z*x + 2*w*y^3 + z^2*x^2 + 2*z*x*y^3 + y^6"
        " = z^3 + x^4*z + x^5*y"
    )
    wd = reduce_to_short(parse_sextic(text))
    a = classify_fibration(wd)
    b = classify_fibration(wd_direct)
    assert a.entries == b.entries
    assert wd.j == wd_direct.j


# -- discriminant ------------------------------------------------------------------


def test_discriminant_vs_bare_cubic_discriminant():
    # the bare cubic discriminant of z^3 - 3(x-y)x y^2 z + 2(x-y)x^2y^3 is
    # -108 (x-y)^2 x^3 y^7; our normalization carries the fixed factor 16
    f4 = form("-3*(x-y)*x*y^2", 4)
    f6 = form("2*(x-y)*x^2*y^3", 6)
    delta = weierstrass_data(f4, f6).delta
    assert delta == form("16*(-108)*(x-y)^2*x^3*y^7", 12)


def test_discriminant_pure_sextic():
    delta = weierstrass_data(form("0", 4), form("x^5*y", 6)).delta
    assert delta == form("-432*x^10*y^2", 12)


def test_discriminant_zero_rejected():
    with pytest.raises(ZeroDiscriminantError):
        weierstrass_data(form("0", 4), form("0", 6))
    # 4 f4^3 = -27 f6^2 with both nonzero: f4 = -3u^2, f6 = 2u^3
    with pytest.raises(ZeroDiscriminantError):
        weierstrass_data(form("-3*x^2*y^2", 4), form("2*x^3*y^3", 6))
    with pytest.raises(ZeroDiscriminantError):
        weierstrass_data(form("-3/4*x^2*y^2", 4), form("1/4*x^3*y^3", 6))


def test_j_undefined_when_discriminant_vanishes_with_both_forms_nonzero():
    # 4 f4^3 + 27 f6^2 = 0 makes the j formula divide by zero;
    # weierstrass_data rejects the pair before it reads j
    # the kernel lists of f4^3 and f6^2 for f4 = -3 (xy)^2, f6 = 2 (xy)^3,
    # then for 4 f4 and 8 f6
    xy6 = [0] * 6 + [1] + [0] * 6
    for scale in (1, 64):
        with pytest.raises(ZeroDiscriminantError):
            _j_from_parts([-27 * scale * c for c in xy6], [4 * scale * c for c in xy6])


# -- j invariant ---------------------------------------------------------------------


def test_j_zero_and_1728():
    assert weierstrass_data(form("0", 4), form("x^5*y", 6)).j == JInvariant(True, 0)
    assert weierstrass_data(form("x^3*y", 4), form("0", 6)).j == JInvariant(True, 1728)


def test_j_constant_neither_special():
    wd = reduce_to_short(parse_sextic("w^2 = z*(z+x*y)*(z+4*x*y)"))
    assert wd.j.constant
    assert wd.j.value == Fraction(35152, 9)
    assert wd.j.value not in (0, 1728)


def test_j_nonconstant_when_cube_and_square_independent():
    j = weierstrass_data(form("x^4", 4), form("x^5*y", 6)).j
    assert not j.constant and j.value is None


def test_j_constancy_matches_linear_dependence():
    rng = random.Random(4)
    for _ in range(40):
        f4 = BinaryForm.from_coefficients(4, [rng.randint(-5, 5) for _ in range(5)])
        f6 = BinaryForm.from_coefficients(6, [rng.randint(-5, 5) for _ in range(7)])
        if _delta(f4, f6).is_zero:
            continue
        cube, square = _parts(f4, f6)
        # rank of the 2 x 13 coefficient matrix <= 1 iff all 2x2 minors vanish
        dependent = all(
            cube[i] * square[k] == cube[k] * square[i]
            for i in range(13)
            for k in range(i + 1, 13)
        )
        assert j_of(f4, f6).constant == dependent


# -- validation -------------------------------------------------------------------------


def test_non_minimal_surface_rejected():
    with pytest.raises(NonMinimalError, match="not du Val"):
        reduce_to_short(parse_sextic("w^2 + z^3 + x^6"))
    with pytest.raises(NonMinimalError):
        weierstrass_data(form("x^4", 4), form("0", 6))
    with pytest.raises(NonMinimalError):
        weierstrass_data(form("x^4", 4), form("x^6", 6))


def test_minimal_surfaces_accepted():
    # v4 = 4 alone or v6 = 6 alone is fine when the other side interferes
    wd = weierstrass_data(form("x^4", 4), form("x^5*y", 6))
    assert wd.delta == form("-16*x^10*(4*x^2+27*y^2)", 12)
    weierstrass_data(form("x^2*y^2", 4), form("0", 6))


_SMALL_LINES = [(a, b) for a in range(3) for b in range(-2, 3)
                if math.gcd(a, b) == 1 and (a > 0 or b > 0)]


def _structured_form(rng, degree, line):
    """c * line^e * cofactor as an x-major integer tuple; zero now and then."""
    if rng.random() < 0.15:
        return (0,) * (degree + 1)
    e = rng.choice([degree, degree, degree - 1, rng.randint(0, degree)])
    out = (rng.choice([1, -1, 2, -3, 5]),)
    for _ in range(e):
        out = bruteforce.poly_mul(out, line)
    cofactor = tuple(rng.randint(-3, 3) for _ in range(degree - e + 1))
    return bruteforce.poly_mul(out, cofactor)


def _oracle_place(f4, f6):
    """The linear l with v_l(f4) >= 4 and v_l(f6) >= 6 (a zero form has
    infinite valuation), by brute-force rational-root search, or None."""
    mult4 = bruteforce.linear_factors(f4) if any(f4) else None
    mult6 = bruteforce.linear_factors(f6) if any(f6) else None
    for line in set(mult4 or {}) | set(mult6 or {}):
        if (mult4 is None or mult4.get(line, 0) >= 4) and (
            mult6 is None or mult6.get(line, 0) >= 6
        ):
            return line
    return None


def test_minimality_matches_bruteforce_linear_factors():
    rng = random.Random(20261018)
    outcomes = Counter()
    for _ in range(600):
        shared = rng.choice(_SMALL_LINES)
        f4, f6 = (
            _structured_form(rng, d, shared if rng.random() < 0.7 else rng.choice(_SMALL_LINES))
            for d in (4, 6)
        )
        cube = bruteforce.poly_mul(f4, bruteforce.poly_mul(f4, f4))
        square = bruteforce.poly_mul(f6, f6)
        pair = BinaryForm.from_coefficients(4, f4), BinaryForm.from_coefficients(6, f6)
        place = _oracle_place(f4, f6)
        if all(4 * a + 27 * b == 0 for a, b in zip(cube, square)):
            outcome = "zero-discriminant"
            with pytest.raises(ZeroDiscriminantError):
                weierstrass_data(*pair)
        elif place is None:
            outcome = "minimal"
            weierstrass_data(*pair)
        else:
            outcome = "non-minimal, a zero form" if not (any(f4) and any(f6)) else "non-minimal"
            with pytest.raises(NonMinimalError) as info:
                weierstrass_data(*pair)
            assert info.value.place.coefficients == place
            assert str(info.value) == f"non-minimal place at {info.value.place}: not du Val"
        outcomes[outcome] += 1
    assert min(outcomes[k] for k in ("minimal", "non-minimal", "non-minimal, a zero form")) >= 40, outcomes


# -- reduction invariance ------------------------------------------------------------------


def _cleared(poly: dict) -> tuple[int, dict]:
    """(den, int numerators) of a dict of rational coefficients."""
    den = math.lcm(*(Fraction(c).denominator for c in poly.values()))
    return den, {m: int(c * den) for m, c in poly.items()}


def test_reduction_invariance_under_coordinate_changes():
    rng = random.Random(20260808)
    checked = 0
    while checked < 25:
        f4 = BinaryForm.from_coefficients(4, [rng.randint(-6, 6) for _ in range(5)])
        f6 = BinaryForm.from_coefficients(6, [rng.randint(-6, 6) for _ in range(7)])
        try:
            wd = weierstrass_data(f4, f6)
        except Exception:
            continue
        base = classify_fibration(wd)
        alpha = Fraction(rng.choice([1, 2, 3, -1, -2, 1]), rng.choice([1, 1, 2]))
        beta = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        gamma = Fraction(rng.choice([1, -1, 5]), rng.choice([1, 3]))
        q2 = BinaryForm.from_coefficients(2, [rng.randint(-3, 3) for _ in range(3)])
        ell = BinaryForm.from_coefficients(1, [rng.randint(-3, 3) for _ in range(2)])
        h3 = BinaryForm.from_coefficients(3, [rng.randint(-3, 3) for _ in range(4)])
        scrambled = bruteforce.substituted(
            bruteforce.short_sextic(f4.coefficients, f6.coefficients),
            alpha, beta, q2.coefficients, ell.coefficients, h3.coefficients, gamma,
        )
        wd2 = reduce_to_short(sextic_from_polynomial(*_cleared(scrambled)))
        other = classify_fibration(wd2)
        assert other.entries == base.entries
        assert wd2.j == wd.j
        checked += 1


# -- references: the three-stage reduction and the per-coefficient j ratio --------------


def _three_stage_reduction(sextic: GeneralSextic):
    """(f4, f6) by completing the square, rescaling and depressing the cubic,
    on x-major coefficient tuples with the oracle's arithmetic."""
    mul, add, scale = bruteforce.poly_mul, bruteforce.poly_add, bruteforce.poly_scale

    def value(c):  # an int where integral keeps the oracle's arithmetic fast
        return c // sextic.den if c % sextic.den == 0 else Fraction(c, sextic.den)

    wz, w, z2, z, z0 = (tuple(map(value, reversed(slot))) for slot in (
        sextic.c_wz, sextic.c_w, sextic.c_z2, sextic.c_z, sextic.c_0))
    a = value(sextic.c_w2)
    # w -> w - (c_wz z + c_w) / (2 c_w2) removes the w z and w terms
    quarter = Fraction(1, 4) / a
    cz2 = add(z2, scale(-quarter, mul(wz, wz)))
    cz = add(z, scale(-2 * quarter, mul(wz, w)))
    c0 = add(z0, scale(-quarter, mul(w, w)))
    # a w^2 = b z^3 - cz2 z^2 - cz z - c0; z -> (a b) z, w -> (a b^2) w
    b = value(-sextic.c_z3)
    c2 = scale(-Fraction(1, a * b**2), cz2)
    c4 = scale(-Fraction(1, a**2 * b**3), cz)
    c6 = scale(-Fraction(1, a**3 * b**4), c0)
    # z -> z - c2 / 3
    f4 = add(c4, scale(Fraction(-1, 3), mul(c2, c2)))
    f6 = add(c6, scale(Fraction(-1, 3), mul(c2, c4)),
             scale(Fraction(2, 27), mul(mul(c2, c2), c2)))
    return _form(f4), _form(f6)


def _ratio_j(f4: BinaryForm, f6: BinaryForm) -> JInvariant:
    """j with one Fraction per coefficient of f4^3 / f6^2."""
    cube, square = _parts(f4, f6)
    if not any(cube):
        return JInvariant(True, 0)
    if not any(square):
        return JInvariant(True, 1728)
    ratio = None
    for a, b in zip(cube, square):
        if b == 0:
            if a != 0:
                return JInvariant(False)
            continue
        if ratio is None:
            ratio = Fraction(a, b)
        elif Fraction(a, b) != ratio:
            return JInvariant(False)
    value = 6912 * ratio / (4 * ratio + 27)
    return JInvariant(True, value.numerator if value.denominator == 1 else value)


def _typed(form: BinaryForm):
    return form.coefficients, tuple(type(c) for c in form.coefficients)


_SLOT_VALUES = (0, 0, 1, -1, 2, -3, 7, -12)
_SLOT_FRACTIONS = (Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))
_SCALARS = (1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3), Fraction(9, 4))


def _random_sextic(rng) -> GeneralSextic:
    """A sextic of random rational coefficients, cleared by their lcm or by a
    multiple of it."""
    values = _SLOT_VALUES + (_SLOT_FRACTIONS if rng.random() < 0.4 else ())

    def slot(degree, zero_chance=0.1):
        if rng.random() < zero_chance:
            return (0,) * (degree + 1)
        return tuple(rng.choice(values) for _ in range(degree + 1))

    fields = (rng.choice(_SCALARS), slot(1, 0.4), slot(3, 0.4),
              rng.choice(_SCALARS), slot(2), slot(4), slot(6))
    den = math.lcm(*(Fraction(c).denominator for field in fields
                     for c in (field if type(field) is tuple else (field,))))
    den *= rng.choice((1, 1, 2, 6))
    return GeneralSextic(den, *(tuple(int(c * den) for c in field) if type(field) is tuple
                                else int(field * den) for field in fields))


def test_reduction_matches_three_stage_reference(monkeypatch):
    monkeypatch.setattr(weierstrass, "weierstrass_data", lambda f4, f6: (f4, f6))
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(10_000):
        sextic = _random_sextic(rng)
        f4, f6 = reduce_to_short(sextic)
        ref4, ref6 = _three_stage_reduction(sextic)
        assert (_typed(f4), _typed(f6)) == (_typed(ref4), _typed(ref6)), sextic
        scalars = (sextic.c_w2, sextic.c_z3)
        seen["fractional a or b"] += any(c % sextic.den for c in scalars)
        seen["negative a or b"] += any(c < 0 for c in scalars)
        seen["zero c_wz"] += not any(sextic.c_wz)
        seen["zero c_w"] += not any(sextic.c_w)
        slots = (sextic.c_wz, sextic.c_w, sextic.c_z2, sextic.c_z, sextic.c_0)
        integral = not any(c % sextic.den for c in scalars + sum(slots, ()))
        seen["integral sextic"] += integral
        seen["fractional sextic"] += not integral
    assert min(seen.values()) >= 1000 and len(seen) == 6, seen


def test_j_matches_ratio_reference():
    three_root = [w for w in witness_catalog() if w.name.startswith("three-root/")]
    assert len(three_root) == 6
    wds = [reduce_to_short(parse_sextic(w.equation)) for w in three_root]
    pairs = [(wd.f4, wd.f6) for wd in wds]
    rng = random.Random(20261018)
    pairs += [structured_pair(rng) for _ in range(1000)]
    kinds = Counter()
    for f4, f6 in pairs:
        if _delta(f4, f6).is_zero:  # no j
            continue
        expected, got = _ratio_j(f4, f6), j_of(f4, f6)
        assert got == expected and type(got.value) is type(expected.value)
        kinds[expected.value if expected.value in (0, 1728, None) else "other"] += 1
    assert all(kinds[k] >= 5 for k in (0, 1728, None, "other")), kinds


# -- the integral model --------------------------------------------------------------------


def _outcome(f4, f6):
    """weierstrass_data(f4, f6), or the type, message and place of its error."""
    try:
        return weierstrass_data(f4, f6)
    except InvalidSurfaceError as error:
        return type(error), str(error), getattr(error, "place", None)


def test_weierstrass_data_is_invariant_under_rational_scaling():
    rng = random.Random(20261018)
    pairs = [structured_pair(rng) for _ in range(300)]
    for _ in range(20):  # 4 f4^3 + 27 f6^2 = 0, also with f4 = f6 = 0
        t = [rng.randint(-2, 2) for _ in range(3)]
        pairs.append((_form(bruteforce.poly_scale(-3, bruteforce.poly_pow(t, 2))),
                      _form(bruteforce.poly_scale(2, bruteforce.poly_pow(t, 3)))))
    outcomes = Counter()
    for f4, f6 in pairs:
        u = Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))
        g4 = _form(bruteforce.poly_scale(u**4, f4.coefficients))
        g6 = _form(bruteforce.poly_scale(u**6, f6.coefficients))
        base, scaled = _outcome(f4, f6), _outcome(g4, g6)
        if not isinstance(base, WeierstrassData):
            assert scaled == base
            outcomes[base[0].__name__] += 1
            continue
        assert scaled.f4 is g4 and scaled.f6 is g6
        assert scaled.split == base.split
        assert scaled.j == base.j and type(scaled.j.value) is type(base.j.value)
        assert _typed(scaled.delta) == _typed(_delta(g4, g6))
        integral = all(isinstance(c, int) for c in g4.coefficients + g6.coefficients)
        outcomes["integral" if integral else "fractional"] += 1
    assert min(outcomes[k] for k in ("integral", "fractional", "NonMinimalError",
                                     "ZeroDiscriminantError")) >= 10, outcomes


def _int_form(form: BinaryForm) -> bool:
    return all(type(c) is int for c in form.coefficients)


def _int_list(value) -> bool:
    """A list of exact ints, or a tuple of them (the slots of a sextic)."""
    return type(value) in (list, tuple) and all(type(c) is int for c in value)


def test_reduction_and_split_run_on_ints(monkeypatch):
    """Everything from the parsed sextic to the split is exact ints: the
    parser builds no form, and the only forms reduce_to_short builds are
    the public ones."""
    lines = [w.equation for w in witness_catalog()]
    lines += [c.text for c in itertools.islice(workloads.transformed_cases(29), 100)]
    built, reached, fractional = [], Counter(), 0
    post_init = BinaryForm.__post_init__

    def recorded(name, original):
        def call(*args):
            reached[name] += 1
            assert all(_int_list(a) for a in args), (name, text)
            return original(*args)
        return call

    monkeypatch.setattr(BinaryForm, "__post_init__",
                        lambda form: (built.append(form), post_init(form))[1])
    for name in ("_u_mul", "_discriminant_from_parts", "_j_from_parts", "_split"):
        monkeypatch.setattr(weierstrass, name, recorded(name, getattr(weierstrass, name)))
    for text in lines:
        built.clear()
        sextic = parse_sextic(text)
        assert not built, text
        for field in dataclasses.fields(sextic):
            value = getattr(sextic, field.name)
            assert type(value) is int or type(value) is tuple and _int_list(value), text
        try:
            data = reduce_to_short(sextic)
        except InvalidSurfaceError:
            # at most f4, f6, delta and the one piece of a non-minimal split
            assert len(built) <= 4, text
            continue
        public = [data.f4, data.f6, data.delta]
        public += [piece for piece, *_ in data.split if piece is not Y_FORM]
        assert sorted(map(id, built)) == sorted(map(id, public)), text
        fractional += not (_int_form(data.f4) and _int_form(data.f6))
    assert len(reached) == 4 and fractional >= 30 and reached["_split"] >= 90, (
        fractional, reached)
