"""Parsing of equations over P(1,1,2,3) and of plain binary forms."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import char_tokenizer
from delpezzo import sextic
from delpezzo.catalog import witness_catalog
from delpezzo.errors import (
    EquationError,
    NotHomogeneousError,
    UnknownVariableError,
)
from delpezzo.forms import BinaryForm
from delpezzo.sextic import parse_binary_form, parse_polynomial, parse_sextic
from perfbench import gen


def form(text, degree):
    return parse_binary_form(text, degree)


def _value(s, field):
    """A field of the sextic s over its denominator: a number for a scalar,
    an x-major form for a slot of kernel ints."""
    if type(field) is int:
        return Fraction(field, s.den)
    return BinaryForm.from_coefficients(len(field) - 1,
                                        (Fraction(c, s.den) for c in reversed(field)))


def _rational_terms(pair):
    """The terms of a (den, terms) pair as rationals, in order."""
    den, terms = pair
    return {m: Fraction(c, den) for m, c in terms.items()}


def test_parse_pure_short_form():
    s = parse_sextic("w^2 + z^3 + x^5*y")
    assert _value(s, s.c_w2) == 1
    assert _value(s, s.c_z3) == 1
    assert s.c_0 == (0, 0, 0, 0, 0, s.den, 0)  # kernel order: x^i y^(6-i)
    assert _value(s, s.c_0) == form("x^5*y", 6)
    assert not any(s.c_wz + s.c_w + s.c_z2 + s.c_z)


def test_parse_expanded_product():
    s = parse_sextic("w^2 - z*(z+x*y)*(z+2*x*y)")
    assert _value(s, s.c_w2) == 1
    assert _value(s, s.c_z3) == -1
    assert _value(s, s.c_z2) == form("-3*x*y", 2)
    assert _value(s, s.c_z) == form("-2*x^2*y^2", 4)
    assert not any(s.c_0)


def test_parse_equation_with_equals_sign():
    left = parse_sextic("w^2 = z^3 + x^6")
    assert _value(left, left.c_w2) == 1 and _value(left, left.c_z3) == -1
    assert _value(left, left.c_0) == form("-x^6", 6)


def test_wrong_weighted_degree_is_rejected():
    with pytest.raises(NotHomogeneousError, match="z\\^2"):
        parse_sextic("w^2 + z^2")
    with pytest.raises(NotHomogeneousError, match="weighted degree 7"):
        parse_sextic("w^2 + z^3 + x^7")


def test_unknown_variable_with_position():
    with pytest.raises(UnknownVariableError) as info:
        parse_sextic("w^2 + q^6")
    assert info.value.position == 6


def test_syntax_error_with_position():
    with pytest.raises(EquationError) as info:
        parse_sextic("w^2 + ")
    assert info.value.position == 6  # the end-of-input position
    with pytest.raises(EquationError):
        parse_sextic("w^2 + z^3 + x^5*y)")
    with pytest.raises(EquationError):
        parse_sextic("")
    with pytest.raises(EquationError, match="zero denominator") as info:
        parse_sextic("w^2 + z^3 + 1/0*x^6")
    assert info.value.position == 14  # the denominator
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(EquationError, match="unexpected character") as info:
        parse_sextic("w^2 + z^3 + \u00b2*x^6 + y^6")
    assert info.value.position == 12
    # int() refuses a literal of more than 4300 digits
    with pytest.raises(EquationError, match="number literal too long") as info:
        parse_sextic("w^2 + z^3 + " + "1" * 5000 + "*x^6 + y^6")
    assert info.value.position == 12 and info.value.code == "syntax"
    with pytest.raises(EquationError, match="number literal too long") as info:
        parse_sextic("w^2 + z^3 + 1/" + "7" * 5000 + "*x^6 + y^6")
    assert info.value.position == 14


def test_fraction_literals_and_unary_minus():
    s = parse_sextic("-w^2 - 1/2*x^6 = 0")
    assert _value(s, s.c_w2) == -1
    assert _value(s, s.c_0) == form("-1/2*x^6", 6)


def test_exponent_rules():
    with pytest.raises(EquationError, match="exponent"):
        parse_polynomial("x^y")
    with pytest.raises(EquationError, match="exponent"):
        parse_polynomial("x^(2)")
    with pytest.raises(EquationError, match="chained"):
        parse_polynomial("x^2^3")


@pytest.mark.parametrize("text", ["x^100000000", "(x+y+z+w)^60", "2^100000000",
                                  "w^2 + z^3 + " + "*".join(["(x+y+z+w)"] * 60)])
def test_huge_powers_and_products_are_rejected_quickly(text):
    start = time.perf_counter()
    with pytest.raises(EquationError, match="exceeds the limit"):
        parse_polynomial(text)
    assert time.perf_counter() - start < 1


def test_every_catalog_witness_parses_under_the_limits():
    for witness in witness_catalog():
        parse_sextic(witness.equation)
    assert parse_polynomial("(x+y+z+w)^4") == parse_polynomial(
        "(x+y+z+w)*(x+y+z+w)*(x+y+z+w)*(x+y+z+w)")
    # numbers that do not grow pass the size limit at any exponent
    assert parse_polynomial("1^5000 + (-1)^5001 + 0^5000 + (x-x)^5000") == (1, {})
    assert parse_polynomial("(1/2)^4096") == (2**4096, {(0, 0, 0, 0): 1})


def test_no_implicit_multiplication():
    with pytest.raises(EquationError):
        parse_polynomial("2x")


def test_precedence_power_over_product_over_sum():
    # 2*x^2*y^4 - x^6 has a well-defined reading; compare against explicit forms
    p = parse_binary_form("2*x^2*y^4 - x^6", 6)
    assert p == BinaryForm(6, (-1, 0, 0, 0, 2, 0, 0))  # x-major: x^6, ..., y^6
    assert parse_binary_form("-x^2*y", 3) == BinaryForm(3, (0, -1, 0, 0))


def test_parse_binary_form_zero_and_degree_checks():
    zero = parse_binary_form("0", 6)
    assert zero.is_zero and zero.degree == 6
    zero2 = parse_binary_form("x^3*y - x^3*y", 4)
    assert zero2.is_zero and zero2.degree == 4
    with pytest.raises(NotHomogeneousError):
        parse_binary_form("x^2 + x^3", 3)
    with pytest.raises(UnknownVariableError):
        parse_binary_form("z^2", 4)


def test_parse_binary_form_collects_terms():
    f = parse_binary_form("x*y^3 + 3*x*y^3 - y^4", 4)
    assert f == BinaryForm.from_coefficients(4, [0, 0, 0, 4, -1])


def test_every_catalog_style_equation_shape_parses():
    # representative shapes exercised throughout: parenthesized products,
    # rational coefficients, both equation styles
    for text in [
        "w^2 + z^3 - 3*(x-y)*x*y^2*z + 2*(x-y)*x^2*y^3",
        "w^2 + z^3 - 3*(x^2-y^2)*y^2*z + 2*(x^2-y^2)*x*y^3",
        "w^2 = z*(z+x*y)*(z+1/2*x*y)",
        "w^2 + z^3 + (x*y*(x-y)*(x-2*y))*z",
    ]:
        parse_sextic(text)


def test_monomial_weighted_degree_check_is_per_monomial():
    # total degree 6 on average does not help: each monomial must be exactly 6
    with pytest.raises(NotHomogeneousError):
        parse_sextic("w^2 + x^5 + x^7")


def test_rational_scaling_of_w2():
    s = parse_sextic("3/4*w^2 + z^3 + x^6")
    assert _value(s, s.c_w2) == Fraction(3, 4)


# -- differential check against sympy ---------------------------------------------


def _literal(rng):
    n = rng.randint(0, 9)
    return f"{n}/{rng.randint(1, 6)}" if rng.random() < 0.4 else str(n)


def _single_term(rng):
    powers = [f"{v}^{rng.randint(1, 2)}" for v in rng.sample("xyzw", rng.randint(1, 2))]
    return "*".join([_literal(rng)] * (rng.random() < 0.7) + powers)


def _random_expression(rng, depth, kinds):
    """A random expression text; kinds counts the constructions used."""
    if depth == 0:
        return rng.choice((_literal(rng), rng.choice("xyzw"), _single_term(rng)))
    kind = rng.choice(("sum", "sum", "product", "power of a term", "power of a sum",
                       "unary minus", "nested parentheses", "cancelling sum"))
    kinds[kind] += 1

    def sub():
        return _random_expression(rng, depth - 1, kinds)

    if kind == "sum":
        text = sub()
        for _ in range(rng.randint(1, 3)):
            text += rng.choice((" + ", " - ")) + sub()
        return text
    if kind == "product":
        return f"({sub()})*({sub()})"
    if kind == "power of a term":
        return f"({_single_term(rng)})^{rng.randint(0, 3)}"
    if kind == "power of a sum":
        return f"({sub()} + {sub()})^{rng.randint(0, 3)}"
    if kind == "unary minus":
        return f"-({sub()})" if rng.random() < 0.5 else f"-{_single_term(rng)}"
    if kind == "nested parentheses":
        return f"(({sub()}) - (-({sub()})))"
    text = sub()  # a cancelling sum: nothing of text is left
    return f"{text} + {sub()} - ({text})" if rng.random() < 0.5 else f"({text}) - ({text})"


def test_parser_matches_sympy_expand():
    import sympy

    symbols = sympy.symbols("x y z w")
    rng = random.Random(20261018)
    kinds, checked, zero = Counter(), 0, 0
    for _ in range(400):
        text = _random_expression(rng, rng.randint(1, 3), kinds)
        try:
            den, terms = parse_polynomial(text)
        except NotHomogeneousError:  # a product or power above the degree limit
            continue
        expected = sympy.Poly(sympy.expand(sympy.sympify(text.replace("^", "**"))),
                              *symbols).as_dict()
        assert _rational_terms((den, terms)) == {
            m: Fraction(int(c.p), int(c.q)) for m, c in expected.items()}, text
        assert type(den) is int and den > 0, text
        assert all(type(c) is int for c in terms.values()), text
        checked += 1
        zero += not terms
    assert checked >= 300 and zero >= 20, (checked, zero)
    assert min(kinds.values()) >= 50 and len(kinds) == 7, kinds


def test_a_cancelled_monomial_that_comes_back_is_collected_last():
    # the first monomial of a wrong degree, in the order of the sum, is named
    assert list(parse_polynomial("x - x + y + x")[1]) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    with pytest.raises(NotHomogeneousError, match="monomial y has"):
        parse_sextic("w^2 + z^3 + x - x + y + x")


def test_a_fraction_exponent_is_rejected_even_when_integral():
    # an exponent is an integer literal, as x^(2) already shows; 12/2 and 4/1
    # are integral fractions, not integer literals
    for text, position in (("w^2 + z^3 + x^5*y + x^12/2", 22), ("x^4/1*y^2", 2),
                           ("(x + y)^4/2", 8)):
        with pytest.raises(EquationError, match="exponent must be a non-negative integer") as info:
            parse_polynomial(text)
        assert info.value.position == position, text


# -- the flat-sum fast path against the recursive parser ------------------------------


def _outcome(parse, text):
    """The rational terms of a (den, int terms) pair, or the tokens with
    their number types, in order, or the error raised."""
    try:
        result = parse(text)
    except EquationError as exc:
        return type(exc), str(exc), exc.position
    if isinstance(result, tuple):
        den, terms = result
        assert type(den) is int and den > 0 and all(type(c) is int for c in terms.values())
        return list(_rational_terms(result).items())
    return [(kind, type(value), value, pos) for kind, value, pos in result]


def _recursive_only(monkeypatch, parse, texts):
    """Outcomes of ``parse`` with the flat-sum walker switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(sextic, "_flat_sum", lambda tokens: None)
        return [_outcome(parse, text) for text in texts]


def _counting_flat_sum(monkeypatch):
    """Patch in a walker that counts the token lists it accepted."""
    walker, hits = sextic._flat_sum, []

    def counted(tokens):
        terms = walker(tokens)
        hits.append(terms is not None)
        return terms

    monkeypatch.setattr(sextic, "_flat_sum", counted)
    return hits


def _benchmark_lines(transformed, dense):
    witnesses = [(w.name, w.equation) for w in witness_catalog()]
    return ([g.text for g in itertools.islice(gen.transformed_stream(7, witnesses), transformed)]
            + [g.text for g in itertools.islice(gen.dense_stream(7), dense)])


_GOLDEN_INPUTS = [line for line in
                  (Path(__file__).parent / "golden" / "inputs.txt").read_text().splitlines()
                  if line.strip()]

# the alphabet of the grammar, and characters where str.isdecimal/isalpha and
# the regex classes \d/\w could part: a superscript, a vulgar fraction, an
# Arabic-Indic digit, an accented letter and a no-break space
_MUTATION_ALPHABET = "xyzw0123456789+-*^()=/ _.\t" + "\u00b2\u00bd\u0663\u00e9\u00a0"


def _mutant(rng, line):
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(3)
        if edit == 0 and chars:
            del chars[rng.randrange(len(chars))]
        elif edit == 1 or not chars:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_MUTATION_ALPHABET))
        else:
            i = rng.randrange(len(chars))
            chars.insert(i, chars[i])
    return "".join(chars)


def test_mutants_parse_alike_on_both_paths_and_tokenize_as_before(monkeypatch):
    rng = random.Random(20261018)
    lines = _GOLDEN_INPUTS + _benchmark_lines(24, 8)
    mutants = [_mutant(rng, line) for line in lines for _ in range(40)]
    expected = _recursive_only(monkeypatch, parse_polynomial, mutants)
    hits = _counting_flat_sum(monkeypatch)
    for text, want in zip(mutants, expected):
        assert _outcome(parse_polynomial, text) == want, text
        assert _outcome(sextic._tokenize, text) == _outcome(char_tokenizer.tokenize, text), text
    # both paths and every error kind are exercised
    outcomes = Counter(want[0] if isinstance(want, tuple) else "terms" for want in expected)
    assert sum(hits) >= 450 and len(hits) - sum(hits) >= 1500, (sum(hits), len(hits))
    assert outcomes["terms"] >= 600 and len(outcomes) == 4, outcomes


@pytest.mark.parametrize("text", [
    "2x", "xx^5", "3*-x^4*z", "x + -y", "2*3*x^6", "x^13", "1 /2*x^6",
    "w^2 + z^3 + " + "7" * 4301 + "*x^6", "x - x + y + x", "w^2 = z^3 + x^5*y",
    "x^2^3", "x^0*y^6 + 0*x^6 - 0/5*z^3", "(x^7 - x^7)*x^6", "x^7*x^6*0", "-x + -1/2*y",
])
def test_the_fast_path_hands_over_what_it_does_not_read(monkeypatch, text):
    (want,) = _recursive_only(monkeypatch, parse_polynomial, [text])
    assert _outcome(parse_polynomial, text) == want


def test_the_fast_path_reads_flat_sums_and_nothing_else():
    def walk(text):
        return sextic._flat_sum(sextic._tokenize(text))

    assert list(_rational_terms(walk("x - x + y + x")).items()) == [
        ((0, 1, 0, 0), 1), ((1, 0, 0, 0), 1)]
    assert _rational_terms(walk("-3/4*x^5*y + 1/4*x*y^5 + x^5*y")) == {
        (5, 1, 0, 0): Fraction(1, 4), (1, 5, 0, 0): Fraction(1, 4)}
    assert _rational_terms(walk("2/4*w^2 - 1/2*w^2")) == {}
    for text in ("2x", "3*-x^4*z", "x + -y", "2*3*x^6", "x^13", "x^6*x^7", "w^2 = z^3",
                 "(x)", "x^2^3", "x^(2)", "1 + x^6", "x^6 +", "x^12/2", "x^4/1*y^2"):
        try:
            assert walk(text) is None, text
        except EquationError:
            pass


def test_benchmark_lines_take_the_fast_path(monkeypatch):
    made = []

    class CountingParser(sextic._Parser):
        def __init__(self, tokens):
            made.append(tokens)
            super().__init__(tokens)

    monkeypatch.setattr(sextic, "_Parser", CountingParser)
    lines = _benchmark_lines(200, 100)
    for text in lines:
        parse_sextic(text)
    assert not made
    parse_sextic("w^2 + z^3 + x*(x^4*y)")  # the patch sees the parser when it runs
    assert len(made) == 1
