"""Parsing of sextic equations in the weighted projective space P(1,1,2,3).

The input language covers expressions and equations ``LHS = RHS`` over the
variables x, y, z, w with integer and fraction literals (``p/q``, ``q`` not
zero), the operators ``+ - * ^``, unary minus and parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; there is no
implicit multiplication.  An expression without ``=`` is read as ``... = 0``.

The parsed polynomial is fully expanded and collected; every monomial must
have weighted degree exactly 6 under the weights (x, y, z, w) = (1, 1, 2, 3).
Products and powers above weighted degree ``MAX_WEIGHTED_DEGREE``, and powers
of numbers above ``MAX_POWER_BITS`` bits, are rejected before they are
expanded.

The parser expands as it reads.  A sum accumulates its terms in place in
one dict, a product with a single term shifts the monomials of the other
factor in one pass, and a power of a single term is one monomial.

Coefficients follow the rule of :mod:`delpezzo.forms`: an ``int`` when the
value is integral, a ``Fraction`` only when it is not, never a float.  An
integer literal is an ``int`` and only ``p/q`` makes a ``Fraction``; sums
and products of ints stay ints.  :func:`parse_polynomial` normalizes what it
returns, so an integral value reached through ``p/q`` is an ``int`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EquationError, NotHomogeneousError, UnknownVariableError
from .forms import BinaryForm, _exact

WEIGHTS = {"x": 1, "y": 1, "z": 2, "w": 3}

Monomial = tuple[int, int, int, int]  # exponents of x, y, z, w


# -- tokenizer -----------------------------------------------------------------

_OPERATORS = set("+-*^()=")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", or the operator character
    value: int | Fraction | str | None
    pos: int


def _int_literal(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise EquationError(f"number literal too long ({end - start} digits)", start) from None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, None, i))
            i += 1
            continue
        if ch.isdecimal():  # the digits int() accepts; str.isdigit takes more
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            value = _int_literal(text, start, i)
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdecimal():
                i += 1
                dstart = i
                while i < n and text[i].isdecimal():
                    i += 1
                denominator = _int_literal(text, dstart, i)
                if not denominator:
                    raise EquationError("zero denominator", dstart)
                value = Fraction(value, denominator)
            tokens.append(_Token("num", value, start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            name = text[start:i]
            if name not in WEIGHTS:
                raise UnknownVariableError(f"unknown variable '{name}'", start)
            tokens.append(_Token("name", name, start))
            continue
        raise EquationError(f"unexpected character '{ch}'", i)
    tokens.append(_Token("end", None, n))
    return tokens


# -- expanded polynomials --------------------------------------------------------


class Poly:
    """Expanded polynomial in x, y, z, w as a dict monomial -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int | Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def _nonzero(terms: dict[Monomial, int | Fraction]) -> "Poly":
        """A Poly of terms that are known to be nonzero, without a copy."""
        poly = Poly.__new__(Poly)
        poly.terms = terms
        return poly

    def _accumulate(self, other: "Poly", negate: bool) -> None:
        """self += other (self -= other when negate), in place; a monomial
        that cancels leaves the dict, as in a new sum."""
        terms = self.terms
        for m, c in other.terms.items():
            old = terms.get(m)
            if old is None:
                terms[m] = -c if negate else c
            elif (c := old - c if negate else old + c):
                terms[m] = c
            else:
                del terms[m]

    @staticmethod
    def constant(value: int | Fraction) -> "Poly":
        return Poly({(0, 0, 0, 0): value} if value else {})

    @staticmethod
    def variable(name: str) -> "Poly":
        exps = [0, 0, 0, 0]
        exps["xyzw".index(name)] = 1
        return Poly({tuple(exps): 1})

    def __add__(self, other: "Poly") -> "Poly":
        result = Poly._nonzero(dict(self.terms))
        result._accumulate(other, negate=False)
        return result

    def __sub__(self, other: "Poly") -> "Poly":
        result = Poly._nonzero(dict(self.terms))
        result._accumulate(other, negate=True)
        return result

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:  # one term: shift the monomials, no sums
            ((m1, c1),) = self.terms.items()
            return Poly._nonzero({
                (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3]): c1 * c2
                for m2, c2 in other.terms.items()
            })
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(terms)

    def __pow__(self, exponent: int) -> "Poly":
        if len(self.terms) == 1 and exponent:
            ((m, c),) = self.terms.items()
            return Poly._nonzero({tuple(e * exponent for e in m): c**exponent})
        result = Poly.constant(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    @property
    def weighted_degree(self) -> int:
        return max((dx + dy + 2 * dz + 3 * dw for dx, dy, dz, dw in self.terms),
                   default=0)


# -- recursive descent parser ----------------------------------------------------

# The parser expands as it goes.  Capping the weighted degree of every product
# and power before it is expanded bounds the number of terms and the
# coefficient growth of each intermediate, and capping the size of a power of
# a number bounds the one case the degree leaves open, so the cost of an input
# grows with its length, not with its exponents.  Twice the degree of a sextic
# leaves room for every factor of an accepted equation and for binary forms up
# to the degree of the discriminant.
MAX_WEIGHTED_DEGREE = 12
MAX_POWER_BITS = 4096


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_WEIGHTED_DEGREE:
        raise NotHomogeneousError(
            f"weighted degree {degree} exceeds the limit {MAX_WEIGHTED_DEGREE}", pos
        )


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise EquationError(
                f"expected '{kind}', found "
                f"{'end of input' if token.kind == 'end' else repr(token.kind)}",
                token.pos,
            )
        return self.advance()

    def parse_equation(self) -> Poly:
        lhs = self.parse_expression()
        if self.peek().kind == "=":
            self.advance()
            lhs._accumulate(self.parse_expression(), negate=True)
        end = self.peek()
        if end.kind != "end":
            raise EquationError(f"unexpected '{end.kind}'", end.pos)
        return lhs

    def parse_expression(self) -> Poly:
        value = self.parse_term()  # a new Poly, which the sum may take over
        while self.peek().kind in "+-":
            negate = self.advance().kind == "-"
            value._accumulate(self.parse_term(), negate)
        return value

    def parse_term(self) -> Poly:
        value = self.parse_unary()
        while self.peek().kind == "*":
            pos = self.advance().pos
            rhs = self.parse_unary()
            _check_degree(value.weighted_degree + rhs.weighted_degree, pos)
            value = value * rhs
        return value

    def parse_unary(self) -> Poly:
        if self.peek().kind == "-":
            self.advance()
            return -self.parse_unary()
        if self.peek().kind == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        self.advance()
        token = self.peek()
        if token.kind != "num" or token.value.denominator != 1:
            raise EquationError("exponent must be a non-negative integer", token.pos)
        self.advance()
        if self.peek().kind == "^":
            raise EquationError("chained '^' needs parentheses", self.peek().pos)
        exponent = int(token.value)
        degree = base.weighted_degree
        _check_degree(degree * exponent, token.pos)
        if not degree:  # a number: the degree limit does not bound its size
            # 0, 1 and -1 never grow; any other p/q grows by at least one and
            # at most twice this many bits per factor
            value = base.terms.get((0, 0, 0, 0), 0)
            bits = exponent * (max(value.numerator.bit_length(),
                                   value.denominator.bit_length()) - 1)
            if bits > MAX_POWER_BITS:
                raise EquationError(
                    f"a power of {bits} bits exceeds the limit {MAX_POWER_BITS}",
                    token.pos,
                )
        return base**exponent

    def parse_atom(self) -> Poly:
        token = self.peek()
        if token.kind == "num":
            self.advance()
            return Poly.constant(token.value)
        if token.kind == "name":
            self.advance()
            return Poly.variable(token.value)
        if token.kind == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        raise EquationError(
            "expected a number, variable or '('"
            + ("" if token.kind == "end" else f", found '{token.kind}'"),
            token.pos,
        )


def parse_polynomial(text: str) -> Poly:
    """Parse to an expanded polynomial in x, y, z, w (no degree checks)."""
    if not text.strip():
        raise EquationError("empty input", 0)
    try:
        poly = _Parser(text).parse_equation()
    except RecursionError:
        raise EquationError("expression nested too deeply") from None
    poly.terms = {m: _exact(c) for m, c in poly.terms.items()}
    return poly


# -- the general sextic ------------------------------------------------------------


@dataclass(frozen=True)
class GeneralSextic:
    """c_w2*w^2 + c_wz*w*z + c_w*w + c_z3*z^3 + c_z2*z^2 + c_z*z + c_0,
    the general form of weighted degree 6 in P(1,1,2,3).

    The scalars and the form coefficients are ints when integral and
    non-integral Fractions otherwise; the parser never makes a float."""

    c_w2: int | Fraction
    c_wz: BinaryForm  # degree 1
    c_w: BinaryForm  # degree 3
    c_z3: int | Fraction
    c_z2: BinaryForm  # degree 2
    c_z: BinaryForm  # degree 4
    c_0: BinaryForm  # degree 6


def _monomial_str(m: Monomial) -> str:
    parts = []
    for name, e in zip("xyzw", m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


_SLOT_DEGREES = {(0, 2): 0, (1, 1): 1, (0, 1): 3, (3, 0): 0, (2, 0): 2, (1, 0): 4, (0, 0): 6}


def parse_sextic(text: str) -> GeneralSextic:
    """Parse an equation into its GeneralSextic normal form.

    Every monomial is required to have weighted degree exactly 6; anything
    else is rejected monomial-by-monomial with the offending term named.
    """
    return sextic_from_polynomial(parse_polynomial(text))


def sextic_from_polynomial(poly: Poly) -> GeneralSextic:
    """Collect an expanded polynomial into the GeneralSextic slots."""
    if not poly.terms:
        raise NotHomogeneousError("the zero polynomial does not define a surface")
    slots: dict[tuple[int, int], dict[tuple[int, int], int | Fraction]] = {
        key: {} for key in _SLOT_DEGREES
    }
    for m, c in poly.terms.items():
        dx, dy, dz, dw = m
        weighted = dx + dy + 2 * dz + 3 * dw
        if weighted != 6:
            raise NotHomogeneousError(
                f"monomial {_monomial_str(m)} has weighted degree {weighted}, not 6"
            )
        slots[(dz, dw)][(dx, dy)] = c

    def form_of(zw: tuple[int, int]) -> BinaryForm:
        degree = _SLOT_DEGREES[zw]
        coeffs = [0] * (degree + 1)
        for (dx, dy), c in slots[zw].items():
            coeffs[dy] = c  # dx + dy = degree, entry i holds x^(degree-i) y^i
        return BinaryForm.from_coefficients(degree, coeffs)

    return GeneralSextic(
        c_w2=_exact(slots[(0, 2)].get((0, 0), 0)),
        c_wz=form_of((1, 1)),
        c_w=form_of((0, 1)),
        c_z3=_exact(slots[(3, 0)].get((0, 0), 0)),
        c_z2=form_of((2, 0)),
        c_z=form_of((1, 0)),
        c_0=form_of((0, 0)),
    )


def parse_binary_form(text: str, degree: int) -> BinaryForm:
    """Parse a homogeneous polynomial in x, y of the given degree.

    ``0`` (and any expression collapsing to zero) parses to the zero form of
    the requested degree.
    """
    poly = parse_polynomial(text)
    coeffs = [0] * (degree + 1)
    for m, c in poly.terms.items():
        dx, dy, dz, dw = m
        if dz or dw:
            raise UnknownVariableError(
                f"only x and y are allowed here, got {_monomial_str(m)}"
            )
        if dx + dy != degree:
            raise NotHomogeneousError(
                f"monomial {_monomial_str(m)} has degree {dx + dy}, expected {degree}"
            )
        coeffs[dy] = c
    return BinaryForm.from_coefficients(degree, coeffs)
