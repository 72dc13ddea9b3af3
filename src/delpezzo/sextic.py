"""Parsing of sextic equations in the weighted projective space P(1,1,2,3).

The input language covers expressions and equations ``LHS = RHS`` over the
variables x, y, z, w with integer and fraction literals (``p/q``, ``q`` not
zero), the operators ``+ - * ^``, unary minus and parentheses.  ``^`` binds
tighter than ``*``, which binds tighter than ``+``/``-``; there is no
implicit multiplication.  An exponent is a non-negative integer literal:
``x^(2)``, ``x^-1`` and ``x^4/2`` are rejected.  An expression without ``=``
is read as ``... = 0``.

The parsed polynomial is fully expanded and collected; every monomial must
have weighted degree exactly 6 under the weights (x, y, z, w) = (1, 1, 2, 3).
Products and powers above weighted degree ``MAX_WEIGHTED_DEGREE``, and powers
of numbers above ``MAX_POWER_BITS`` bits, are rejected before they are
expanded.

The text is tokenized once, by one compiled regex, and read on one of two
paths.  A flat sum of monomial terms ``[+-][p[/q]*]v[^k]*...``, the shape of
a fully expanded expression, is read by a single walk over the tokens that
sums the integer numerators over one common denominator.  Anything else
(parentheses, ``=``, unary minus after an operator, a number after ``*``, a
constant term, a term above the degree limit, any error) goes to the
recursive descent parser on the same tokens, so errors and their positions
are always the parser's.  Both paths give the same rational terms in the
same order.

The parser expands as it reads.  A sum accumulates its terms in place in
one dict, a product with a single term shifts the monomials of the other
factor in one pass, and a power of a single term is one monomial.  Each
intermediate carries its weighted degree, so the degree limit costs no pass
over its terms (only a sum in which a monomial cancels is measured again).

Denominators are cleared once, here.  :func:`parse_polynomial` returns
``(den, terms)``: an int ``den > 0`` and int numerators, the polynomial
being the sum of ``c * m / den``.  The flat path sums over the lcm of its
literal denominators, the recursive path clears its rationals with one lcm,
so the two may pick different ``den`` for one polynomial; any ``den`` is
valid.  :class:`GeneralSextic` keeps the pair, and the reduction reads its
ints as they are.  Only the ``p/q`` literals and the recursive parser's
intermediates are ``Fraction`` values; nothing is ever a float.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import EquationError, NotHomogeneousError, UnknownVariableError
from .forms import BinaryForm

WEIGHTS = {"x": 1, "y": 1, "z": 2, "w": 3}

Monomial = tuple[int, int, int, int]  # exponents of x, y, z, w


# -- tokenizer -----------------------------------------------------------------

# One match per token, after any whitespace: an operator, a number literal with
# an optional "/denominator", a word, or any other character, which is an
# error.  For str patterns \s, \d and \w are exactly str.isspace,
# str.isdecimal (the digits int() reads) and str.isalnum-or-"_"; a word must
# also start with a letter (str.isalpha), which \w alone does not say.  Only
# trailing whitespace matches nothing, so the matches tile the text and a
# token's position is the running length of the text before it.
_TOKEN = re.compile(r"(\s*)(?:([-+*^()=])|(\d+)(?:/(\d+))?|(\w+)|(\S))")

# (kind, value, position); kind is "num", "name", "end" or the operator
# character, value the number or the variable name (None otherwise)
_Token = tuple[str, object, int]


def _too_long(digits: str, start: int) -> EquationError:
    # int() refuses more digits than sys.get_int_max_str_digits() allows
    return EquationError(f"number literal too long ({len(digits)} digits)", start)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    pos = 0
    for space, op, digits, denominator, word, other in _TOKEN.findall(text):
        if space:
            pos += len(space)
        if op:
            append((op, None, pos))
            pos += 1
        elif digits:
            try:
                value = int(digits)
            except ValueError:
                raise _too_long(digits, pos) from None
            if denominator:
                dstart = pos + len(digits) + 1
                try:
                    divisor = int(denominator)
                except ValueError:
                    raise _too_long(denominator, dstart) from None
                if not divisor:
                    raise EquationError("zero denominator", dstart)
                append(("num", Fraction(value, divisor), pos))
                pos = dstart + len(denominator)
            else:
                append(("num", value, pos))
                pos += len(digits)
        elif word:
            if word not in WEIGHTS:
                if word[0].isalpha():
                    raise UnknownVariableError(f"unknown variable '{word}'", pos)
                raise EquationError(f"unexpected character '{word[0]}'", pos)
            append(("name", word, pos))
            pos += len(word)
        else:
            raise EquationError(f"unexpected character '{other}'", pos)
    append(("end", None, len(text)))
    return tokens


# -- expanded polynomials --------------------------------------------------------


def _weighted_degree(m: Monomial) -> int:
    return m[0] + m[1] + 2 * m[2] + 3 * m[3]


class Poly:
    """Expanded polynomial in x, y, z, w as a dict monomial -> coefficient.

    The weighted degree (the largest over the terms, 0 for zero) is carried
    along: a product adds the degrees of its factors, a power multiplies,
    and a sum takes the larger one unless a monomial cancels, when it is
    computed again on first use."""

    __slots__ = ("terms", "_degree")

    def __init__(self, terms: dict[Monomial, int | Fraction], degree: int | None = None):
        """A Poly of terms that are known to be nonzero, without a copy;
        ``degree``, when given, is their weighted degree."""
        self.terms = terms
        self._degree = degree

    def _accumulate(self, other: "Poly", negate: bool) -> None:
        """self += other (self -= other when negate), in place; a monomial
        that cancels leaves the dict, as in a new sum."""
        terms = self.terms
        cancelled = False
        for m, c in other.terms.items():
            old = terms.get(m)
            if old is None:
                terms[m] = -c if negate else c
            elif (c := old - c if negate else old + c):
                terms[m] = c
            else:
                del terms[m]
                cancelled = True
        if cancelled or self._degree is None or other._degree is None:
            self._degree = None
        elif other._degree > self._degree:
            self._degree = other._degree

    @staticmethod
    def constant(value: int | Fraction) -> "Poly":
        return Poly({(0, 0, 0, 0): value} if value else {}, 0)

    @staticmethod
    def variable(name: str) -> "Poly":
        exps = [0, 0, 0, 0]
        exps["xyzw".index(name)] = 1
        return Poly({tuple(exps): 1}, WEIGHTS[name])

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, self._degree)

    def __mul__(self, other: "Poly") -> "Poly":
        # the top homogeneous parts of two nonzero factors have a nonzero
        # product, so the degrees add
        degree = (self.weighted_degree + other.weighted_degree
                  if self.terms and other.terms else 0)
        if len(other.terms) == 1:
            self, other = other, self
        if len(self.terms) == 1:  # one term: shift the monomials, no sums
            ((m1, c1),) = self.terms.items()
            return Poly({
                (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3]): c1 * c2
                for m2, c2 in other.terms.items()
            }, degree)
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly({m: c for m, c in terms.items() if c}, degree)

    def __pow__(self, exponent: int) -> "Poly":
        if len(self.terms) == 1 and exponent:
            ((m, c),) = self.terms.items()
            return Poly({tuple(e * exponent for e in m): c**exponent},
                        self.weighted_degree * exponent)
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
        if self._degree is None:
            self._degree = max(map(_weighted_degree, self.terms), default=0)
        return self._degree


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
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.index][0]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        found, _, pos = self.tokens[self.index]
        if found != kind:
            raise EquationError(
                f"expected '{kind}', found "
                f"{'end of input' if found == 'end' else repr(found)}",
                pos,
            )
        return self.advance()

    def parse_equation(self) -> Poly:
        lhs = self.parse_expression()
        if self.peek() == "=":
            self.advance()
            lhs._accumulate(self.parse_expression(), negate=True)
        kind, _, pos = self.tokens[self.index]
        if kind != "end":
            raise EquationError(f"unexpected '{kind}'", pos)
        return lhs

    def parse_expression(self) -> Poly:
        value = self.parse_term()  # a new Poly, which the sum may take over
        while self.peek() in "+-":
            negate = self.advance()[0] == "-"
            value._accumulate(self.parse_term(), negate)
        return value

    def parse_term(self) -> Poly:
        value = self.parse_unary()
        while self.peek() == "*":
            pos = self.advance()[2]
            rhs = self.parse_unary()
            _check_degree(value.weighted_degree + rhs.weighted_degree, pos)
            value = value * rhs
        return value

    def parse_unary(self) -> Poly:
        if self.peek() == "-":
            self.advance()
            return -self.parse_unary()
        if self.peek() == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.advance()
        kind, exponent, pos = self.advance()
        # an int literal; p/q is no exponent, even where it is integral
        if kind != "num" or type(exponent) is not int:
            raise EquationError("exponent must be a non-negative integer", pos)
        if self.peek() == "^":
            raise EquationError("chained '^' needs parentheses", self.tokens[self.index][2])
        degree = base.weighted_degree
        _check_degree(degree * exponent, pos)
        if not degree:  # a number: the degree limit does not bound its size
            # 0, 1 and -1 never grow; any other p/q grows by at least one and
            # at most twice this many bits per factor
            value = base.terms.get((0, 0, 0, 0), 0)
            bits = exponent * (max(value.numerator.bit_length(),
                                   value.denominator.bit_length()) - 1)
            if bits > MAX_POWER_BITS:
                raise EquationError(
                    f"a power of {bits} bits exceeds the limit {MAX_POWER_BITS}",
                    pos,
                )
        return base**exponent

    def parse_atom(self) -> Poly:
        kind, value, pos = self.tokens[self.index]
        if kind == "num":
            self.advance()
            return Poly.constant(value)
        if kind == "name":
            self.advance()
            return Poly.variable(value)
        if kind == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        raise EquationError(
            "expected a number, variable or '('"
            + ("" if kind == "end" else f", found '{kind}'"),
            pos,
        )


# -- flat sums ----------------------------------------------------------------------

_FACTOR = {name: ("xyzw".index(name), weight) for name, weight in WEIGHTS.items()}


def _flat_sum(tokens: list[_Token]) -> tuple[int, dict[Monomial, int]] | None:
    """``(den, terms)`` of a flat sum ``[+-][p[/q]*]v[^k]*... +- ...``: den
    the lcm of its literal denominators and terms the int numerators over
    it, in the parser's order and with its cancellations; None for any
    other token list.

    Each term has one sign at most (the first may have none), one number at
    most, before its first variable, and plain int exponents; a term above
    MAX_WEIGHTED_DEGREE is also left to the parser, which reports it."""
    collected: list[tuple[Monomial, int | Fraction]] = []
    denominator = 1
    index = 0
    kind, value, _ = tokens[0]
    while True:
        negative = kind == "-"  # every term but the first starts with a sign
        if negative or kind == "+":
            index += 1
            kind, value, _ = tokens[index]
        coefficient = 1
        if kind == "num":
            coefficient = value
            if tokens[index + 1][0] != "*":
                return None
            index += 2
            kind, value, _ = tokens[index]
        exponents = [0, 0, 0, 0]
        degree = 0
        while kind == "name":
            slot, weight = _FACTOR[value]
            index += 1
            kind, value, _ = tokens[index]
            power = 1
            if kind == "^":
                kind, power, _ = tokens[index + 1]
                if kind != "num" or type(power) is not int:
                    return None
                index += 2
                kind, value, _ = tokens[index]
            exponents[slot] += power
            degree += weight * power
            if degree > MAX_WEIGHTED_DEGREE:
                return None
            if kind != "*":
                break
            index += 1
            kind, value, _ = tokens[index]
        else:  # a term without a variable, or a number or '(' after '*'
            return None
        if type(coefficient) is not int:
            denominator = math.lcm(denominator, coefficient.denominator)
        collected.append((tuple(exponents), -coefficient if negative else coefficient))
        if kind == "end":
            break
        if kind != "+" and kind != "-":
            return None
    # sum the numerators over the common denominator, in the parser's order
    terms: dict[Monomial, int] = {}
    for monomial, c in collected:
        if type(c) is int:
            c *= denominator
        else:
            c = c.numerator * (denominator // c.denominator)
        old = terms.get(monomial)
        if old is None:
            if c:
                terms[monomial] = c
        elif (c := old + c):
            terms[monomial] = c
        else:
            del terms[monomial]
    return denominator, terms


def parse_polynomial(text: str) -> tuple[int, dict[Monomial, int]]:
    """Parse to an expanded polynomial in x, y, z, w (no degree checks):
    ``(den, terms)``, the int numerators of its nonzero terms over one
    denominator ``den > 0``."""
    if not text.strip():
        raise EquationError("empty input", 0)
    tokens = _tokenize(text)
    flat = _flat_sum(tokens)
    if flat is not None:
        return flat
    try:
        terms = _Parser(tokens).parse_equation().terms
    except RecursionError:
        raise EquationError("expression nested too deeply") from None
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


# -- the general sextic ------------------------------------------------------------


@dataclass(frozen=True)
class GeneralSextic:
    """(c_w2*w^2 + c_wz*w*z + c_w*w + c_z3*z^3 + c_z2*z^2 + c_z*z + c_0) / den,
    the general form of weighted degree 6 in P(1,1,2,3).

    Every field is an int or a tuple of ints, den > 0.  A form slot of
    degree d holds d + 1 ints in the kernel order of :mod:`delpezzo.forms`:
    entry i is the coefficient of x^i y^(d-i)."""

    den: int
    c_w2: int
    c_wz: tuple[int, ...]  # degree 1
    c_w: tuple[int, ...]  # degree 3
    c_z3: int
    c_z2: tuple[int, ...]  # degree 2
    c_z: tuple[int, ...]  # degree 4
    c_0: tuple[int, ...]  # degree 6


def _monomial_str(m: Monomial) -> str:
    parts = []
    for name, e in zip("xyzw", m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def parse_sextic(text: str) -> GeneralSextic:
    """Parse an equation into its GeneralSextic normal form.

    Every monomial is required to have weighted degree exactly 6; anything
    else is rejected monomial-by-monomial with the offending term named.
    """
    return sextic_from_polynomial(*parse_polynomial(text))


def sextic_from_polynomial(den: int, terms: dict[Monomial, int]) -> GeneralSextic:
    """Collect the ``(den, terms)`` of :func:`parse_polynomial` into the
    GeneralSextic slots."""
    if not terms:
        raise NotHomogeneousError("the zero polynomial does not define a surface")
    # (z, w) exponents -> the kernel list of the slot, of degree 6 - 2z - 3w
    slots = {(dz, dw): [0] * (7 - 2 * dz - 3 * dw)
             for dz, dw in ((0, 2), (1, 1), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0))}
    for m, c in terms.items():
        dx, _, dz, dw = m
        weighted = _weighted_degree(m)
        if weighted != 6:
            raise NotHomogeneousError(
                f"monomial {_monomial_str(m)} has weighted degree {weighted}, not 6"
            )
        slots[(dz, dw)][dx] = c
    (c_w2,), c_wz, c_w, (c_z3,), c_z2, c_z, c_0 = slots.values()
    return GeneralSextic(den, c_w2, tuple(c_wz), tuple(c_w), c_z3,
                         tuple(c_z2), tuple(c_z), tuple(c_0))


def parse_binary_form(text: str, degree: int) -> BinaryForm:
    """Parse a homogeneous polynomial in x, y of the given degree.

    ``0`` (and any expression collapsing to zero) parses to the zero form of
    the requested degree.
    """
    den, terms = parse_polynomial(text)
    coeffs = [0] * (degree + 1)
    for m, c in terms.items():
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
    return BinaryForm.from_coefficients(degree, (Fraction(c, den) for c in coeffs))
