"""Seeded input generators for the benchmark workloads.

Everything here is independent of ``delpezzo``: equations are read with the
small ``ast``-based reader below, moved by automorphisms of P(1,1,2,3) and
printed fully expanded, so the program under test only ever sees the
generated text.

An automorphism of P(1,1,2,3) used here is

    (x, y) -> M (x, y)              M in GL2(Z), entries of height <= HEIGHT
    z -> a z + q2(x, y)
    w -> b w + c z l1(x, y) + q3(x, y)

followed by scaling the whole equation by a nonzero rational.  It changes
neither the fiber configuration nor any other invariant the classifier
reports, and it keeps each of the four rejection codes: no w^2 term stays
absent, no z^3 term stays absent, an identically zero discriminant stays
zero, and a non-minimal place moves to a non-minimal place.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass
from fractions import Fraction

HEIGHT = 3  # largest |entry| of the GL2(Z) part of a move
SMALL = 3  # rationals of a move are p/q with |p|, q <= SMALL
DENSE_BITS = 32  # coefficient size of generic-dense (f4, f6)
INVALID_SHARE = 6  # transformed-unique: about 1 input in this many is invalid

Monomial = tuple[int, int, int, int]  # exponents of x, y, z, w

# Sextics that are not du Val del Pezzo surfaces of degree 1, by the error
# code the classifier must reject them with.
INVALID_SURFACES = {
    "missing-w2": (
        "w*z*x + w*y^3 + z^3 + x^6 - y^6",
        "w*x^2*y + z^3 - x^2*z^2 + x^5*y",
    ),
    "missing-z3": (
        "w^2 + x^2*z^2 + x^4*z + x^5*y + y^6",
        "w^2 + w*z*y + x*y*z^2 - y^6",
    ),
    "zero-discriminant": (
        "w^2 = z^3",
        "w^2 + z^3 - 3*x^2*y^2*z + 2*x^3*y^3",
        "w^2 + z^3 - 3*(x^2 - y^2)^2*z + 2*(x^2 - y^2)^3",
    ),
    "non-minimal": (
        "w^2 + z^3 + x^6",
        "w^2 + z^3 + x^4*z + x^6",
        "w^2 + z^3 + x^4*z + 2*x^6",
    ),
}


class Poly:
    """Polynomial in x, y, z, w with rational coefficients, as a dict."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def const(value) -> "Poly":
        return Poly({(0, 0, 0, 0): Fraction(value)})

    @staticmethod
    def var(index: int) -> "Poly":
        exps = [0, 0, 0, 0]
        exps[index] = 1
        return Poly({tuple(exps): Fraction(1)})

    @staticmethod
    def binary_form(coeffs, extra: Monomial = (0, 0, 0, 0)) -> "Poly":
        """sum coeffs[i] x^(d-i) y^i, times the monomial ``extra``."""
        d = len(coeffs) - 1
        return Poly({
            (d - i + extra[0], i + extra[1], extra[2], extra[3]): Fraction(c)
            for i, c in enumerate(coeffs)
        })

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict[Monomial, Fraction] = {}
        for (a0, a1, a2, a3), c in self.terms.items():
            for (b0, b1, b2, b3), d in other.terms.items():
                m = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                terms[m] = terms.get(m, 0) + c * d
        return Poly(terms)

    def __pow__(self, e: int) -> "Poly":
        out = Poly.const(1)
        for _ in range(e):
            out = out * self
        return out

    def constant_value(self) -> Fraction:
        if any(m != (0, 0, 0, 0) for m in self.terms):
            raise ValueError("not a constant")
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def substitute(self, images: list["Poly"]) -> "Poly":
        """Replace x, y, z, w by the four image polynomials at once."""
        top = [max((m[k] for m in self.terms), default=0) for k in range(4)]
        powers = []
        for image, n in zip(images, top):
            row = [Poly.const(1)]
            for _ in range(n):
                row.append(row[-1] * image)
            powers.append(row)
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for k in range(4):
                if m[k]:
                    term = term * powers[k][m[k]]
            out = out + term
        return out

    def to_text(self) -> str:
        """Fully expanded text in the program's input language, '... = 0'."""
        pieces = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip("xyzw", m) if e
            ]
            mag = abs(c)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign} {body}" if pieces else ("-" + body if c < 0 else body))
        return " ".join(pieces) if pieces else "0"


_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}


def parse(text: str) -> Poly:
    """Read 'LHS = RHS' or a bare expression over x, y, z, w with + - * ^ and
    p/q literals (division only between constants)."""
    lhs, _, rhs = text.replace("^", "**").partition("=")
    poly = _eval(ast.parse(lhs.strip(), mode="eval").body)
    if rhs.strip():
        poly = poly - _eval(ast.parse(rhs.strip(), mode="eval").body)
    return poly


def _eval(node) -> Poly:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Poly.const(node.value)
    if isinstance(node, ast.Name) and node.id in _VARS:
        return Poly.var(_VARS[node.id])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval(node.operand)
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        left, right = _eval(node.left), _eval(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return Poly.const(left.constant_value() / right.constant_value())
        if isinstance(node.op, ast.Pow):
            e = right.constant_value()
            if e.denominator != 1 or e < 0:
                raise ValueError("exponent must be a non-negative integer")
            return left ** int(e)
    raise ValueError(f"unsupported expression: {ast.dump(node)}")


# -- automorphisms ----------------------------------------------------------------


def _small_rational(rng: random.Random, nonzero: bool) -> Fraction:
    while True:
        value = Fraction(rng.randint(-SMALL, SMALL), rng.randint(1, SMALL))
        if value or not nonzero:
            return value


def _gl2z(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        m = tuple(rng.randint(-HEIGHT, HEIGHT) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] in (1, -1):
            return m


def move(poly: Poly, rng: random.Random) -> Poly:
    """Apply a random automorphism of P(1,1,2,3) and a random scaling."""
    m11, m12, m21, m22 = _gl2z(rng)
    x = Poly.binary_form([m11, m12])
    y = Poly.binary_form([m21, m22])

    def form(degree: int, extra: Monomial = (0, 0, 0, 0)) -> Poly:
        return Poly.binary_form(
            [_small_rational(rng, False) for _ in range(degree + 1)], extra)

    z = Poly.const(_small_rational(rng, True)) * Poly.var(2) + form(2)
    w = (Poly.const(_small_rational(rng, True)) * Poly.var(3)
         + form(1, (0, 0, 1, 0)) + form(3))
    scale = Poly.const(_small_rational(rng, True))
    return poly.substitute([x, y, z, w]) * scale


# -- workload streams ---------------------------------------------------------------


@dataclass(frozen=True)
class Generated:
    """One generated input: the equation text and the key of its answer
    (a witness name, an error code, or the (f4, f6) pair it was built from)."""

    text: str
    key: object


def transformed_stream(seed: int, witnesses: list[tuple[str, str]]):
    """Endless moved witnesses (key: witness name) and, about one in
    INVALID_SHARE, moved invalid surfaces (key: error code)."""
    rng = random.Random(f"transformed-unique/{seed}")
    bases = [(name, parse(eq)) for name, eq in witnesses]
    invalid = [(code, parse(eq)) for code, eqs in INVALID_SURFACES.items() for eq in eqs]
    codes = sorted(INVALID_SURFACES)
    while True:
        if rng.randrange(INVALID_SHARE) == 0:
            code = rng.choice(codes)
            key, base = rng.choice([item for item in invalid if item[0] == code])
        else:
            key, base = rng.choice(bases)
        yield Generated(move(base, rng).to_text(), key)


def dense_pair(rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    half = 1 << (DENSE_BITS - 1)
    f4 = tuple(rng.randrange(-half, half) for _ in range(5))
    f6 = tuple(rng.randrange(-half, half) for _ in range(7))
    return f4, f6


def dense_stream(seed: int):
    """Endless random short-Weierstrass pairs written as moved sextics
    (key: the pair (f4, f6), x-major integer coefficients)."""
    rng = random.Random(f"generic-dense/{seed}")
    while True:
        f4, f6 = dense_pair(rng)
        short = (Poly.var(3) ** 2 - Poly.var(2) ** 3
                 - Poly.binary_form(f4, (0, 0, 1, 0)) - Poly.binary_form(f6))
        yield Generated(move(short, rng).to_text(), (f4, f6))
