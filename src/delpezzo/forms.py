"""Exact arithmetic with homogeneous binary forms over the rationals.

A :class:`BinaryForm` of degree ``d`` stores ``d + 1`` rational coefficients,
entry ``i`` being the coefficient of ``x**(d-i) * y**i``.  The identically-zero
form keeps a declared degree so homogeneous arithmetic stays well-typed (f4
may be the zero form of degree 4).

Everything here is exact: no rounding occurs anywhere.  A coefficient is an
``int`` when its value is integral and a ``Fraction`` only when it is not,
the rule Python's own number tower follows: ``int`` and ``Fraction`` mix
exactly, and a sum or product of ints stays an int, so integral inputs are
never wrapped.  Floats never appear: the constructors reject them, and every
division of coefficients is written ``Fraction(a, b)``, because ``a / b`` of
two ints is a float.  Values, not types, decide equality, hashing, sorting
and ``str``, so the rule changes no result.

gcd, squarefree splitting, valuations and the split of a squarefree
polynomial by the order of vanishing of another run on primitive integer
polynomials through the dehomogenization ``t = x/y``, with the pure
``y``-power ("point at infinity") factor handled separately; none of them
factors.  A modular certificate skips the integer gcds when a polynomial is
squarefree, or two are coprime, modulo a large prime, which is the generic
case.  sympy's dense Zassenhaus routine is used only by
:func:`factor_over_rationals`, which names the irreducible places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_zz_factor

from .errors import DegreeMismatchError, ZeroFormError

INFINITY = math.inf


def _exact(value) -> int | Fraction:
    """value as an int when it is integral, else as a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous polynomial in x, y with exact rational coefficients.

    Each coefficient is an ``int`` when integral and a non-integral
    ``Fraction`` otherwise, never a float; the constructors normalize.
    """

    degree: int
    coefficients: tuple[int | Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if len(self.coefficients) != self.degree + 1:
            raise ValueError(
                f"degree-{self.degree} form needs {self.degree + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )

    @staticmethod
    def from_coefficients(degree: int, coefficients) -> "BinaryForm":
        return BinaryForm(degree, tuple(_exact(c) for c in coefficients))

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm(degree, (0,) * (degree + 1))

    @staticmethod
    def constant(value) -> "BinaryForm":
        return BinaryForm(0, (_exact(value),))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    @property
    def leading_coefficient(self) -> int | Fraction:
        """First nonzero coefficient in x-major order (0 for the zero form)."""
        for c in self.coefficients:
            if c != 0:
                return c
        return 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return BinaryForm.from_coefficients(
            self.degree, (a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot subtract forms of degrees {self.degree} and {other.degree}"
            )
        return BinaryForm.from_coefficients(
            self.degree, (a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __neg__(self) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(-a for a in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BinaryForm.from_coefficients(
                self.degree, (a * other for a in self.coefficients)
            )
        if not isinstance(other, BinaryForm):
            return NotImplemented
        d = self.degree + other.degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    if b:
                        out[i + j] += a * b
        return BinaryForm.from_coefficients(d, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BinaryForm":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = BinaryForm.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- normal forms ---------------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, "BinaryForm"]:
        """Write self = content * primitive with integer coefficients, gcd 1,
        positive leading coefficient (x-major).  Zero form is rejected."""
        if self.is_zero:
            raise ZeroFormError("the zero form has no primitive part")
        k, u = _dehomogenize(self)
        return Fraction(self.coefficients[k], u[-1]), _homogenize(k, u)

    def primitive_part(self) -> "BinaryForm":
        return self.content_and_primitive()[1]

    def sort_key(self):
        return (self.degree, self.coefficients)

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            xp, yp = self.degree - i, i
            vars_ = []
            if xp:
                vars_.append("x" if xp == 1 else f"x^{xp}")
            if yp:
                vars_.append("y" if yp == 1 else f"y^{yp}")
            mag = abs(c)
            if not vars_:
                body = str(mag)
            elif mag == 1:
                body = "*".join(vars_)
            else:
                body = "*".join([str(mag)] + vars_)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BinaryForm({self})"


@dataclass(frozen=True)
class Factorization:
    """content * prod(factor**multiplicity) with irreducible primitive factors.

    Factors carry integer coefficients with gcd 1 and positive leading
    coefficient (x before y), are pairwise non-proportional, and are sorted by
    (degree, coefficients).
    """

    content: Fraction
    factors: tuple[tuple[BinaryForm, int], ...]

    def expand(self) -> BinaryForm:
        result = BinaryForm.constant(self.content)
        for factor, mult in self.factors:
            result = result * factor**mult
        return result

    def __str__(self) -> str:
        if not self.factors:
            return str(self.content)
        parts = [] if self.content == 1 else [str(self.content)]
        for factor, mult in self.factors:
            parts.append(f"({factor})" + (f"^{mult}" if mult > 1 else ""))
        return " * ".join(parts) if parts else "1"


# -- univariate helpers (dense, low-to-high, primitive integer polynomials) -----
#
# A nonzero form f of degree d factors as y**k * F(x, y) with y not dividing F;
# F corresponds to the univariate u(t) = f(t, 1) of degree d - k, scaled to a
# primitive integer polynomial with positive leading coefficient.  All gcd,
# squarefree and valuation work happens on u, the y**k part is bookkept.  A
# primitive divisor of an integer polynomial leaves an integer quotient
# (Gauss's lemma), so every division below is exact over the integers.

_PRIME = (1 << 61) - 1


def _dehomogenize(f: BinaryForm) -> tuple[int, list[int]]:
    coefficients = f.coefficients
    k = 0
    while k <= f.degree and coefficients[k] == 0:
        k += 1
    if k > f.degree:
        raise ZeroFormError("cannot dehomogenize the zero form")
    den = math.lcm(*(c.denominator for c in coefficients[k:]))
    return k, _u_primitive([c.numerator * (den // c.denominator)
                            for c in reversed(coefficients[k:])])


def _homogenize(y_power: int, u: list[int]) -> BinaryForm:
    degree = y_power + len(u) - 1
    return BinaryForm.from_coefficients(degree, [0] * y_power + u[::-1])


def _u_primitive(u: list[int]) -> list[int]:
    """u divided by its content, with positive leading coefficient."""
    g = math.gcd(*u)
    if u[-1] < 0:
        g = -g
    return u if g == 1 else [c // g for c in u]


def _u_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _u_derivative(u: list[int]) -> list[int]:
    return _u_trim([i * c for i, c in enumerate(u)][1:])


def _u_sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _u_trim([c - d for c, d in zip(a, b)])


def _u_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b (deg b >= 1),
    or [] when b divides a."""
    a = list(a)
    lb, n = b[-1], len(b)
    while len(a) >= n:
        la = a[-1]
        g = math.gcd(la, lb)
        sa, sb = lb // g, la // g
        shift = len(a) - n
        for i in range(shift):
            a[i] *= sa
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] * sa - sb * c
        a.pop()
        _u_trim(a)
    return a


def _u_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (positive leading coefficient) of two nonzero integer
    polynomials, by the primitive polynomial remainder sequence."""
    a, b = _u_primitive(a), _u_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _u_pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _u_primitive(r)
    return [1]


def _u_exquo(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when the primitive polynomial b divides a, else None."""
    rem = list(a)
    lb, n = b[-1], len(b)
    quo = [0] * (len(a) - n + 1)
    for shift in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[shift + n - 1], lb)
        if r:
            return None
        if q:
            quo[shift] = q
            for i, c in enumerate(b):
                rem[shift + i] -= q * c
    return None if any(rem[:n - 1]) else quo


def _u_coprime_mod_prime(a: list[int], b: list[int]) -> bool:
    """True when a keeps its degree modulo a large prime and is coprime to b
    there.  A common factor over the rationals would stay a common factor of
    positive degree modulo the prime, so True proves a and b coprime; False
    proves nothing."""
    a = [c % _PRIME for c in a]
    if not a[-1]:
        return False
    b = _u_trim([c % _PRIME for c in b])
    while b:  # fraction-free Euclid: scale instead of inverting leads
        lb, low = b[-1], b[:-1]
        n = len(low)
        while len(a) > n:
            la = a.pop()
            s = len(a) - n
            a = [c * lb % _PRIME for c in a[:s]] + [
                (c * lb - la * d) % _PRIME for c, d in zip(a[s:], low)
            ]
            _u_trim(a)
        a, b = b, a
    return len(a) == 1


def _u_squarefree_parts(u: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm: primitive u = prod(g_i ** i), g_i primitive,
    squarefree and coprime; returns the nonconstant (g_i, i)."""
    parts: list[tuple[list[int], int]] = []
    if len(u) <= 1:
        return parts
    du = _u_derivative(u)
    if _u_coprime_mod_prime(u, du):  # the generic case: u is squarefree
        return [(u, 1)]
    g = _u_gcd(u, du)
    c, w = _u_exquo(u, g), _u_exquo(du, g)
    i = 1
    while len(c) > 1:
        y = _u_sub(w, _u_derivative(c))
        h = _u_gcd(c, y) if y else c
        if len(h) > 1:
            parts.append((h, i))
        c = _u_exquo(c, h)
        w = _u_exquo(y, h) if y else []
        i += 1
    return parts


def _u_split_by_order(g: list[int], f: list[int]) -> list[tuple[list[int], int]]:
    """Split squarefree g into (piece, k): the product of the roots of g at
    which the nonzero f vanishes to order exactly k.  Roots of order >= k + 1
    are the common roots of g and f, f', ..., f^(k)."""
    if _u_coprime_mod_prime(g, f):
        return [(g, 0)]
    pieces = []
    order = 0
    while len(g) > 1:
        h = _u_gcd(g, f)
        if len(h) < len(g):
            pieces.append((_u_exquo(g, h), order))
        g, f, order = h, _u_derivative(f), order + 1
    return pieces


Y_FORM = BinaryForm(1, (0, 1))


def form_gcd(a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """Primitive greatest common divisor of two forms (positive leading
    coefficient); pure y-power common factors are handled exactly."""
    if a.is_zero and b.is_zero:
        raise ZeroFormError("gcd of two zero forms")
    if a.is_zero:
        return b.primitive_part()
    if b.is_zero:
        return a.primitive_part()
    ka, ua = _dehomogenize(a)
    kb, ub = _dehomogenize(b)
    return _homogenize(min(ka, kb), _u_gcd(ua, ub))


def squarefree_decomposition(
    f: BinaryForm,
) -> tuple[Fraction, tuple[tuple[BinaryForm, int], ...]]:
    """Split f = content * prod(g_i ** i) with each g_i squarefree, primitive,
    and the g_i pairwise coprime.  Returns (content, ((g_i, i), ...))."""
    if f.is_zero:
        raise ZeroFormError("cannot decompose the zero form")
    k, u = _dehomogenize(f)
    by_mult: dict[int, BinaryForm] = {}
    for part, mult in _u_squarefree_parts(u):
        by_mult[mult] = _homogenize(0, part)
    if k > 0:
        by_mult[k] = by_mult[k] * Y_FORM if k in by_mult else Y_FORM
    parts = tuple(sorted(((g, m) for m, g in by_mult.items()),
                         key=lambda item: (item[1], item[0].sort_key())))
    # prod(g_i ** i) is y**k times the primitive u, whose lead is u[-1]
    return Fraction(f.leading_coefficient, u[-1]), parts


def factor_over_rationals(f: BinaryForm) -> Factorization:
    """Full irreducible factorization over the rationals."""
    if f.is_zero:
        raise ZeroFormError("cannot factor the zero form")
    k, u = _dehomogenize(f)
    content = Fraction(f.leading_coefficient, u[-1])
    factors: list[tuple[BinaryForm, int]] = [(Y_FORM, k)] if k else []
    if len(u) > 1:
        lead_unit, raw = dup_zz_factor([ZZ(c) for c in reversed(u)], ZZ)
        content *= int(lead_unit)
        for coeffs, mult in raw:
            fac = BinaryForm.from_coefficients(len(coeffs) - 1, map(int, coeffs))
            if fac.leading_coefficient < 0:
                fac = -fac
                if mult % 2 == 1:
                    content = -content
            factors.append((fac, mult))
    factors.sort(key=lambda item: item[0].sort_key())
    return Factorization(content, tuple(factors))


def valuation(f: BinaryForm, p: BinaryForm) -> int | float:
    """Largest k with p**k dividing f; infinity for the zero form f.

    p must be nonconstant and irreducible over the rationals (it is normalized
    to its primitive part internally; valuations are scale-invariant).
    """
    if p.is_zero or p.degree == 0:
        raise ValueError("valuation requires a nonconstant form")
    p = p.primitive_part()
    probe = factor_over_rationals(p)
    if len(probe.factors) != 1 or probe.factors[0][1] != 1:
        raise ValueError(f"valuation requires an irreducible form, got {p}")
    return _valuation_at_irreducible(f, p)


def _valuation_at_irreducible(f: BinaryForm, p: BinaryForm) -> int | float:
    """valuation() without the irreducibility probe; p must be primitive
    irreducible (trusted callers pass factors of a Factorization)."""
    if f.is_zero:
        return INFINITY
    kf, u = _dehomogenize(f)
    if p == Y_FORM:
        return kf
    kp, up = _dehomogenize(p)
    if kp > 0:  # p proportional to y handled above; anything else is reducible
        raise ValueError(f"not irreducible: {p}")
    count = 0
    while len(u) >= len(up):
        u = _u_exquo(u, up)
        if u is None:
            break
        count += 1
    return count
