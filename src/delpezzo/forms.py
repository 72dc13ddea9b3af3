"""Exact arithmetic with homogeneous binary forms over the rationals.

A :class:`BinaryForm` of degree ``d`` stores ``d + 1`` rational coefficients
(an ``int`` when integral, else a ``Fraction``), entry ``i`` being the
coefficient of ``x**(d-i) * y**i``; the zero form keeps its degree.  It is a
value type without arithmetic, for the parsed forms and the results.

The algorithms below run on the kernel: dense int lists, entry ``i`` being the
coefficient of ``x**i * y**(d-i)``, which is the low-to-high list of
``u(t) = f(t, 1)``.  Trailing zeros count the power of ``y`` dividing the
form (:func:`_y_part`), and :func:`_u_mul` multiplies two lists.

gcd, squarefree splitting, valuations and the split of a squarefree
polynomial by the order of vanishing of another run on primitive integer
polynomials through the dehomogenization ``t = x/y``, with the pure
``y``-power ("point at infinity") factor handled separately; none of them
factors.  A modular certificate skips the integer gcds when a polynomial is
squarefree, or two are coprime, modulo a large prime, which is the generic
case.

:func:`factor_over_rationals`, which names the irreducible places, settles
each squarefree part exactly and mostly without Zassenhaus: Newton lifting
modulo a small prime finds every rational linear factor; a cofactor of
degree 2 or 3 is then irreducible, and one of higher degree usually is too
by its factor degrees modulo a few small primes.  Only what these steps
leave open goes to sympy's dense Zassenhaus routine (:func:`dup_zz_factor`),
and sympy is imported on that first call.

Coefficients print in full through :func:`rational_str`, also past the
4300-digit limit of ``str(int)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroFormError

INFINITY = math.inf


def _exact(value) -> int | Fraction:
    """value as an int when it is integral, else as a Fraction."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def rational_str(value: int | Fraction) -> str:
    """str(value), also past the 4300-digit limit of Python's int-to-str
    conversion: a long number is written 1000 digits at a time."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{rational_str(value.numerator)}/{rational_str(value.denominator)}"
    value = int(value)
    if -_CHUNK < value < _CHUNK:
        return str(value)
    sign, value, chunks = "-" if value < 0 else "", abs(value), []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return sign + str(value) + "".join(reversed(chunks))


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous polynomial in x, y with exact rational coefficients.

    Each coefficient is an ``int`` when integral and a non-integral
    ``Fraction`` otherwise, never a float; ``from_coefficients`` normalizes.
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

    # -- normal forms ---------------------------------------------------------

    def primitive_part(self) -> "BinaryForm":
        """self over its content: integer coefficients with gcd 1 and a
        positive leading coefficient (x-major).  Zero form is rejected."""
        return _homogenize(*_dehomogenize(self))

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
                body = rational_str(mag)
            elif mag == 1:
                body = "*".join(vars_)
            else:
                body = "*".join([rational_str(mag)] + vars_)
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

    def __str__(self) -> str:
        if not self.factors:
            return rational_str(self.content)
        parts = [] if self.content == 1 else [rational_str(self.content)]
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
    den = math.lcm(*(c.denominator for c in f.coefficients))
    return _y_part([c.numerator * (den // c.denominator) for c in reversed(f.coefficients)])


def _y_part(v: list[int]) -> tuple[int, list[int]]:
    """(k, u) for the kernel list v of a nonzero form: y**k divides the form
    exactly and u is the primitive list of the form over y**k."""
    n = len(v)
    while n and v[n - 1] == 0:
        n -= 1
    if not n:
        raise ZeroFormError("cannot dehomogenize the zero form")
    return len(v) - n, _u_primitive(v[:n])


def _homogenize(y_power: int, u: list[int]) -> BinaryForm:
    return BinaryForm(y_power + len(u) - 1, (0,) * y_power + tuple(reversed(u)))


def _u_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two kernel lists (or of two univariate polynomials)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


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


def _p_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of the nonzero a and b, both trimmed lists of
    residues (b may be empty)."""
    a, b = list(a), list(b)
    while b:  # fraction-free Euclid: scale instead of inverting leads
        lb, low = b[-1], b[:-1]
        n = len(low)
        while len(a) > n:
            la = a.pop()
            s = len(a) - n
            a = [c * lb % p for c in a[:s]] + [
                (c * lb - la * d) % p for c, d in zip(a[s:], low)
            ]
            _u_trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _u_coprime_mod_prime(a: list[int], b: list[int], p: int = _PRIME) -> bool:
    """True when a keeps its degree modulo the prime p (a large one by
    default) and is coprime to b there.  A common factor over the rationals
    would stay a common factor of positive degree modulo p, so True proves a
    and b coprime; False proves nothing."""
    a = [c % p for c in a]
    return a[-1] != 0 and len(_p_gcd(a, _u_trim([c % p for c in b]), p)) == 1


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


# -- irreducible factors of a squarefree piece ------------------------------------
#
# Rational roots come from one small prime p that does not divide the leading
# coefficient and keeps u squarefree: a root a/b (b | lead, a | the lowest
# nonzero coefficient) reduces to a simple root modulo p, whose Newton lift
# pins lead * a/b once the modulus exceeds twice its largest possible size.
# What is left has no factor of degree 1 or n - 1, so degrees 2 and 3 are
# irreducible, and higher degrees are usually proved irreducible by their
# factor degrees modulo a few small primes.  Zassenhaus gets the rest.

# A prime keeps n distinct roots apart with odds about exp(-n^2 / 2p), so
# products of many linear forms need primes well above n^2 / 2.
_SMALL_PRIMES = tuple(p for p in range(2, 256) if all(p % q for q in range(2, p)))
_CERTIFICATE_PRIMES = 20  # usable primes read before leaving u to Zassenhaus


def dup_zz_factor(u: list[int]) -> list[list[int]]:
    """The primitive irreducible factors of the squarefree primitive u by
    sympy's dense Zassenhaus routine.  sympy is imported on the first call;
    nothing else in the package needs it."""
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor as zassenhaus

    _, factors = zassenhaus([ZZ(c) for c in reversed(u)], ZZ)
    return [_u_primitive([int(c) for c in reversed(g)]) for g, _ in factors]


def _u_eval(u: list[int], x: int, m: int) -> int:
    value = 0
    for c in reversed(u):
        value = (value * x + c) % m
    return value


def _u_linear_factors(u: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """(the primitive linear factors of u, their cofactor) for squarefree u
    and a prime p that keeps u squarefree and of the same degree."""
    lead = u[-1]
    bound = 2 * lead * abs(next(c for c in u if c))
    du = _u_derivative(u)
    linear, rest = [], u
    for residue in range(p):
        if _u_eval(u, residue, p):
            continue
        # quadratic Newton lift of the simple root, with inv = 1/u'(root)
        # lifted alongside, as a modular inverse of a large modulus is slow
        m, root, inv = p, residue, pow(_u_eval(du, residue, p), -1, p)
        while m <= bound:
            m *= m
            root = (root - _u_eval(u, root, m) * inv) % m
            inv = inv * (2 - _u_eval(du, root, m) * inv) % m
        numerator = lead * root % m
        if 2 * numerator > m:
            numerator -= m
        factor = _u_primitive([-numerator, lead])
        quotient = _u_exquo(rest, factor)
        if quotient is not None:
            linear.append(factor)
            rest = quotient
    return linear, rest


def _p_exquo(a: list[int], m: list[int], p: int) -> list[int]:
    """a / m over GF(p) for a monic m that divides a."""
    a = list(a)
    n = len(m) - 1
    quo = [0] * (len(a) - n)
    for shift in range(len(quo) - 1, -1, -1):
        q = quo[shift] = a[shift + n]
        if q:
            a[shift:shift + n] = [(c - q * d) % p for c, d in zip(a[shift:shift + n], m)]
    return quo


def _u_degrees_mod(u: list[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors of u modulo p (distinct-degree
    factorization), or None when u drops degree or is not squarefree there."""
    if not _u_coprime_mod_prime(u, _u_derivative(u), p):
        return None
    f = _p_gcd([c % p for c in u], [], p)  # u made monic
    n = len(f) - 1
    # A polynomial mod f packs into one int, coefficient i in bits [w i,
    # w i + w).  A step from t^k to t^(k+1) mod f shifts up and folds the top
    # coefficient back through t^n = -(f[0] + ... + f[n-1] t^(n-1)), leaving
    # the lanes unreduced: a step adds less than p^2 to a lane, so the rows
    # frobenius[j] = t^(p j) mod f stay below p^3 n and each h^p = sum h_j
    # frobenius[j] below p^4 n^2, which w bits hold.  h -> h^p is linear.
    w = (p**4 * n * n).bit_length()
    top, low, mask = w * (n - 1), (1 << (w * (n - 1))) - 1, (1 << w) - 1
    fold = sum(-c % p << (w * i) for i, c in enumerate(f[:n]))
    frobenius, power = [], 1
    for k in range(p * (n - 1) + 1):
        if k % p == 0:
            frobenius.append(power)
        power = ((power & low) << w) + (power >> top) % p * fold
    degrees: list[int] = []
    rest, h, d = f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        power = sum(c * row for c, row in zip(h, frobenius))
        h = _u_trim([(power >> (w * i) & mask) % p for i in range(n)])  # t^(p^d) mod f
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % p
        g = _p_gcd(rest, _u_trim(shifted), p)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            rest = _p_exquo(rest, g, p)
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return degrees


def _u_irreducible_by_degrees(u: list[int], start: int = 2) -> bool:
    """True when the factor degrees of u modulo a few small primes leave no
    room for a proper factor over the integers, given that u has none of
    degree 1 (hence none of degree n - 1).  A factor of degree k keeps its
    degree modulo a prime not dividing the leading coefficient, so k is a
    sum of some of the factor degrees there; True proves u irreducible over
    the rationals, False proves nothing.  The primes below start must be
    known to be unusable for u (to drop its degree or its squarefreeness)."""
    n = len(u) - 1
    whole = 1 | (1 << n)
    possible = ((1 << (n + 1)) - 1) & ~(2 | (1 << (n - 1)))  # bit k: degree k
    used = 0
    for p in _SMALL_PRIMES[_SMALL_PRIMES.index(start):]:
        degrees = _u_degrees_mod(u, p)
        if degrees is None:
            continue
        sums = 1
        for d in degrees:
            sums |= sums << d
        possible &= sums
        if possible == whole:
            return True
        used += 1
        if used == _CERTIFICATE_PRIMES:
            break
    return False


def _u_irreducible_factors(u: list[int]) -> list[list[int]]:
    """The primitive irreducible factors of the squarefree primitive u."""
    if len(u) <= 2:
        return [u]
    du = _u_derivative(u)
    p = next((p for p in _SMALL_PRIMES if _u_coprime_mod_prime(u, du, p)), None)
    if p is None:
        return dup_zz_factor(u)
    factors, rest = _u_linear_factors(u, p)
    if len(rest) == 1:
        return factors
    # when rest is u, every prime below p is known to be unusable for it
    if len(rest) <= 4 or _u_irreducible_by_degrees(rest, 2 if factors else p):
        return factors + [rest]
    return factors + dup_zz_factor(rest)


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


def factor_over_rationals(f: BinaryForm) -> Factorization:
    """Full irreducible factorization over the rationals."""
    if f.is_zero:
        raise ZeroFormError("cannot factor the zero form")
    k, u = _dehomogenize(f)
    content = Fraction(f.leading_coefficient, u[-1])
    factors: list[tuple[BinaryForm, int]] = [(Y_FORM, k)] if k else []
    # u and every factor below are primitive with positive leading
    # coefficients, so u is exactly their product and content stays.
    for part, mult in _u_squarefree_parts(u):
        factors += [(_homogenize(0, g), mult) for g in _u_irreducible_factors(part)]
    factors.sort(key=lambda item: item[0].sort_key())
    return Factorization(content, tuple(factors))


def _valuation_at_irreducible(f: BinaryForm, p: BinaryForm) -> int | float:
    """Largest k with p**k dividing f; infinity for the zero form f.  p must
    be primitive and irreducible over the rationals, as the factors of a
    Factorization are; a constant or a multiple of y other than y is
    rejected."""
    if p.degree == 0:  # a unit: every power of it divides f
        raise ValueError(f"not irreducible: the constant {p}")
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
