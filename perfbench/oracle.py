"""Independent oracle for the fiber configuration of w^2 = z^3 + f4 z + f6.

Shares no code with ``delpezzo``.  It needs no irreducible factorization:
the Kodaira type at a point of the base line depends only on the valuation
triple (v4, v6, vD) there, so splitting delta, f4 and f6 into squarefree
parts (Yun) and intersecting the parts by gcd gives, for every triple, the
number of geometric points carrying it.  The point y = 0 is handled on its
own.  When delta is squarefree modulo a large prime, every root of delta is
simple, so every singular fiber is I1 and no rational gcd is needed.

Forms are x-major coefficient sequences: entry i of a degree-d form is the
coefficient of x^(d-i) y^i, which is also the descending coefficient list of
the dehomogenization f(t, 1) once the leading zeros (the y^k factor) go.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gen import Poly

PRIME = (1 << 61) - 1

# Kodaira types of additive fibers by vD (valid for minimal triples with
# v4, v6 >= 1, except In* which is the tie v4 = 2, v6 = 3 with vD > 6).
_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}
_DUVAL_RANK = {"II": 0, "III": 1, "IV": 2, "I0*": 4, "IV*": 6, "III*": 7, "II*": 8}


def kodaira(v4, v6, vD: int) -> tuple[str, int | None]:
    """Kodaira type (tag, n) of a singular fiber from its valuation triple."""
    if v4 >= 4 and v6 >= 6:
        raise ValueError("non-minimal place")
    if v4 == 0:
        return ("In", vD)
    if (v4, v6) == (2, 3) and vD > 6:
        return ("In*", vD - 6)
    if vD not in _ADDITIVE:
        raise ValueError(f"impossible valuation triple {(v4, v6, vD)}")
    return (_ADDITIVE[vD], None)


def duval_rank(tag: str, n: int | None) -> int:
    if tag == "In":
        return n - 1
    if tag == "In*":
        return 4 + n
    return _DUVAL_RANK[tag]


# -- dense univariate arithmetic over Q, descending coefficient lists -------------


def _trim(p: list) -> list:
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod(num: list, den: list) -> tuple[list, list]:
    num = [Fraction(c) for c in num]
    quo = []
    for shift in range(len(num) - len(den) + 1):
        q = num[shift] / den[0]
        quo.append(q)
        if q:
            for i, c in enumerate(den):
                num[shift + i] -= q * c
    return quo, _trim(num[len(quo):])


def _sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return _trim([x - y for x, y in zip(a, b)])


def _monic(p: list) -> list:
    return [Fraction(c) / p[0] for c in p]


def _gcd(a: list, b: list) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _derivative(p: list) -> list:
    d = len(p) - 1
    return _trim([c * (d - i) for i, c in enumerate(p[:-1])])


def _squarefree_parts(p: list) -> dict[int, list]:
    """Yun: monic p = prod g_m^m with g_m squarefree, pairwise coprime;
    returns {m: g_m} for the g_m of positive degree."""
    parts: dict[int, list] = {}
    if len(p) <= 1:
        return parts
    dp = _derivative(p)
    g = _gcd(p, dp)
    b, c = _divmod(p, g)[0], _divmod(dp, g)[0]
    m = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d) if d else _monic(b)
        if len(a) > 1:
            parts[m] = a
        b = _divmod(b, a)[0]
        c = _divmod(d, a)[0] if d else []
        m += 1
    return parts


def _split(g: list, parts: dict[int, list] | None) -> list[tuple[list, float]]:
    """Split squarefree g by the valuation its roots have in the form whose
    squarefree parts are ``parts`` (None: that form is identically zero)."""
    if parts is None:
        return [(g, math.inf)]
    out = []
    rest = g
    for m, part in parts.items():
        common = _gcd(rest, part)
        if len(common) > 1:
            out.append((common, m))
            rest = _divmod(rest, common)[0]
    if len(rest) > 1:
        out.append((rest, 0))
    return out


def _squarefree_mod_prime(p: list[int]) -> bool:
    """True when p keeps its degree mod PRIME and has no repeated root there,
    which proves p squarefree over Q."""
    a = [c % PRIME for c in p]
    if a[0] == 0:
        return False
    b = [c % PRIME for c in _derivative(p)]
    while b and b[0] == 0:
        b.pop(0)
    while b:
        inv = pow(b[0], PRIME - 2, PRIME)
        while len(a) >= len(b):
            q = a[0] * inv % PRIME
            for i, c in enumerate(b):
                a[i] = (a[i] - q * c) % PRIME
            a.pop(0)
            while a and a[0] == 0:
                a.pop(0)
        a, b = b, a
    return len(a) == 1


# -- the oracle ---------------------------------------------------------------------


def _integral(form) -> list[int]:
    den = math.lcm(*(Fraction(c).denominator for c in form))
    return [int(Fraction(c) * den) for c in form]


def _y_split(form: list) -> tuple[int, list]:
    k = 0
    while form[k] == 0:
        k += 1
    return k, form[k:]


def fiber_configuration(f4, f6) -> frozenset[tuple[str, int | None, int]]:
    """Multiset {(tag, n, geometric count)} of the singular fibers."""
    f4 = [Fraction(c) for c in f4]
    f6 = [Fraction(c) for c in f6]
    cube, square = _mul(_mul(f4, f4), f4), _mul(f6, f6)
    delta = _integral([-16 * (4 * a + 27 * b) for a, b in zip(cube, square)])
    if not any(delta):
        raise ValueError("discriminant vanishes identically")
    zero4, zero6 = not any(f4), not any(f6)
    triples: dict[tuple, int] = {}
    # the point y = 0
    kD, affine = _y_split(delta)
    if kD:
        v4 = math.inf if zero4 else _y_split(f4)[0]
        v6 = math.inf if zero6 else _y_split(f6)[0]
        triples[(v4, v6, kD)] = 1
    # the points y != 0
    if len(affine) > 1:
        if _squarefree_mod_prime(affine):
            triples[(0, 0, 1)] = triples.get((0, 0, 1), 0) + len(affine) - 1
        else:
            parts4 = None if zero4 else _squarefree_parts(_monic(_y_split(f4)[1]))
            parts6 = None if zero6 else _squarefree_parts(_monic(_y_split(f6)[1]))
            for vD, g in _squarefree_parts(_monic(affine)).items():
                for g4, v4 in _split(g, parts4):
                    for g46, v6 in _split(g4, parts6):
                        key = (v4, v6, vD)
                        triples[key] = triples.get(key, 0) + len(g46) - 1
    counts: dict[tuple[str, int | None], int] = {}
    for (v4, v6, vD), count in triples.items():
        kind = kodaira(v4, v6, vD)
        counts[kind] = counts.get(kind, 0) + count
    return frozenset((tag, n, c) for (tag, n), c in counts.items())


def picard_rank(fibers) -> int:
    return 9 - sum(duval_rank(tag, n) * c for tag, n, c in fibers)


def short_form(poly: Poly) -> tuple[list[Fraction], list[Fraction]]:
    """(f4, f6) of w^2 = z^3 + f4 z + f6 isomorphic to the sextic poly = 0,
    which must have nonzero w^2 and z^3 coefficients."""

    def form(dz: int, dw: int, degree: int) -> list[Fraction]:
        return [poly.terms.get((degree - i, i, dz, dw), Fraction(0))
                for i in range(degree + 1)]

    def scaled(f, s) -> list[Fraction]:
        return [s * c for c in f]

    def add(*fs) -> list[Fraction]:
        return [sum(cs) for cs in zip(*fs)]

    A = poly.terms[(0, 0, 0, 2)]
    p1, p0 = form(1, 1, 1), form(0, 1, 3)  # w (p1 z + p0)
    # A w^2 + w P + Q = A (w + P / 2A)^2 + Q - P^2 / 4A; the cubic R = Q - P^2/4A
    r3 = poly.terms[(0, 0, 3, 0)]
    r2 = add(form(2, 0, 2), scaled(_mul(p1, p1), -1 / (4 * A)))
    r1 = add(form(1, 0, 4), scaled(_mul(p1, p0), -1 / (2 * A)))
    r0 = add(form(0, 0, 6), scaled(_mul(p0, p0), -1 / (4 * A)))
    # w^2 = s z^3 + b2 z^2 + ... with s = -r3/A; z -> z/s, w -> w/s makes it monic
    s = -r3 / A
    b2 = scaled(r2, -1 / A)
    b4 = scaled(r1, -s / A)
    b6 = scaled(r0, -s * s / A)
    # depress the cubic: z -> z - b2/3
    f4 = add(b4, scaled(_mul(b2, b2), Fraction(-1, 3)))
    f6 = add(b6, scaled(_mul(b2, b4), Fraction(-1, 3)),
             scaled(_mul(_mul(b2, b2), b2), Fraction(2, 27)))
    return f4, f6
