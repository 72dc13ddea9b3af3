"""Independent brute-force oracles for the test suite.

A binary form of degree d is an x-major tuple (c_0, ..., c_d), c_i being the
coefficient of x**(d-i) * y**i.  Internally a form splits as
y**vy * p(x, y) where p has a nonzero x**deg term; the x-major tail of p is
exactly the descending coefficient list of the dehomogenization p(s, 1).
Nothing here is shared with the package implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction


def divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def split_y(form: tuple) -> tuple[int, list]:
    """form = y**vy * hom(p) with p a descending coefficient list, p[0] != 0."""
    vy = 0
    while vy < len(form) and form[vy] == 0:
        vy += 1
    if vy == len(form):
        raise ValueError("zero form")
    return vy, list(form[vy:])


def join_y(vy: int, p: list) -> tuple:
    return (0,) * vy + tuple(p)


def poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def poly_pow(a: tuple, k: int) -> tuple:
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_add(*polys: tuple) -> tuple:
    """The sum of coefficient tuples of one length."""
    return tuple(map(sum, zip(*polys, strict=True)))


def poly_scale(c, a: tuple) -> tuple:
    return tuple(c * x for x in a)


# -- polynomials in x, y, z, w: dicts {(ex, ey, ez, ew): coefficient} ---------------


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def short_sextic(f4: tuple, f6: tuple) -> dict:
    """w^2 - z^3 - f4 z - f6 for x-major forms f4, f6."""
    terms = {(0, 0, 0, 2): 1, (0, 0, 3, 0): -1}
    terms.update({(4 - i, i, 1, 0): -c for i, c in enumerate(f4) if c})
    terms.update({(6 - i, i, 0, 0): -c for i, c in enumerate(f6) if c})
    return terms


def substituted(poly: dict, alpha, beta, q2: tuple, ell: tuple, h3: tuple, gamma) -> dict:
    """gamma * poly under w -> beta w + ell z + h3, z -> alpha z + q2, for
    x-major forms q2, ell, h3."""
    z_new = {(0, 0, 1, 0): alpha}
    z_new.update({(2 - i, i, 0, 0): c for i, c in enumerate(q2) if c})
    w_new = {(0, 0, 0, 1): beta}
    w_new.update({(1 - i, i, 1, 0): c for i, c in enumerate(ell) if c})
    w_new.update({(3 - i, i, 0, 0): c for i, c in enumerate(h3) if c})
    out: dict = {}
    for (dx, dy, dz, dw), c in poly.items():
        term = {(dx, dy, 0, 0): c * gamma}
        for factor in [z_new] * dz + [w_new] * dw:
            term = _dict_mul(term, factor)
        for m, t in term.items():
            out[m] = out.get(m, 0) + t
    return {m: c for m, c in out.items() if c}


# -- division ------------------------------------------------------------------------


def _desc_divmod(num: list, den: list):
    """Long division of descending coefficient lists over Q."""
    num = [Fraction(c) for c in num]
    out = []
    lead = Fraction(den[0])
    for shift in range(len(num) - len(den) + 1):
        q = num[shift] / lead
        out.append(q)
        if q:
            for i, c in enumerate(den):
                num[shift + i] -= q * c
    rem = num[len(out):]
    return out, rem


def _int_divide(num: list, den: list) -> list | None:
    """num / den for descending int lists, or None when den does not divide
    num over Q.  num is divided by the primitive part of den in integers:
    a primitive divisor leaves an integer quotient (Gauss's lemma), so the
    first inexact step proves that den does not divide.  The quotient is
    then divided by the content of den."""
    content = math.gcd(*den)
    prim = [c // content for c in den]
    num, out = list(num), []
    for shift in range(len(num) - len(prim) + 1):
        q, r = divmod(num[shift], prim[0])
        if r:
            return None
        out.append(q)
        if q:
            for i, c in enumerate(prim):
                num[shift + i] -= q * c
    if any(num[len(out):]):
        return None
    return [q // content if q % content == 0 else Fraction(q, content) for q in out]


def try_divide(form: tuple, cand: tuple):
    """Exact quotient form/cand as an x-major tuple, or None."""
    vy_f, pf = split_y(form)
    vy_c, pc = split_y(cand)
    if vy_c > vy_f or len(pc) > len(pf):
        return None
    if all(type(c) is int for c in pf + pc):
        quo = _int_divide(pf, pc)
        return None if quo is None else join_y(vy_f - vy_c, quo)
    quo, rem = _desc_divmod(pf, pc)
    if any(c != 0 for c in rem):
        return None
    quo = [int(c) if c.denominator == 1 else c for c in quo]
    return join_y(vy_f - vy_c, quo)


def multiplicity(cand: tuple, form: tuple) -> int:
    count = 0
    current = form
    while True:
        nxt = try_divide(current, cand)
        if nxt is None:
            return count
        count += 1
        current = nxt
        if len(current) == 1:
            # a constant; only constants divide it, cand is nonconstant
            return count


def linear_factors(form: tuple) -> dict[tuple, int]:
    """All primitive linear factors a*x + b*y (a > 0, gcd(a,b) = 1, plus the
    special factors x and y) with multiplicities.  Complete: the rational
    root theorem needs no height cap."""
    found: dict[tuple, int] = {}
    vy, p = split_y(form)
    if vy:
        found[(0, 1)] = vy
    vx = 0
    while p and p[-1] == 0:
        p.pop()
        vx += 1
    if vx:
        found[(1, 0)] = vx
    if len(p) <= 1:
        return found
    # p is descending in s = x/y with nonzero ends; a root s = -b/a of the
    # dehomogenization gives the linear factor a*x + b*y.  The root test is
    # the integer evaluation of the homogenized p at (x, y) = (-b, a).
    lead, trail = abs(p[0]), abs(p[-1])
    e = len(p) - 1
    for a in divisors(lead):
        a_pow = [1]
        for _ in range(e):
            a_pow.append(a_pow[-1] * a)
        for b_abs in divisors(trail):
            if math.gcd(a, b_abs) != 1:
                continue
            for b in (b_abs, -b_abs):
                xv = -b
                value = sum(c * xv ** (e - i) * a_pow[i] for i, c in enumerate(p))
                if value == 0:
                    cand = (a, b)
                    found[cand] = multiplicity(cand, form)
    return found


def bounded_factor_search(form: tuple) -> list[tuple[tuple, int]]:
    """Complete factorization of a form of degree <= 4 by exhaustive trial
    division, with candidate heights bounded by a Mignotte-style bound.
    Returns primitive factors (x-major, positive first nonzero entry) with
    multiplicities; the rational content is dropped."""
    degree = len(form) - 1
    if degree > 4:
        raise ValueError("bounded search oracle is for degree <= 4 forms")
    factors: dict[tuple, int] = dict(linear_factors(form))
    remaining = form
    for cand, mult in factors.items():
        for _ in range(mult):
            remaining = try_divide(remaining, cand)
    vy, p = split_y(remaining)
    assert vy == 0, "linear sweep should have removed all x, y factors"
    if len(p) <= 2:
        if len(p) == 2:
            raise AssertionError("linear sweep missed a rational linear factor")
        return sorted(factors.items())
    # p has degree 2..4, no linear factors; only quadratic splits remain
    norm = math.isqrt(sum(c * c for c in p)) + 1
    bound = 4 * norm
    lead, trail = abs(p[0]), abs(p[-1])
    while len(p) == 4 or len(p) == 5:
        hit = None
        for a in divisors(lead):
            for c_abs in divisors(trail):
                for c in (c_abs, -c_abs):
                    for b in range(-bound, bound + 1):
                        cand = (a, b, c)
                        quo = try_divide(join_y(0, p), cand)
                        if quo is not None:
                            hit = cand
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            break
        key = hit
        factors[key] = factors.get(key, 0) + 1
        vy2, p = split_y(try_divide(join_y(0, p), hit))
        assert vy2 == 0
        lead, trail = abs(p[0]), abs(p[-1])
    if len(p) > 1:
        g = math.gcd(*[abs(c) for c in p]) if len(p) > 1 else 1
        prim = tuple(c // g for c in p)
        if prim[0] < 0:
            prim = tuple(-c for c in prim)
        factors[prim] = factors.get(prim, 0) + 1
    return sorted(factors.items())
