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


def try_divide(form: tuple, cand: tuple):
    """Exact quotient form/cand as an x-major tuple, or None."""
    vy_f, pf = split_y(form)
    vy_c, pc = split_y(cand)
    if vy_c > vy_f or len(pc) > len(pf):
        return None
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
