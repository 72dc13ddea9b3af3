"""Reduction of sextics to short Weierstrass form and its basic invariants.

The internal model of a degree-1 del Pezzo surface is

    w^2 = z^3 + f4(x, y) z + f6(x, y),

with f4, f6 binary forms of degrees 4 and 6.  A general sextic with nonzero
w^2 and z^3 coefficients is brought to this shape in one step, through the
classical invariants c4, c6 of its Weierstrass equation: f4 = -c4/48 and
f6 = -c6/864.  The result is isomorphic to the input surface over the
rationals; valuations of (f4, f6, delta) at every place -- hence the whole
classification -- do not depend on the choices made here.

The work runs on an integral model held as int lists in the kernel order
of ``forms``; only f4, f6, delta and the split pieces become forms.  The
parser, not this module, clears the sextic: a ``GeneralSextic`` holds int
slots over one denominator, which leaves one division per form for f4 and
f6.  The substitution z -> u^2 z, w -> u^3 w scales (f4, f6) to
(u^4 f4, u^6 f6) and delta to u^12 delta, and changes no valuation, no
split and not j, so ``weierstrass_data`` cubes, squares and splits the
integral model with u the lcm of the denominators of f4 and f6, and
divides delta by u^12 once.

Every verdict is read from the valuation triples (v4, v6, vD) of
(f4, f6, delta) at the places of the base line.  ``weierstrass_data``
computes them once and with no factorization, as squarefree pieces of
delta, one per triple (``WeierstrassData.split``).  Minimality is read
from this split too.  A place is non-minimal when v4 >= 4 and v6 >= 6,
the one triple without a row in Kodaira's table.  Then
vD >= min(3 v4, 2 v6) >= 12 = deg delta, so such a place is linear and
delta is a constant times its twelfth power: the split has it as its only
piece, already primitive with a positive x-major leading coefficient.
``weierstrass_data`` rejects it, and the Kodaira classification reads the
split it leaves behind.

The discriminant convention is delta = -16 (4 f4^3 + 27 f6^2).  Relative to
the bare cubic discriminant of z^3 + p z + q this carries a fixed factor 16
(after the sign-preserving substitution z -> -z used for inputs written as
w^2 + z^3 + ... = 0), which tests account for explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    MissingCubeTermError,
    MissingSquareTermError,
    NonMinimalError,
    ZeroDiscriminantError,
)
from .forms import (
    INFINITY,
    Y_FORM,
    BinaryForm,
    _exact,
    _homogenize,
    _u_mul,
    _u_split_by_order,
    _u_squarefree_parts,
    _y_part,
)

# Unused here; perfbench/tracing.py traces these names in this module.
from .forms import _valuation_at_irreducible, factor_over_rationals, form_gcd  # noqa: F401
from .sextic import GeneralSextic


@dataclass(frozen=True)
class JInvariant:
    """The j-invariant of the fibration as a function on the base line.

    ``constant`` is True exactly when f4^3 and f6^2 are proportional forms
    (including either being zero); ``value`` is the exact rational constant in
    that case (an int when integral, else a Fraction) and None otherwise.
    """

    constant: bool
    value: int | Fraction | None = None


@dataclass(frozen=True)
class WeierstrassData:
    """Validated short-Weierstrass pair with its discriminant and j-invariant.

    ``split`` holds (piece, v4, v6, vD) for the squarefree pieces of delta,
    one per valuation triple, with y = 0 a piece of its own.  It is read
    off the four other fields, so equality, hashing and repr leave it out.
    """

    f4: BinaryForm
    f6: BinaryForm
    delta: BinaryForm
    j: JInvariant
    split: tuple[tuple[BinaryForm, int | float, int | float, int], ...] = field(
        compare=False, repr=False)


def _split(f4: list[int], f6: list[int], delta: list[int]):
    """WeierstrassData.split of the kernel lists of an integral pair (f4, f6)
    and of its discriminant delta.

    Yun's algorithm splits the affine part of delta by vD; each part is
    split by the order of vanishing of f4, then of f6.  A simple root of
    delta needs no split, v4 = v6 = 0 there: if only one of f4, f6
    vanished there, delta would not, and if both did, delta would vanish
    at least twice.  So a discriminant that is squarefree (the generic
    case) costs one modular check and no gcd.  Each piece is primitive
    with positive x-major leading coefficient.
    """
    k, u = _y_part(delta)
    f4 = _y_part(f4) if any(f4) else None
    f6 = _y_part(f6) if any(f6) else None
    pieces = []
    if k:
        v4, v6 = (INFINITY if f is None else f[0] for f in (f4, f6))
        pieces.append((Y_FORM, v4, v6, k))
    for part, vD in _u_squarefree_parts(u):
        if vD == 1:
            pieces.append((_homogenize(0, part), 0, 0, 1))
            continue
        for piece4, v4 in _split_by_order(part, f4):
            for piece, v6 in _split_by_order(piece4, f6):
                pieces.append((_homogenize(0, piece), v4, v6, vD))
    return tuple(pieces)


def _split_by_order(g: list[int], f: tuple[int, list[int]] | None):
    """forms._u_split_by_order, with infinite order for a zero form (None)."""
    return [(g, INFINITY)] if f is None else _u_split_by_order(g, f[1])


def _discriminant_from_parts(cube: list[int], square: list[int]) -> list[int]:
    """delta = -16 (4 f4^3 + 27 f6^2) from f4^3 and f6^2, all kernel lists."""
    delta = [-64 * c - 432 * s for c, s in zip(cube, square)]
    if not any(delta):
        raise ZeroDiscriminantError(
            "not an elliptic fibration: discriminant vanishes identically"
        )
    return delta


def _j_from_parts(cube: list[int], square: list[int]) -> JInvariant:
    """j = 1728 * 4 f4^3 / (4 f4^3 + 27 f6^2) as an exact function, from
    the kernel lists of f4^3 and f6^2 (f4 is zero exactly when its cube is).

    Constant if and only if f4^3 and f6^2 are linearly dependent as forms;
    the constant value is 0 when f4 = 0 and 1728 when f6 = 0.
    """
    if not any(cube) and not any(square):
        raise ZeroDiscriminantError("j undefined: discriminant vanishes identically")
    if not any(cube):
        return JInvariant(True, 0)
    if not any(square):
        return JInvariant(True, 1728)
    # f4^3 = (a / s) f6^2 for a nonzero coefficient s of f6^2 and the
    # coefficient a of f4^3 beside it, if every pair (c, t) has c s = a t.
    pairs = list(zip(cube, square))
    a, s = next((c, t) for c, t in pairs if t)
    if any(c * s != a * t for c, t in pairs):
        return JInvariant(False)
    # j = 1728 * 4 (a/s) / (4 (a/s) + 27); a zero denominator makes delta
    # vanish identically (weierstrass_data rejects that before j is read).
    denominator = 4 * a + 27 * s
    if denominator == 0:
        raise ZeroDiscriminantError("j undefined: discriminant vanishes identically")
    return JInvariant(True, _exact(Fraction(6912 * a, denominator)))


def weierstrass_data(f4: BinaryForm, f6: BinaryForm) -> WeierstrassData:
    """Validate a short-Weierstrass pair and compute delta, j and the split
    of delta; reject a place with v4 >= 4 and v6 >= 6, where the sextic has
    a singularity that is not du Val."""
    if f4.degree != 4 or f6.degree != 6:
        raise ValueError("a short-Weierstrass pair has degrees 4 and 6")
    # the integral model (u^4 f4, u^6 f6) has discriminant u^12 delta, the
    # same j and the same split
    u = math.lcm(*(c.denominator for c in f4.coefficients + f6.coefficients))
    int4, int6 = _cleared(f4, u**4), _cleared(f6, u**6)
    cube, square = _u_mul(_u_mul(int4, int4), int4), _u_mul(int6, int6)
    int_delta = _discriminant_from_parts(cube, square)
    if u == 1:
        delta = BinaryForm(12, tuple(reversed(int_delta)))
    else:
        scale = u**12
        delta = BinaryForm.from_coefficients(
            12, (Fraction(c, scale) for c in reversed(int_delta)))
    split = _split(int4, int6, int_delta)
    for poly, v4, v6, _ in split:
        if v4 >= 4 and v6 >= 6:
            raise NonMinimalError(f"non-minimal place at {poly}: not du Val", place=poly)
    return WeierstrassData(f4, f6, delta, _j_from_parts(cube, square), split)


def reduce_to_short(sextic: GeneralSextic) -> WeierstrassData:
    """Bring a general sextic to the short form w^2 = z^3 + f4 z + f6."""
    if sextic.c_w2 == 0:
        raise MissingSquareTermError(
            "not in del Pezzo normal form: no w^2 term"
        )
    if sextic.c_z3 == 0:
        raise MissingCubeTermError(
            "not in del Pezzo normal form: no z^3 term"
        )
    # The int fields are den times the sextic, which divides f4 by den^4 and
    # f6 by den^6.
    den, a, b = sextic.den, sextic.c_w2, -sextic.c_z3
    c_wz, c_w, c_z2, c_z, c_0 = sextic.c_wz, sextic.c_w, sextic.c_z2, sextic.c_z, sextic.c_0
    ab = a * b
    # Times 4a the sextic reads
    #   (2a w + c_wz z + c_w)^2 = 4ab z^3 - p z^2 - 2q z - r.
    # Rescaling z -> ab z, w -> ab^2 w gives Tate's b2 = -p/(ab)^2,
    # b4 = -q/(ab)^3, b6 = -r/(ab)^4, and depressing the cubic gives
    # f4 = -c4/48, f6 = -c6/864 with c4 = b2^2 - 24 b4 and
    # c6 = -b2^3 + 36 b2 b4 - 216 b6 (Silverman, AEC III.1).  Clearing the
    # powers of ab leaves int lists and one division per form, which also
    # undoes the scaling by den.
    p = [4 * a * c - d for c, d in zip(c_z2, _u_mul(c_wz, c_wz))]
    q = [2 * a * c - d for c, d in zip(c_z, _u_mul(c_wz, c_w))]
    r = [4 * a * c - d for c, d in zip(c_0, _u_mul(c_w, c_w))]
    pp = _u_mul(p, p)
    c4 = [c + 24 * ab * d for c, d in zip(pp, q)]
    c6 = [c + 36 * ab * d + 216 * ab**2 * e
          for c, d, e in zip(_u_mul(pp, p), _u_mul(p, q), r)]
    scale4, scale6 = Fraction(-den**4, 48 * ab**4), Fraction(-den**6, 864 * ab**6)
    f4 = BinaryForm.from_coefficients(4, (c * scale4 for c in reversed(c4)))
    f6 = BinaryForm.from_coefficients(6, (c * scale6 for c in reversed(c6)))
    return weierstrass_data(f4, f6)


def _cleared(f: BinaryForm, scale: int) -> list[int]:
    """The kernel list of scale * f, for a form whose denominators divide
    scale."""
    return [c.numerator * (scale // c.denominator) for c in reversed(f.coefficients)]
