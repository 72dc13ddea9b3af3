"""Kodaira classification of the singular fibers of the associated fibration.

The valuation triple (v4, v6, vD) of (f4, f6, delta) at a place of the base
line determines the fiber type there by the standard characteristic-0
criteria for y^2 = x^3 + a x + b.  So the verdict needs no irreducible
factorization: ``WeierstrassData.split`` (computed once, when
``weierstrass_data`` checks minimality) gives the squarefree pieces of
delta, one per triple, and each piece counts its degree in fibers of its
type.  The irreducible places are factored out of the pieces only when
``FiberConfiguration.places`` is first read, which output does.
Cross-checks pin the table to the reference data: the Euler number of each
type equals vD, the pieces add up to degree 12 and Euler number 12, the
places add up to the same fibers as the pieces, and the per-type j-value
class (0 / 1728 / pole / arbitrary) matches the constancy and value of the
j-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

from .errors import InconsistentValuationError, InternalInvariantError, NonMinimalError
from .forms import INFINITY, BinaryForm, factor_over_rationals

# Unused here; perfbench/tracing.py traces this name in this module.
from .forms import _valuation_at_irreducible  # noqa: F401
from .weierstrass import WeierstrassData

ALL_TAGS = ("I0", "In", "II", "III", "IV", "I0*", "In*", "IV*", "III*", "II*")


@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fiber type; n parametrizes the In and In* series (n >= 1)."""

    tag: str
    n: int | None = None

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise ValueError(f"unknown Kodaira tag {self.tag!r}")
        if self.tag in ("In", "In*"):
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.tag} needs a parameter n >= 1")
        elif self.n is not None:
            raise ValueError(f"{self.tag} takes no parameter")

    def __str__(self) -> str:
        if self.tag == "In":
            return f"I{self.n}"
        if self.tag == "In*":
            return f"I{self.n}*"
        return self.tag

    @property
    def chi(self) -> int:
        return fiber_properties(self).chi

    def sort_key(self):
        return (-self.chi, self.tag, self.n or 0)


@dataclass(frozen=True)
class DuValLabel:
    """A du Val singularity type A_n (n>=1), D_n (n>=4) or E_n (n in 6,7,8);
    its rank is the index."""

    family: str
    index: int

    def __post_init__(self):
        ok = (
            (self.family == "A" and self.index >= 1)
            or (self.family == "D" and self.index >= 4)
            or (self.family == "E" and self.index in (6, 7, 8))
        )
        if not ok:
            raise ValueError(f"not a du Val label: {self.family}{self.index}")

    @property
    def rank(self) -> int:
        return self.index

    def __str__(self) -> str:
        return f"{self.family}{self.index}"

    def sort_key(self):
        return (-self.index, self.family)


@dataclass(frozen=True)
class FiberTypeProperties:
    """One column of the fiber-type reference table."""

    duval: DuValLabel | None  # None encodes A0 (no singular point)
    chi: int
    j_class: str  # "any", "pole", "zero", "value1728"
    rank: int


@cache
def fiber_properties(t: KodairaType) -> FiberTypeProperties:
    """Reference data per fiber type: du Val label, Euler number, j-value
    class and du Val lattice rank."""
    tag = t.tag
    if tag == "I0":
        return FiberTypeProperties(None, 0, "any", 0)
    if tag == "In":
        n = t.n
        duval = DuValLabel("A", n - 1) if n >= 2 else None
        return FiberTypeProperties(duval, n, "pole", n - 1)
    if tag == "II":
        return FiberTypeProperties(None, 2, "zero", 0)
    if tag == "III":
        return FiberTypeProperties(DuValLabel("A", 1), 3, "value1728", 1)
    if tag == "IV":
        return FiberTypeProperties(DuValLabel("A", 2), 4, "zero", 2)
    if tag == "I0*":
        return FiberTypeProperties(DuValLabel("D", 4), 6, "any", 4)
    if tag == "In*":
        n = t.n
        return FiberTypeProperties(DuValLabel("D", 4 + n), 6 + n, "pole", 4 + n)
    if tag == "IV*":
        return FiberTypeProperties(DuValLabel("E", 6), 8, "zero", 6)
    if tag == "III*":
        return FiberTypeProperties(DuValLabel("E", 7), 9, "value1728", 7)
    if tag == "II*":
        return FiberTypeProperties(DuValLabel("E", 8), 10, "zero", 8)
    raise ValueError(f"unknown Kodaira tag {tag!r}")


def classify_place(v4: int | float, v6: int | float, vD: int) -> KodairaType:
    """Kodaira type from the valuation triple at one place.

    v4 or v6 may be infinite (f4 or f6 identically zero).  The triple is
    checked for arithmetic consistency: vD = min(3 v4, 2 v6) unless the two
    tie, in which case cancellation can push vD above the common value.
    """
    if vD < 1:
        raise InconsistentValuationError("a stored place needs vD >= 1")
    m4 = 3 * v4  # inf stays inf
    m6 = 2 * v6
    if m4 == INFINITY and m6 == INFINITY:
        raise InconsistentValuationError("f4 and f6 cannot both vanish identically")
    if m4 != m6:
        if vD != min(m4, m6):
            raise InconsistentValuationError(
                f"vD must equal min(3*v4, 2*v6) = {min(m4, m6)}, got {vD}"
            )
    elif vD < m4:
        raise InconsistentValuationError(
            f"vD must be at least the tied value {m4}, got {vD}"
        )
    if v4 == 0:
        return KodairaType("In", vD)
    if v6 == 1:
        return KodairaType("II")
    if v4 == 1:
        return KodairaType("III")
    if v6 == 2:
        return KodairaType("IV")
    if vD == 6:
        return KodairaType("I0*")
    if v4 == 2:  # tie 3*v4 = 2*v6 = 6 with cancellation, so v6 = 3
        return KodairaType("In*", vD - 6)
    if v6 == 4:
        return KodairaType("IV*")
    if v4 == 3:
        return KodairaType("III*")
    if v6 == 5:
        return KodairaType("II*")
    # v4 >= 4 and v6 >= 6
    raise NonMinimalError(
        f"valuations (v4, v6) = ({v4}, {v6}) admit a further reduction: "
        "not a du Val del Pezzo surface"
    )


@dataclass(frozen=True)
class Place:
    """A closed point of the base line carrying a singular fiber.

    In ``FiberConfiguration.pieces`` the same record stands for a piece of the
    discriminant: ``poly`` is then the squarefree product of the places that
    share the valuation triple, and ``geometric_degree`` counts them all.
    """

    poly: BinaryForm  # primitive, positive leading coefficient
    v4: int | float
    v6: int | float
    vD: int
    fiber: KodairaType

    @property
    def geometric_degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class FiberConfiguration:
    """Multiset of Kodaira types with geometric multiplicities.

    ``entries`` pairs each type with its geometric fiber count (conjugate
    fibers over one rational place count with the place's degree).
    ``pieces`` carries the split discriminant when the configuration came
    from an actual surface; purely combinatorial configurations have none.
    ``places`` factors the pieces into irreducible places the first time it
    is read; equality and hashing look only at ``entries`` and ``pieces``.
    """

    entries: tuple[tuple[KodairaType, int], ...]
    pieces: tuple[Place, ...] = ()

    @staticmethod
    def from_counts(counts: dict[KodairaType, int]) -> "FiberConfiguration":
        entries = tuple(
            sorted(((t, c) for t, c in counts.items() if c),
                   key=lambda item: item[0].sort_key())
        )
        return FiberConfiguration(entries)

    @staticmethod
    def from_places(places: tuple[Place, ...]) -> "FiberConfiguration":
        counts: dict[KodairaType, int] = {}
        for place in places:
            counts[place.fiber] = counts.get(place.fiber, 0) + place.geometric_degree
        entries = tuple(
            sorted(counts.items(), key=lambda item: item[0].sort_key())
        )
        return FiberConfiguration(entries, places)

    @cached_property
    def places(self) -> tuple[Place, ...]:
        """The irreducible places, sorted, each with its piece's triple."""
        places = []
        for piece in self.pieces:
            if piece.poly.degree == 1:
                places.append(piece)
                continue
            for poly, _ in factor_over_rationals(piece.poly).factors:
                places.append(replace(piece, poly=poly))
        places.sort(key=lambda place: place.poly.sort_key())
        places = tuple(places)
        if FiberConfiguration.from_places(places).entries != self.entries:
            raise InternalInvariantError(
                f"the places of {self} do not add up to its fibers"
            )
        return places

    def multiset(self) -> frozenset[tuple[str, int | None, int]]:
        return frozenset((t.tag, t.n, c) for t, c in self.entries)

    @property
    def chi_total(self) -> int:
        return sum(t.chi * c for t, c in self.entries)

    @property
    def rank_total(self) -> int:
        return sum(fiber_properties(t).rank * c for t, c in self.entries)

    @property
    def has_In(self) -> bool:
        return any(t.tag == "In" for t, _ in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "(no singular fibers)"
        return " + ".join(
            f"{c}{t}" if c > 1 else str(t) for t, c in self.entries
        )


def configuration(*items: tuple[str, int | None, int]) -> FiberConfiguration:
    """Shorthand builder: configuration(("In*", 2, 1), ("II", None, 2))."""
    counts = {KodairaType(tag, n): count for tag, n, count in items}
    return FiberConfiguration.from_counts(counts)


def classify_fibration(wd: WeierstrassData) -> FiberConfiguration:
    """Classify the fiber over every piece of ``wd.split``; irreducible
    places are left to ``places``."""
    pieces = []
    for poly, v4, v6, vD in wd.split:
        fiber = classify_place(v4, v6, vD)
        pieces.append(Place(poly=poly, v4=v4, v6=v6, vD=vD, fiber=fiber))
    pieces.sort(key=lambda piece: piece.poly.sort_key())
    config = FiberConfiguration.from_places(tuple(pieces))
    total = sum(piece.geometric_degree * piece.vD for piece in pieces)
    if total != 12:
        raise InternalInvariantError(
            f"discriminant degree bookkeeping broke: sum deg*vD = {total} != 12"
        )
    if config.chi_total != 12:
        raise InternalInvariantError(
            f"Euler numbers do not add up to 12: {config.chi_total}"
        )
    return config
