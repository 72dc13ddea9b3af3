"""The decision engine: from a fiber configuration to the full verdict.

For a degree-1 du Val del Pezzo surface the associated relatively minimal
elliptic fibration determines everything reported here:

* the du Val singularity configuration (one type per geometric singular
  fiber), and from it the Picard rank 9 - sum of ranks;
* first coregularity: coreg1 = 0 exactly when some nodal-chain fiber In
  (n >= 1) occurs;
* coregularity: coreg = 0 exactly when the fibration is not isotrivial or
  the configuration is one of 2I0*, I0* + 2III;
* second coregularity: always equal to coreg (a 1-complement is also a
  2-complement so coreg2 <= coreg1, and whenever coreg = 0 with coreg1 = 1 a
  2-complement of maximal dual-complex dimension exists, so coreg2 = 0;
  when coreg = 1, coreg2 is squeezed to 1);
* a toric model exists if and only if coreg1 = 0;
* special labels for the extremal configurations and the finitely many
  surfaces fixed by their fiber configuration.

Surfaces of degree 2 through 9 need no equation data: coreg = coreg1 = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .enumeration import enumerate_isotrivial
from .errors import InternalInvariantError
from .forms import rational_str
from .kodaira import (
    DuValLabel,
    FiberConfiguration,
    Place,
    classify_fibration,
    fiber_properties,
)
from .sextic import parse_sextic
from .weierstrass import JInvariant, WeierstrassData, reduce_to_short


@dataclass(frozen=True)
class SingularityConfig:
    """Multiset of du Val singularity types."""

    entries: tuple[tuple[DuValLabel, int], ...]

    @staticmethod
    def from_counts(counts: dict[DuValLabel, int]) -> "SingularityConfig":
        entries = tuple(
            sorted(((label, c) for label, c in counts.items() if c),
                   key=lambda item: item[0].sort_key())
        )
        return SingularityConfig(entries)

    @property
    def total_rank(self) -> int:
        return sum(label.rank * count for label, count in self.entries)

    def multiset(self) -> frozenset[tuple[str, int, int]]:
        return frozenset((l.family, l.index, c) for l, c in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "none"
        return " + ".join(
            f"{c}{label}" if c > 1 else str(label) for label, c in self.entries
        )


@dataclass(frozen=True)
class Coregularity:
    coreg1: int
    coreg2: int
    coreg: int
    toric_model: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Full verdict for one surface.

    For degree >= 2 only the degree and coregularity fields are meaningful;
    the fibration data is absent.
    """

    degree: int
    fibers: FiberConfiguration | None
    sing: SingularityConfig | None
    rho: int | None
    isotrivial: bool | None
    j: JInvariant | None
    coreg1: int
    coreg2: int
    coreg: int
    toric_model: bool
    extremal: bool
    labels: tuple[str, ...]
    moduli_dim: int | None

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        fibers = []
        if self.fibers is not None:
            for place in self.fibers.places:
                fibers.append(_place_dict(place))
        sing = []
        if self.sing is not None:
            for label, count in self.sing.entries:
                sing.append({"family": label.family, "index": label.index,
                             "count": count})
        data = {
            "degree": self.degree,
            "fibers": fibers,
            "sing": sing,
            "rho": self.rho,
            "isotrivial": self.isotrivial,
            "j": _j_dict(self.j),
            "coreg1": self.coreg1,
            "coreg2": self.coreg2,
            "coreg": self.coreg,
            "toric_model": self.toric_model,
            "extremal": self.extremal,
            "labels": list(self.labels),
        }
        if self.moduli_dim is not None:
            data["moduli_dim"] = self.moduli_dim
        data["errors"] = []
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=True)

    def to_text(self) -> str:
        lines = []
        if self.degree != 1:
            lines.append(f"degree: {self.degree}")
            lines.append(f"coreg1: {self.coreg1}")
            lines.append(f"coreg2: {self.coreg2}")
            lines.append(f"coreg: {self.coreg}")
            lines.append(f"toric model: {'yes' if self.toric_model else 'no'}")
            return "\n".join(lines)
        lines.append(f"fibers: {self.fibers}")
        lines.append(f"sing: {self.sing}")
        lines.append(f"rho: {self.rho}")
        if self.j is not None and self.j.constant:
            lines.append(f"isotrivial: yes (j = {rational_str(self.j.value)})")
        else:
            lines.append("isotrivial: no (j nonconstant)")
        lines.append(f"coreg1: {self.coreg1}")
        lines.append(f"coreg2: {self.coreg2}")
        lines.append(f"coreg: {self.coreg}")
        lines.append(f"toric model: {'yes' if self.toric_model else 'no'}")
        if self.labels:
            lines.append(f"labels: {', '.join(self.labels)}")
        if self.moduli_dim is not None:
            lines.append(f"moduli dim: {self.moduli_dim}")
        if self.fibers is not None and self.fibers.places:
            lines.append("places:")
            for place in self.fibers.places:
                lines.append(
                    f"  {place.fiber} at ({place.poly}), degree {place.geometric_degree},"
                    f" v4={_val_str(place.v4)}, v6={_val_str(place.v6)}, vD={place.vD}"
                )
        return "\n".join(lines)


def _val_str(v) -> str:
    return "inf" if v == float("inf") else str(int(v))


def _place_dict(place: Place) -> dict:
    entry = {"type": place.fiber.tag}
    if place.fiber.n is not None:
        entry["n"] = place.fiber.n
    entry.update(
        {
            "count": place.geometric_degree,
            "place_poly": str(place.poly),
            "place_degree": place.geometric_degree,
            "v4": "inf" if place.v4 == float("inf") else int(place.v4),
            "v6": "inf" if place.v6 == float("inf") else int(place.v6),
            "vD": place.vD,
        }
    )
    return entry


def _j_dict(j: JInvariant | None) -> dict | None:
    if j is None:
        return None
    if j.constant:
        return {"kind": "constant", "value": rational_str(j.value)}
    return {"kind": "nonconstant"}


# -- individual decisions ------------------------------------------------------


def duval_configuration(config: FiberConfiguration) -> SingularityConfig:
    """Map each geometric singular fiber to its du Val singularity type."""
    counts: dict[DuValLabel, int] = {}
    for t, count in config.entries:
        label = fiber_properties(t).duval
        if label is not None:
            counts[label] = counts.get(label, 0) + count
    return SingularityConfig.from_counts(counts)


def picard_rank(sing: SingularityConfig) -> int:
    """rho = 9 - total du Val rank for a degree-1 surface."""
    total = sing.total_rank
    if total > 8:
        raise ValueError(
            f"total du Val rank {total} exceeds 8: impossible on a degree-1 surface"
        )
    return 9 - total


# The singularity criterion "2D4 or D4 + 2A1" stated on fiber configurations:
# D4 <-> I0* is bijective, and with no In fiber present (isotrivial case) an
# A1 can only come from a III fiber.
_COREG0_EXCEPTIONS = (
    frozenset({("I0*", None, 2)}),
    frozenset({("I0*", None, 1), ("III", None, 2)}),
)

# The catalogued isotrivial configurations for j = 0 and j = 1728, and the
# eleven among them with coreg = 1 (nine with j = 0, two with j = 1728).
_ISOTRIVIAL = {
    0: frozenset(fc.multiset() for fc in enumerate_isotrivial("zero")),
    1728: frozenset(fc.multiset() for fc in enumerate_isotrivial("value1728")),
}
_COREG1_CONFIGS = (_ISOTRIVIAL[0] | _ISOTRIVIAL[1728]).difference(_COREG0_EXCEPTIONS)


def decide_coregularity(config: FiberConfiguration, j: JInvariant) -> Coregularity:
    """coreg1 / coreg2 / coreg and toric-model existence for degree 1."""
    coreg1 = 0 if config.has_In else 1
    if not j.constant:
        coreg = 0
    else:
        coreg = 0 if config.multiset() in _COREG0_EXCEPTIONS else 1
    # coreg <= coreg2 <= coreg1 (an l-complement is an lk-complement), and
    # coreg = 0 with coreg1 = 1 forces a 2-complement of maximal dual-complex
    # dimension; both corners leave coreg2 pinned to coreg.
    coreg2 = coreg
    return Coregularity(coreg1=coreg1, coreg2=coreg2, coreg=coreg,
                        toric_model=coreg1 == 0)


_EXTREMAL = {
    frozenset({("II*", None, 1), ("II", None, 1)}): "X'1(E8)",
    frozenset({("III*", None, 1), ("III", None, 1)}): "X'1(E7+A1)",
    frozenset({("IV*", None, 1), ("IV", None, 1)}): "X'1(E6+A2)",
}

_NAMED = {
    frozenset({("In*", 1, 1), ("III", None, 1), ("II", None, 1)}): "X'1(D5+A1)",
    frozenset({("In*", 2, 1), ("II", None, 2)}): "X'1(D6)",
    frozenset({("I0*", None, 2)}): "X1(2D4)",
}


def label_special(config: FiberConfiguration) -> tuple[str, ...]:
    """Labels for the finitely many configurations singled out as special."""
    key = config.multiset()
    labels: list[str] = []
    if key in _EXTREMAL:
        labels.append("extremal")
        labels.append(_EXTREMAL[key])
    if key in _NAMED:
        labels.append(_NAMED[key])
    return tuple(labels)


def moduli_dimension(
    config: FiberConfiguration, rho: int, j: JInvariant
) -> int | None:
    """Dimension of the moduli of surfaces with this isotrivial configuration:
    0 when rho <= 3, else (rho - 3) / 2.  Undefined (None) unless j is
    constant 0 or 1728 and the configuration is one of the catalogued ones."""
    if not j.constant or config.multiset() not in _ISOTRIVIAL.get(j.value, ()):
        return None
    if rho <= 3:
        return 0
    if (rho - 3) % 2:
        raise InternalInvariantError(f"odd rho - 3 = {rho - 3} in a catalogued family")
    return (rho - 3) // 2


def degree_rule(degree: int) -> ClassificationReport:
    """Degree >= 2 needs no equation: coreg = coreg1 = coreg2 = 0 and a toric
    model exists.  Degree-1 surfaces must go through classify_surface."""
    if degree == 1:
        raise ValueError(
            "degree-1 surfaces are classified from their equation; "
            "use classify_surface"
        )
    if not 2 <= degree <= 9:
        raise ValueError(f"a del Pezzo surface has degree 1..9, got {degree}")
    return ClassificationReport(
        degree=degree,
        fibers=None,
        sing=None,
        rho=None,
        isotrivial=None,
        j=None,
        coreg1=0,
        coreg2=0,
        coreg=0,
        toric_model=True,
        extremal=False,
        labels=(),
        moduli_dim=None,
    )


# -- the pipeline ----------------------------------------------------------------


def classify_weierstrass(wd: WeierstrassData) -> ClassificationReport:
    """Classification of w^2 = z^3 + f4 z + f6 from validated data."""
    config = classify_fibration(wd)
    sing = duval_configuration(config)
    rho = picard_rank(sing)
    coreg = decide_coregularity(config, wd.j)
    labels = label_special(config)
    report = ClassificationReport(
        degree=1,
        fibers=config,
        sing=sing,
        rho=rho,
        isotrivial=wd.j.constant,
        j=wd.j,
        coreg1=coreg.coreg1,
        coreg2=coreg.coreg2,
        coreg=coreg.coreg,
        toric_model=coreg.toric_model,
        extremal="extremal" in labels,
        labels=labels,
        moduli_dim=moduli_dimension(config, rho, wd.j),
    )
    _verify_report(report)
    return report


def classify_surface(text: str) -> ClassificationReport:
    """Parse, reduce and classify a sextic equation in P(1,1,2,3)."""
    return classify_weierstrass(reduce_to_short(parse_sextic(text)))


# -- cross-checks asserted on every accepted input --------------------------------

_COREG1_SING = {
    frozenset({("E", 8, 1)}),
    frozenset({("E", 7, 1), ("A", 1, 1)}),
    frozenset({("E", 6, 1), ("A", 2, 1)}),
}
_COREG1_SING_HIGHER_RHO = {
    frozenset({("E", 6, 1)}),
    frozenset({("D", 4, 1), ("A", 2, 1)}),
    frozenset({("D", 4, 1)}),
    frozenset({("A", 2, 3)}),
    frozenset({("A", 2, 2)}),
    frozenset({("A", 2, 1)}),
    frozenset({("A", 1, 4)}),
    frozenset(),
}


def _verify_report(report: ClassificationReport) -> None:
    config, sing, j = report.fibers, report.sing, report.j
    if config.chi_total != 12:
        raise InternalInvariantError("total Euler number != 12")
    if report.rho != 9 - sing.total_rank or report.rho < 1:
        raise InternalInvariantError("Picard rank bookkeeping broke")
    if not report.coreg <= report.coreg2 <= report.coreg1:
        raise InternalInvariantError("coreg <= coreg2 <= coreg1 violated")
    if report.toric_model != (report.coreg1 == 0):
        raise InternalInvariantError("toric model <-> coreg1 = 0 violated")
    # j-value classes of the fiber types against constancy of j
    has_pole = any(
        fiber_properties(t).j_class == "pole" for t, _ in config.entries
    )
    if has_pole == j.constant:
        raise InternalInvariantError("pole-type fibers <-> nonconstant j violated")
    if j.constant:
        allowed = {"any"}
        if j.value == 0:
            allowed.add("zero")
        elif j.value == 1728:
            allowed.add("value1728")
        for t, _ in config.entries:
            if fiber_properties(t).j_class not in allowed:
                raise InternalInvariantError(
                    f"fiber {t} incompatible with constant j = {j.value}"
                )
    # the coreg = 1 verdict only occurs for the catalogued singularities and
    # fiber configurations
    if report.coreg == 1:
        key = sing.multiset()
        if key in _COREG1_SING:
            if report.rho != 1:
                raise InternalInvariantError("rank-8 singularities need rho = 1")
        elif key in _COREG1_SING_HIGHER_RHO:
            if report.rho <= 1:
                raise InternalInvariantError("these singularities need rho > 1")
        else:
            raise InternalInvariantError(
                f"coreg = 1 with unexpected singularities {sing}"
            )
        if not report.isotrivial:
            raise InternalInvariantError("coreg = 1 needs an isotrivial fibration")
        if config.multiset() not in _COREG1_CONFIGS:
            raise InternalInvariantError(
                f"coreg = 1 with uncatalogued configuration {config}"
            )
