"""Built-in witness surfaces with golden expectations.

Every explicit equation the classification relies on lives here: one
representative per isotrivial configuration with j = 0 and j = 1728 (the two
reference tables regenerated by :func:`emit_tables`), the non-isotrivial
surfaces sharing their singularity configurations with table rows, the two
surfaces without a toric model whose fibration is not isotrivial, and the
three-root family w^2 = z(z + xy)(z + a xy).

For the three-root family the j-invariant is the Legendre value
j(a) = 256 (a^2 - a + 1)^3 / (a^2 (a - 1)^2); the harmonic parameters
{2, -1, 1/2} all give j = 1728 (the depressed f6 vanishes), every other
admissible rational a gives a constant j different from 0 and 1728.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TableMismatchError
from .surfaces import ClassificationReport, classify_surface

FiberCounts = tuple[tuple[str, int | None, int], ...]
SingCounts = tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class Witness:
    """One surface with everything the classifier must reproduce."""

    name: str
    equation: str
    fibers: FiberCounts
    sing: SingCounts
    rho: int
    isotrivial: bool
    j: Fraction | None  # exact constant j, None when nonconstant
    coreg: tuple[int, int, int]  # (coreg1, coreg2, coreg)
    toric_model: bool
    moduli_dim: int | None
    family: str
    table: str | None = None  # "j0" / "j1728" for reference-table rows
    table_f: str | None = None  # the representative form printed in the table


def legendre_j(a: Fraction) -> Fraction:
    """Constant j of w^2 = z(z + xy)(z + a xy) for a not in {0, 1}."""
    a = Fraction(a)
    if a in (0, 1):
        raise ValueError("a = 0 and a = 1 give a vanishing discriminant")
    return 256 * (a * a - a + 1) ** 3 / (a * a * (a - 1) ** 2)


# equation template and constant j of the two reference tables
_TABLES = {"j0": ("w^2 + z^3 + {}", 0), "j1728": ("w^2 + z^3 + ({})*z", 1728)}


def _table_row(table, name, f, fibers, sing, coreg, rho, dim):
    template, j = _TABLES[table]
    return Witness(
        name=f"{table}/{name}",
        equation=template.format(f),
        fibers=fibers,
        sing=sing,
        rho=rho,
        isotrivial=True,
        j=Fraction(j),
        coreg=coreg,
        toric_model=False,
        moduli_dim=dim,
        family=f"isotrivial, j = {j}",
        table=table,
        table_f=f,
    )


def _three_root_witness(a: Fraction) -> Witness:
    a = Fraction(a)
    j = legendre_j(a)
    sign = "+" if a > 0 else "-"
    return Witness(
        name=f"three-root/a={a}",
        equation=f"w^2 = z*(z+x*y)*(z{sign}{abs(a)}*x*y)",
        fibers=(("I0*", None, 2),),
        sing=(("D", 4, 2),),
        rho=1,
        isotrivial=True,
        j=j,
        coreg=(1, 0, 0),
        toric_model=False,
        moduli_dim=0 if j in (0, 1728) else None,
        family="three-root family, 2D4 for every admissible a",
    )


def witness_catalog() -> tuple[Witness, ...]:
    """All built-in witnesses, reference-table rows first."""
    j0 = [
        _table_row("j0", "E8", "x^5*y",
                   (("II*", None, 1), ("II", None, 1)),
                   (("E", 8, 1),), (1, 1, 1), 1, 0),
        _table_row("j0", "E6+A2", "x^4*y^2",
                   (("IV*", None, 1), ("IV", None, 1)),
                   (("E", 6, 1), ("A", 2, 1)), (1, 1, 1), 1, 0),
        _table_row("j0", "E6", "x^4*y*(x-y)",
                   (("IV*", None, 1), ("II", None, 2)),
                   (("E", 6, 1),), (1, 1, 1), 3, 0),
        _table_row("j0", "2D4", "x^3*y^3",
                   (("I0*", None, 2),),
                   (("D", 4, 2),), (1, 0, 0), 1, 0),
        _table_row("j0", "D4+A2", "x^3*y^2*(x-y)",
                   (("I0*", None, 1), ("IV", None, 1), ("II", None, 1)),
                   (("D", 4, 1), ("A", 2, 1)), (1, 1, 1), 3, 0),
        _table_row("j0", "D4", "x^3*y*(x-y)*(x-2*y)",
                   (("I0*", None, 1), ("II", None, 3)),
                   (("D", 4, 1),), (1, 1, 1), 5, 1),
        _table_row("j0", "3A2", "x^2*y^2*(x-y)^2",
                   (("IV", None, 3),),
                   (("A", 2, 3),), (1, 1, 1), 3, 0),
        _table_row("j0", "2A2", "x^2*y^2*(x-y)*(x-2*y)",
                   (("IV", None, 2), ("II", None, 2)),
                   (("A", 2, 2),), (1, 1, 1), 5, 1),
        _table_row("j0", "A2", "x^2*y*(x-y)*(x-2*y)*(x-3*y)",
                   (("IV", None, 1), ("II", None, 4)),
                   (("A", 2, 1),), (1, 1, 1), 7, 2),
        _table_row("j0", "smooth", "x*y*(x-y)*(x-2*y)*(x-3*y)*(x-5*y)",
                   (("II", None, 6),),
                   (), (1, 1, 1), 9, 3),
    ]
    j1728 = [
        _table_row("j1728", "E7+A1", "x^3*y",
                   (("III*", None, 1), ("III", None, 1)),
                   (("E", 7, 1), ("A", 1, 1)), (1, 1, 1), 1, 0),
        _table_row("j1728", "2D4", "x^2*y^2",
                   (("I0*", None, 2),),
                   (("D", 4, 2),), (1, 0, 0), 1, 0),
        _table_row("j1728", "D4+2A1", "x^2*y*(x-y)",
                   (("I0*", None, 1), ("III", None, 2)),
                   (("D", 4, 1), ("A", 1, 2)), (1, 0, 0), 3, 0),
        _table_row("j1728", "4A1", "x*y*(x-y)*(x-2*y)",
                   (("III", None, 4),),
                   (("A", 1, 4),), (1, 1, 1), 5, 1),
    ]
    nodal = [
        Witness(
            name="nodal/E8",
            equation="w^2 + z^3 + x^4*z + x^5*y",
            fibers=(("II*", None, 1), ("In", 1, 2)),
            sing=(("E", 8, 1),),
            rho=1,
            isotrivial=False,
            j=None,
            coreg=(0, 0, 0),
            toric_model=True,
            moduli_dim=None,
            family="non-isotrivial with the singularities of an extremal surface",
        ),
        Witness(
            name="nodal/E6+A2",
            equation="w^2 + z^3 - 3*x^3*(x+4*y)*z + 2*x^4*(x^2+6*x*y+6*y^2)",
            fibers=(("IV*", None, 1), ("In", 3, 1), ("In", 1, 1)),
            sing=(("E", 6, 1), ("A", 2, 1)),
            rho=1,
            isotrivial=False,
            j=None,
            coreg=(0, 0, 0),
            toric_model=True,
            moduli_dim=None,
            family="non-isotrivial with the singularities of an extremal surface",
        ),
        Witness(
            name="nodal/E7+A1",
            equation="w^2 + z^3 - 3*x^3*(x+2*y)*z + 2*x^5*(x+3*y)",
            fibers=(("III*", None, 1), ("In", 2, 1), ("In", 1, 1)),
            sing=(("E", 7, 1), ("A", 1, 1)),
            rho=1,
            isotrivial=False,
            j=None,
            coreg=(0, 0, 0),
            toric_model=True,
            moduli_dim=None,
            family="non-isotrivial with the singularities of an extremal surface",
        ),
    ]
    special = [
        Witness(
            name="no-toric-model/D5+A1",
            equation="w^2 + z^3 - 3*(x-y)*x*y^2*z + 2*(x-y)*x^2*y^3",
            fibers=(("In*", 1, 1), ("III", None, 1), ("II", None, 1)),
            sing=(("D", 5, 1), ("A", 1, 1)),
            rho=3,
            isotrivial=False,
            j=None,
            coreg=(1, 0, 0),
            toric_model=False,
            moduli_dim=None,
            family="non-isotrivial without a toric model",
        ),
        Witness(
            name="no-toric-model/D6",
            equation="w^2 + z^3 - 3*(x^2-y^2)*y^2*z + 2*(x^2-y^2)*x*y^3",
            fibers=(("In*", 2, 1), ("II", None, 2)),
            sing=(("D", 6, 1),),
            rho=3,
            isotrivial=False,
            j=None,
            coreg=(1, 0, 0),
            toric_model=False,
            moduli_dim=None,
            family="non-isotrivial without a toric model",
        ),
    ]
    three_root = [
        _three_root_witness(a)
        for a in (Fraction(2), Fraction(-1), Fraction(1, 2),
                  Fraction(3), Fraction(4), Fraction(5))
    ]
    return tuple(j0 + j1728 + nodal + special + three_root)


# -- verification -----------------------------------------------------------------


def _mismatches(witness: Witness, report: ClassificationReport) -> list[str]:
    """Human-readable differences between a report and the witness's
    expectations (empty when all agree)."""
    problems: list[str] = []

    def check(field, got, expected):
        if got != expected:
            problems.append(f"{field}: expected {expected}, got {got}")

    check("fibers", {(t.tag, t.n, c) for t, c in report.fibers.entries}, set(witness.fibers))
    check("sing", {(l.family, l.index, c) for l, c in report.sing.entries}, set(witness.sing))
    check("rho", report.rho, witness.rho)
    check("isotrivial", report.isotrivial, witness.isotrivial)
    if witness.j is None:
        check("j", report.j.constant, False)
    else:
        check("j", (report.j.constant, report.j.value), (True, witness.j))
    check("coreg1", report.coreg1, witness.coreg[0])
    check("coreg2", report.coreg2, witness.coreg[1])
    check("coreg", report.coreg, witness.coreg[2])
    check("toric_model", report.toric_model, witness.toric_model)
    check("moduli_dim", report.moduli_dim, witness.moduli_dim)
    return problems


def verify_witness(witness: Witness) -> list[str]:
    """Classify the witness equation and diff against its expectations.
    Returns a list of human-readable mismatches (empty when all good)."""
    try:
        report = classify_surface(witness.equation)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return [f"classification failed: {exc}"]
    return _mismatches(witness, report)


# -- reference tables ----------------------------------------------------------------


_TABLE_META = {
    "j0": ("Isotrivial fibrations with j = 0", "f6"),
    "j1728": ("Isotrivial fibrations with j = 1728", "f4"),
}


def emit_tables() -> tuple[str, dict]:
    """Regenerate the two reference tables by classifying their witnesses.

    Returns (text, data).  A row whose classification disagrees with its
    witness's expectations raises TableMismatchError naming the table, the
    row and each differing field.
    """
    data: dict = {}
    blocks: list[str] = []
    for table_key, (title, f_label) in _TABLE_META.items():
        rows = []
        for witness in witness_catalog():
            if witness.table != table_key:
                continue
            report = classify_surface(witness.equation)
            problems = _mismatches(witness, report)
            if problems:
                raise TableMismatchError(
                    f"table {table_key}, row {witness.name}: {'; '.join(problems)}"
                )
            rows.append({
                "fibers": str(report.fibers),
                "sing": str(report.sing),
                f_label: witness.table_f,
                "coreg": report.coreg,
                "rho": report.rho,
                "dim_moduli": report.moduli_dim,
            })
        data[table_key] = {"title": title, "f_label": f_label, "rows": rows}
        blocks.append(_format_table(title, f_label, rows))
    return "\n\n".join(blocks), data


def _format_table(title: str, f_label: str, rows: list[dict]) -> str:
    headers = ["fibers", "sing", f_label, "coreg", "rho", "dim M"]
    cells = [
        [row["fibers"], row["sing"], row[f_label], str(row["coreg"]),
         str(row["rho"]), str(row["dim_moduli"])]
        for row in rows
    ]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines)


def witness_for_configuration(key: frozenset, prefer_table: str | None = None) -> str | None:
    """Name of a catalog witness whose fiber configuration matches the
    multiset key, if any; rows of ``prefer_table`` win ties."""
    fallback = None
    for witness in witness_catalog():
        if frozenset(witness.fibers) != key:
            continue
        if prefer_table is None or witness.table == prefer_table:
            return witness.name
        if fallback is None:
            fallback = witness.name
    return fallback
