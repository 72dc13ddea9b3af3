"""The four workloads: their seeded cases, the call each case makes into
``delpezzo`` and the check of its answer.

A case's expectation is either an error code (the input must be rejected
with it) or a dict of verdict fields the report must match.  Golden verdicts
of the catalog witnesses come from ``delpezzo.catalog.witness_catalog``;
generic-dense expectations come from the independent oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from delpezzo import catalog, surfaces
from delpezzo.errors import InvalidSurfaceError

from . import gen, oracle

CLI_DENSE_SHARE = 4  # cli-batch: one line in this many is a generic-dense input


@dataclass(frozen=True)
class Case:
    """One input: the equation text the program receives and its answer.
    catalog-replay also carries the catalog's own Witness object."""

    text: str
    expect: dict | str
    witness: object = None


def golden(witness) -> dict:
    return {
        "fibers": frozenset(witness.fibers),
        "sing": frozenset(witness.sing),
        "rho": witness.rho,
        "isotrivial": witness.isotrivial,
        "j": "nonconstant" if witness.j is None else Fraction(witness.j),
        "coreg": tuple(witness.coreg),
        "toric_model": witness.toric_model,
        "moduli_dim": witness.moduli_dim,
    }


def verdict_of_report(report) -> dict:
    return {
        "fibers": frozenset((t.tag, t.n, c) for t, c in report.fibers.entries),
        "sing": frozenset((l.family, l.index, c) for l, c in report.sing.entries),
        "rho": report.rho,
        "isotrivial": report.isotrivial,
        "j": report.j.value if report.j.constant else "nonconstant",
        "coreg": (report.coreg1, report.coreg2, report.coreg),
        "toric_model": report.toric_model,
        "moduli_dim": report.moduli_dim,
    }


def verdict_of_json(obj: dict) -> dict | str:
    """The same fields from one line of ``classify --json`` output, or the
    error code of a rejected line."""
    if obj.get("errors"):
        return obj["errors"][0]["code"]
    fibers: dict[tuple, int] = {}
    for place in obj["fibers"]:
        key = (place["type"], place.get("n"))
        fibers[key] = fibers.get(key, 0) + place["count"]
    j = obj["j"]
    return {
        "fibers": frozenset((tag, n, c) for (tag, n), c in fibers.items()),
        "sing": frozenset((s["family"], s["index"], s["count"]) for s in obj["sing"]),
        "rho": obj["rho"],
        "isotrivial": obj["isotrivial"],
        "j": Fraction(j["value"]) if j["kind"] == "constant" else "nonconstant",
        "coreg": (obj["coreg1"], obj["coreg2"], obj["coreg"]),
        "toric_model": obj["toric_model"],
        "moduli_dim": obj.get("moduli_dim"),
    }


def matches(expect: dict | str, verdict: dict | str | None) -> bool:
    if isinstance(expect, str) or not isinstance(verdict, dict):
        return verdict == expect
    return all(verdict[key] == value for key, value in expect.items())


# -- case streams -----------------------------------------------------------------


def catalog_cases(seed):
    """The 25 witnesses in one seeded order, repeated."""
    witnesses = list(catalog.witness_catalog())
    random.Random(f"catalog-replay/{seed}").shuffle(witnesses)
    for w in itertools.cycle(witnesses):
        yield Case(w.equation, golden(w), w)


def transformed_cases(seed):
    witnesses = catalog.witness_catalog()
    answers = {w.name: golden(w) for w in witnesses}
    for g in gen.transformed_stream(seed, [(w.name, w.equation) for w in witnesses]):
        yield Case(g.text, answers.get(g.key, g.key))


def dense_cases(seed):
    for g in gen.dense_stream(seed):
        fibers = oracle.fiber_configuration(*g.key)
        yield Case(g.text, {"fibers": fibers, "rho": oracle.picard_rank(fibers),
                            "isotrivial": False, "j": "nonconstant"})


def cli_cases(seed):
    """Lines of the cli-batch file: every CLI_DENSE_SHARE-th line is a
    generic-dense input, the others transformed-unique inputs, so every batch
    has the same mix."""
    transformed = transformed_cases(f"cli-batch/{seed}")
    dense = dense_cases(f"cli-batch/{seed}")
    for line in itertools.count(1):
        yield next(dense if line % CLI_DENSE_SHARE == 0 else transformed)


# -- calls and checks -----------------------------------------------------------------


def verify_call(case: Case):
    return catalog.verify_witness(case.witness)


def classify_call(case: Case):
    try:
        return surfaces.classify_surface(case.text)
    except InvalidSurfaceError as exc:
        return exc


def check(case: Case, result) -> bool:
    """Is ``result`` (of verify_call or classify_call, or an unexpected
    exception) the right answer for the case?"""
    if case.witness is not None:
        return result == []
    if isinstance(result, InvalidSurfaceError):
        return matches(case.expect, result.code)
    if isinstance(result, Exception):
        return False
    return matches(case.expect, verdict_of_report(result))


@dataclass(frozen=True)
class Workload:
    name: str
    cases: object  # seed -> endless iterator of Case
    call: object  # Case -> result; None for the CLI workload
    trace_ops: int  # inputs of the fixed traced pass


WORKLOADS = {
    "catalog-replay": Workload("catalog-replay", catalog_cases, verify_call, 100),
    "transformed-unique": Workload("transformed-unique", transformed_cases,
                                   classify_call, 200),
    "generic-dense": Workload("generic-dense", dense_cases, classify_call, 100),
    "cli-batch": Workload("cli-batch", cli_cases, None, 0),
}
