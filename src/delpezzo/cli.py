"""Command-line interface.

Subcommands:

* ``classify`` -- classify one or more equations (inline arguments, a file,
  or stdin), or a short-Weierstrass pair given as ``--f4 EXPR --f6 EXPR``,
  or apply the degree rule with ``--degree N``; batches run sequentially,
  and ``--parallel`` is accepted for compatibility but changes nothing;
* ``enumerate`` -- the combinatorial configuration lists (``--j 0``,
  ``--j 1728``, ``--j generic`` or ``--instar [--rank-cap N]``);
* ``catalog`` -- list the built-in witnesses, with ``--verify`` re-classifying
  each against its golden expectations;
* ``tables`` -- regenerate the two isotrivial reference tables.

Exit codes: 0 success, 1 parse or usage error, 2 invalid surface
(missing w^2 or z^3 term, identically-zero discriminant, non-minimal place),
3 catalog or table verification mismatch.  Every input of ``classify`` (a
batch line or the ``--f4/--f6`` pair) runs through one loop: any failure,
an unexpected exception included (code ``internal``, exit 1), becomes that
input's error and the batch goes on.

JSON output serializes exact rationals as strings "p/q" and infinite
valuations as "inf"; it never contains floating-point numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from .catalog import emit_tables, verify_witness, witness_catalog, witness_for_configuration
from .enumeration import (
    enumerate_instar_without_in,
    enumerate_isotrivial,
    is_miranda_excluded,
)
from .errors import (
    DelPezzoError,
    EquationError,
    InternalInvariantError,
    InvalidSurfaceError,
    TableMismatchError,
)
from .sextic import parse_binary_form
from .surfaces import ClassificationReport, classify_weierstrass, classify_surface, degree_rule
from .weierstrass import weierstrass_data

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SURFACE = 2
EXIT_VERIFY_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact classification of degree-1 du Val del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify sextic equations in P(1,1,2,3)"
    )
    p_classify.add_argument("equations", nargs="*", help="equations to classify")
    p_classify.add_argument("--file", help="read one equation per line from a file")
    p_classify.add_argument("--f4", help="degree-4 binary form in x, y")
    p_classify.add_argument("--f6", help="degree-6 binary form in x, y")
    p_classify.add_argument(
        "--degree", type=int,
        help="degree of the surface; for 2..9 no equation is needed",
    )
    p_classify.add_argument("--json", action="store_true", help="JSON output")
    p_classify.add_argument(
        "--parallel", action="store_true",
        help="accepted for compatibility; batches always run sequentially",
    )

    p_enum = sub.add_parser("enumerate", help="enumerate fiber configurations")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", choices=["0", "1728", "generic"],
                       help="isotrivial configurations for this j")
    group.add_argument("--instar", action="store_true",
                       help="configurations with an In* fiber and no In fiber")
    p_enum.add_argument("--rank-cap", type=int, default=8,
                        help="total du Val rank cap (default 8)")
    p_enum.add_argument("--json", action="store_true", help="JSON output")

    p_catalog = sub.add_parser("catalog", help="built-in witness surfaces")
    p_catalog.add_argument("--verify", action="store_true",
                           help="classify each witness and diff expectations")
    p_catalog.add_argument("--json", action="store_true", help="JSON output")

    p_tables = sub.add_parser("tables", help="regenerate the reference tables")
    p_tables.add_argument("--json", action="store_true", help="JSON output")

    return parser


def _error_payload(exc: DelPezzoError) -> str:
    stage = "parse" if isinstance(exc, EquationError) else "validate"
    return json.dumps(
        {"errors": [{"code": exc.code, "message": str(exc), "stage": stage}]},
        ensure_ascii=True,
    )


def _input_lines(stream) -> list[str | bytes]:
    """The non-blank lines of a stream, stripped.  Each line is decoded on its
    own; one that is not UTF-8 stays bytes, so only that line fails."""
    lines: list[str | bytes] = []
    for raw in getattr(stream, "buffer", stream).read().splitlines():
        try:
            line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError:
            lines.append(raw.strip())
            continue
        if line.strip():
            lines.append(line.strip())
    return lines


def _classify_inputs(args) -> list[str | bytes]:
    inputs: list[str | bytes] = list(args.equations)
    if args.file:
        with open(args.file, "rb") as handle:
            inputs.extend(_input_lines(handle))
    # a closed stdin (``<&-``) leaves sys.stdin None
    if not inputs and sys.stdin is not None and not sys.stdin.isatty():
        inputs.extend(_input_lines(sys.stdin))
    return inputs


def _classify_line(line: str | bytes) -> ClassificationReport:
    if isinstance(line, bytes):
        raise EquationError("input line is not valid UTF-8")
    return classify_surface(line)


def _classify_pair(f4: str, f6: str) -> ClassificationReport:
    return classify_weierstrass(
        weierstrass_data(parse_binary_form(f4, 4), parse_binary_form(f6, 6))
    )


def _render(report: ClassificationReport, as_json: bool) -> str:
    return report.to_json() if as_json else report.to_text()


def _cmd_classify(args, out, err) -> int:
    uses_pair = args.f4 is not None or args.f6 is not None
    if args.degree is not None:
        if uses_pair or args.equations or args.file:
            print("--degree takes no equation input", file=err)
            return EXIT_USAGE
        if args.degree == 1:
            print(
                "degree 1 needs the equation: pass the sextic itself "
                "(or --f4/--f6)",
                file=err,
            )
            return EXIT_USAGE
        try:
            report = degree_rule(args.degree)
        except ValueError as exc:
            print(str(exc), file=err)
            return EXIT_USAGE
        print(_render(report, args.json), file=out)
        return EXIT_OK

    if uses_pair:
        if args.f4 is None or args.f6 is None:
            print("--f4 and --f6 must be given together", file=err)
            return EXIT_USAGE
        if args.equations or args.file:
            print("--f4/--f6 cannot be combined with equation input", file=err)
            return EXIT_USAGE
        # an error of the pair is printed without a label
        jobs = [(None, partial(_classify_pair, args.f4, args.f6))]
    else:
        try:
            inputs = _classify_inputs(args)
        except OSError as exc:
            print(str(exc), file=err)
            return EXIT_USAGE
        if not inputs:
            print("nothing to classify: pass equations, --file, or pipe stdin", file=err)
            return EXIT_USAGE
        jobs = [(line, partial(_classify_line, line)) for line in inputs]

    exit_code = EXIT_OK
    for label, job in jobs:
        try:
            # rendering names the places, which factors; a failure there
            # belongs to this line like any other
            text = _render(job(), args.json)
        except Exception as exc:  # noqa: BLE001 - one bad line never ends a batch
            if not isinstance(exc, DelPezzoError):
                exc = InternalInvariantError(f"unexpected {type(exc).__name__}: {exc}")
            if args.json:
                print(_error_payload(exc), file=out)
            if isinstance(label, bytes):
                label = label.decode("utf-8", "backslashreplace")
            print(str(exc) if label is None else f"{label}: {exc}", file=err)
            if isinstance(exc, InvalidSurfaceError):
                exit_code = max(exit_code, EXIT_INVALID_SURFACE)
            else:
                exit_code = max(exit_code, EXIT_USAGE)
            continue
        print(text, file=out)
    return exit_code


def _config_dict(config) -> dict:
    fibers = [
        {"type": t.tag, **({"n": t.n} if t.n else {}), "count": c}
        for t, c in config.entries
    ]
    return {
        "fibers": fibers,
        "display": str(config),
        "chi": config.chi_total,
        "rank": config.rank_total,
    }


def _cmd_enumerate(args, out, err) -> int:
    if args.rank_cap is not None and args.rank_cap < 0:
        print("--rank-cap must be non-negative", file=err)
        return EXIT_USAGE
    prefer_table = None
    if args.instar:
        configs = enumerate_instar_without_in(args.rank_cap)
        annotate_miranda = True
        head = {"mode": "instar-no-in", "rank_cap": args.rank_cap}
    else:
        j_class = {"0": "zero", "1728": "value1728", "generic": "generic"}[args.j]
        prefer_table = {"0": "j0", "1728": "j1728", "generic": None}[args.j]
        try:
            configs = enumerate_isotrivial(j_class, args.rank_cap)
        except ValueError as exc:
            print(str(exc), file=err)
            return EXIT_USAGE
        annotate_miranda = False
        head = {"mode": "isotrivial", "j": args.j, "rank_cap": args.rank_cap}

    if args.json:
        rows = []
        for config in configs:
            row = _config_dict(config)
            row["witness"] = witness_for_configuration(config.multiset(), prefer_table)
            if annotate_miranda:
                row["excluded"] = is_miranda_excluded(config)
            rows.append(row)
        print(json.dumps({**head, "configurations": rows}, ensure_ascii=True),
              file=out)
        return EXIT_OK

    for config in configs:
        notes = []
        witness = witness_for_configuration(config.multiset(), prefer_table)
        if witness:
            notes.append(f"witness: {witness}")
        elif annotate_miranda and is_miranda_excluded(config):
            notes.append("not realized by any surface (curated exclusion)")
        else:
            notes.append("combinatorially feasible; no catalog witness")
        print(f"{config}  [{'; '.join(notes)}]", file=out)
    return EXIT_OK


def _witness_dict(witness) -> dict:
    return {
        "name": witness.name,
        "equation": witness.equation,
        "fibers": [
            {"type": tag, **({"n": n} if n else {}), "count": c}
            for tag, n, c in witness.fibers
        ],
        "sing": [
            {"family": family, "index": index, "count": c}
            for family, index, c in witness.sing
        ],
        "rho": witness.rho,
        "isotrivial": witness.isotrivial,
        "j": None if witness.j is None else str(Fraction(witness.j)),
        "coreg1": witness.coreg[0],
        "coreg2": witness.coreg[1],
        "coreg": witness.coreg[2],
        "toric_model": witness.toric_model,
        "moduli_dim": witness.moduli_dim,
        "family": witness.family,
    }


def _cmd_catalog(args, out, err) -> int:
    witnesses = witness_catalog()
    failures: dict[str, list[str]] = {}
    if args.verify:
        for witness in witnesses:
            problems = verify_witness(witness)
            if problems:
                failures[witness.name] = problems

    if args.json:
        payload = {"witnesses": [_witness_dict(w) for w in witnesses]}
        if args.verify:
            payload["verified"] = not failures
            payload["failures"] = failures
        print(json.dumps(payload, ensure_ascii=True), file=out)
    else:
        for witness in witnesses:
            status = ""
            if args.verify:
                status = "  [FAIL]" if witness.name in failures else "  [ok]"
            print(f"{witness.name}: {witness.equation}{status}", file=out)
        for name, problems in failures.items():
            for problem in problems:
                print(f"{name}: {problem}", file=err)

    if args.verify and failures:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_tables(args, out, err) -> int:
    try:
        text, data = emit_tables()
    except TableMismatchError as exc:
        print(str(exc), file=err)
        return EXIT_VERIFY_FAILED
    if args.json:
        print(json.dumps(data, ensure_ascii=True), file=out)
    else:
        print(text, file=out)
    return EXIT_OK


def _join_form_values(argv: list[str]) -> list[str]:
    """``--f4 V`` as ``--f4=V`` when V starts with one '-', which argparse
    would otherwise take for an option (``--f4 "-3*x^3*(x+4*y)"``)."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--f4", "--f6") and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _join_form_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    command = {"classify": _cmd_classify, "enumerate": _cmd_enumerate,
               "catalog": _cmd_catalog, "tables": _cmd_tables}[args.command]
    if sys.stdout is None:  # a closed stdout (``>&-``)
        print("cannot write output: stdout is closed", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = command(args, sys.stdout, sys.stderr)
        sys.stdout.flush()  # a write that fails at exit would end in a traceback
    except OSError as exc:
        # the reader left (``| head``, reported by silence) or the device is
        # full; send what is still buffered to devnull so the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
