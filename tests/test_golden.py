"""Byte-identical CLI output on fixed inputs.

``golden/inputs.txt`` holds the 25 catalog equations, moved witnesses and
moved invalid surfaces reaching all four rejection codes (seeded
transformed-unique lines), generic-dense lines whose places have degree
>= 2, and a few syntax errors.  ``classify --json`` and text mode must print
exactly the stored stdout and stderr bytes and exit with the stored code.
The same holds for ``catalog --verify``, ``tables``, every ``enumerate``
mode and four ``--f4/--f6`` pairs (minimal, non-minimal, a syntax error and
one with non-integral coefficients), each in text and JSON.

After a deliberate change of the output, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from delpezzo.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODES = {"json": ["--json"], "text": []}
PAIRS = {
    "minimal": ["--f4=-3*x^3*(x+4*y)", "--f6=2*x^4*(x^2+6*x*y+6*y^2)"],
    "non-minimal": ["--f4=(2*x-3*y)^4", "--f6=-(2*x-3*y)^6"],
    "syntax": ["--f4=x^4 +", "--f6=y^6"],
    "rational": ["--f4=-3/4*x^3*(x+4/5*y)", "--f6=1/6*x^4*(x^2+6*x*y+3/2*y^2)"],
}
COMMANDS = {
    "catalog-verify": ["catalog", "--verify"],
    "tables": ["tables"],
    "enumerate-j0": ["enumerate", "--j", "0"],
    "enumerate-j1728": ["enumerate", "--j", "1728"],
    "enumerate-generic": ["enumerate", "--j", "generic"],
    "enumerate-instar": ["enumerate", "--instar"],
    **{f"pair-{name}": ["classify", *pair] for name, pair in PAIRS.items()},
}
# the classify batch keeps its historical file names json.* and text.*
CASES = {
    **{mode: ["classify", *flags, "--file", str(GOLDEN / "inputs.txt")]
       for mode, flags in MODES.items()},
    **{f"{name}-{mode}": [*argv, *flags]
       for name, argv in COMMANDS.items() for mode, flags in MODES.items()},
}


def run_case(case: str) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(CASES[case])
    return out.getvalue(), err.getvalue(), code


def check_case(case: str) -> None:
    out, err, code = run_case(case)
    assert out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{case}.stderr").read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[case]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_classify_output_is_byte_identical(mode):
    check_case(mode)


@pytest.mark.parametrize("case", sorted(set(CASES) - set(MODES)))
def test_command_output_is_byte_identical(case):
    check_case(case)


if __name__ == "__main__":
    codes = {}
    for case in sorted(CASES):
        out, err, codes[case] = run_case(case)
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{case}.stderr").write_bytes(err.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True) + "\n")
