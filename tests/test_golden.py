"""Byte-identical CLI output on a fixed batch.

``golden/inputs.txt`` holds the 25 catalog equations, moved witnesses and
moved invalid surfaces reaching all four rejection codes (seeded
transformed-unique lines), generic-dense lines whose places have degree
>= 2, and a few syntax errors.  ``classify --json`` and text mode must print
exactly the stored stdout and stderr bytes and exit with the stored code.

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


def classify_batch(mode: str) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["classify", *MODES[mode], "--file", str(GOLDEN / "inputs.txt")])
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("mode", sorted(MODES))
def test_classify_output_is_byte_identical(mode):
    out, err, code = classify_batch(mode)
    assert out.encode() == (GOLDEN / f"{mode}.stdout").read_bytes()
    assert err.encode() == (GOLDEN / f"{mode}.stderr").read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[mode]


if __name__ == "__main__":
    codes = {}
    for mode in sorted(MODES):
        out, err, codes[mode] = classify_batch(mode)
        (GOLDEN / f"{mode}.stdout").write_bytes(out.encode())
        (GOLDEN / f"{mode}.stderr").write_bytes(err.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True) + "\n")
