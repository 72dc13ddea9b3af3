"""Command-line surface: outputs, exit codes, JSON schema, determinism."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

import delpezzo
from delpezzo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TOP_KEYS = [
    "degree", "fibers", "sing", "rho", "isotrivial", "j",
    "coreg1", "coreg2", "coreg", "toric_model", "extremal", "labels", "errors",
]


def test_classify_text_report(capsys):
    code, out, err = run(capsys, "classify", "w^2 + z^3 + x^3*y^3")
    assert code == 0
    assert "fibers: 2I0*" in out
    assert "sing: 2D4" in out
    assert "rho: 1" in out
    assert "isotrivial: yes (j = 0)" in out
    assert "coreg1: 1" in out
    assert "coreg: 0" in out
    assert "toric model: no" in out


def test_classify_json_schema(capsys):
    code, out, err = run(capsys, "classify", "--json", "w^2 + z^3 + x^5*y")
    assert code == 0
    payload = json.loads(out)
    assert [k for k in payload if k != "moduli_dim"] == TOP_KEYS
    assert payload["degree"] == 1
    assert payload["errors"] == []
    for entry in payload["fibers"]:
        assert set(entry) <= {"type", "n", "count", "place_poly",
                              "place_degree", "v4", "v6", "vD"}
        assert {"type", "count", "place_poly", "place_degree",
                "v4", "v6", "vD"} <= set(entry)
    assert payload["j"] == {"kind": "constant", "value": "0"}
    assert payload["sing"] == [{"family": "E", "index": 8, "count": 1}]
    # exactness: no floating point numbers anywhere
    assert not re.search(r"\d\.\d", out)


def test_classify_invalid_surface_exit_2(capsys):
    code, out, err = run(capsys, "classify", "--json", "w^2 + z^3 + x^6")
    assert code == 2
    payload = json.loads(out)
    assert payload["errors"][0]["code"] == "non-minimal"
    assert "not du Val" in payload["errors"][0]["message"]
    assert payload["errors"][0]["stage"] == "validate"
    code, out, _ = run(capsys, "classify", "--json", "--f4", "q", "--f6", "0")
    assert code == 1
    assert json.loads(out)["errors"][0]["stage"] == "parse"


def test_classify_each_missing_term_code(capsys):
    code, _, err = run(capsys, "classify", "z^3 + x^6")
    assert code == 2 and "w^2" in err
    code, _, err = run(capsys, "classify", "w^2 + x^6")
    assert code == 2 and "z^3" in err
    code, _, err = run(capsys, "classify", "w^2 = z^3")
    assert code == 2 and "discriminant" in err


def test_classify_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "classify", "w^2 + q^6")
    assert code == 1
    assert "unknown variable" in err


def test_classify_multiple_inputs_mixed_exit(capsys):
    code, out, err = run(
        capsys, "classify", "w^2 + z^3 + x^5*y", "w^2 + z^3 + x^6"
    )
    assert code == 2
    assert "fibers: II* + II" in out


def test_classify_pair_entry_path_matches_equation(capsys):
    _, direct, _ = run(capsys, "classify", "--json", "--f4", "x^4",
                       "--f6", "x^5*y")
    _, via_eq, _ = run(capsys, "classify", "--json",
                       "w^2 - z^3 - x^4*z - x^5*y")
    assert direct == via_eq


def test_classify_pair_value_may_start_with_minus(capsys):
    # argparse alone reads "-3*x^3*..." after --f4 as an option, not a value
    f4, f6 = "-3*x^3*(x+4*y)", "2*x^4*(x^2+6*x*y+6*y^2)"  # the golden pair
    for mode in ([], ["--json"]):
        joined = run(capsys, "classify", *mode, f"--f4={f4}", f"--f6={f6}")
        split = run(capsys, "classify", *mode, "--f4", f4, "--f6", f6)
        assert split == joined and joined[0] == 0


def test_classify_pair_requires_both(capsys):
    code, out, err = run(capsys, "classify", "--f4", "x^4")
    assert code == 1
    assert "together" in err


def test_classify_degree_rule(capsys):
    code, out, err = run(capsys, "classify", "--degree", "5")
    assert code == 0
    assert "degree: 5" in out and "coreg: 0" in out and "toric model: yes" in out
    code, out, err = run(capsys, "classify", "--degree", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 5 and payload["toric_model"] is True
    code, _, err = run(capsys, "classify", "--degree", "1")
    assert code == 1 and "equation" in err
    code, _, err = run(capsys, "classify", "--degree", "11")
    assert code == 1


def test_classify_from_file_and_parallel(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "w^2 + z^3 + x^5*y\nw^2 + z^3 + x^4*y^2\nw^2 + z^3 + x^3*y^3\n"
    )
    code, seq_out, _ = run(capsys, "classify", "--json", "--file", str(batch))
    assert code == 0
    code, par_out, _ = run(
        capsys, "classify", "--json", "--parallel", "--file", str(batch)
    )
    assert code == 0
    assert seq_out == par_out
    assert len(seq_out.strip().splitlines()) == 3


def test_classify_batch_survives_a_deeply_nested_line(tmp_path, capsys):
    line = "w^2 + z^3 + x^5*y"
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{line}\nw^2 + z^3 + {'(' * 5000}x^6{')' * 5000}\n{line}\n")
    code, out, err = run(capsys, "classify", "--json", "--file", str(batch))
    assert code == 1
    first, middle, last = out.splitlines()
    assert first == last and json.loads(first)["errors"] == []
    assert json.loads(middle) == {"errors": [{
        "code": "syntax", "message": "expression nested too deeply", "stage": "parse",
    }]}
    assert "nested too deeply" in err


def test_classify_batch_survives_a_line_that_is_not_utf8(tmp_path, capsys):
    line = "w^2 + z^3 + x^5*y"
    batch = tmp_path / "batch.txt"
    batch.write_bytes(f"{line}\n".encode() + b"\xff\xfe\n" + f"{line}\n".encode())
    code, out, err = run(capsys, "classify", "--json", "--file", str(batch))
    assert code == 1
    first, middle, last = out.splitlines()
    assert first == last and json.loads(first)["errors"] == []
    assert json.loads(middle) == {"errors": [{
        "code": "syntax", "message": "input line is not valid UTF-8", "stage": "parse",
    }]}
    assert err == "\\xff\\xfe: input line is not valid UTF-8\n"


def test_classify_batch_survives_bad_number_literals(capsys):
    good = ["w^2+z^3+x^5*y", "w^2 + z^3 + x^4*y^2", "w^2 + z^3 + x^3*y^3"]
    # the last literal has more digits than int() accepts
    bad = ["w^2 + z^3 + 1/0*x^6", "w^2 + z^3 + \u00b2*x^6 + y^6",
           "w^2 + z^3 + " + "1" * 5000 + "*x^6 + y^6"]
    code, out, err = run(capsys, "classify", "--json",
                         *(line for pair in zip(bad, good) for line in pair))
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["errors"][0]["code"] for line in lines[::2]] == ["syntax"] * 3
    assert [line["errors"] for line in lines[1::2]] == [[], [], []]
    assert [line.split(": ")[0] for line in err.splitlines()] == bad
    assert lines[4]["errors"][0]["message"] == (
        "number literal too long (5000 digits) (at position 12)")
    code, out, err = run(capsys, "classify", "--f4", "1/0*x^4", "--f6", "x^6")
    assert code == 1 and out == ""
    assert err == "zero denominator (at position 2)\n"


def test_classify_turns_an_unexpected_exception_into_its_input_error(
        tmp_path, monkeypatch, capsys):
    def fail(f):
        raise ValueError("no factorization today")

    # naming the places of a piece of degree >= 2 fails; linear ones need no call
    monkeypatch.setattr("delpezzo.kodaira.factor_over_rationals", fail)
    line = "w^2 + z^3 + x^5*y"
    bad = "w^2 + z^3 + x^4*z + x^5*y"
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{line}\n{bad}\n{line}\n")
    code, out, err = run(capsys, "classify", "--json", "--file", str(batch))
    assert code == 1
    first, middle, last = out.splitlines()
    assert first == last and json.loads(first)["errors"] == []
    [error] = json.loads(middle)["errors"]
    assert error == {"code": "internal", "stage": "validate",
                     "message": "unexpected ValueError: no factorization today"}
    assert err == f"{bad}: {error['message']}\n"
    # the --f4/--f6 pair runs through the same loop, in text mode too
    code, out, err = run(capsys, "classify", "--json", "--f4=x^4", "--f6=x^5*y")
    assert code == 1 and json.loads(out) == {"errors": [error]}
    assert err == error["message"] + "\n"
    code, out, err = run(capsys, "classify", "--f4=x^4", "--f6=x^5*y")
    assert code == 1 and out == "" and err == error["message"] + "\n"


def test_classify_prints_coefficients_past_the_int_str_limit(capsys):
    # a place coefficient of 15,001 digits, more than str(int) prints
    huge = "(10^1000*10^1000*10^1000*10^1000*10^1000)"
    code, out, err = run(capsys, "classify", "--json", f"w^2 + z^3 + {huge}*x^4*z + x^5*y")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["errors"] == []
    assert [p["place_poly"] for p in report["fibers"]] == [
        "x", "4" + "0" * 15000 + "*x^2 + 27*y^2"]
    code, text, err = run(capsys, "classify", f"w^2 + z^3 + {huge}*x^4*z + x^5*y")
    assert code == 0 and err == ""
    assert "  I1 at (4" + "0" * 15000 + "*x^2 + 27*y^2), degree 2," in text
    # a constant j = 6912 H^3 / (4 H^3 + 27) with H = 10^5000, in text and JSON
    pair = [f"--f4={huge}*x^2*y^2", "--f6=x^3*y^3"]
    j = "6912" + "0" * 15000 + "/4" + "0" * 14998 + "27"
    code, out, err = run(capsys, "classify", "--json", *pair)
    assert code == 0 and err == ""
    assert json.loads(out)["j"] == {"kind": "constant", "value": j}
    code, text, err = run(capsys, "classify", *pair)
    assert code == 0 and err == "" and f"isotrivial: yes (j = {j})" in text


def test_classify_into_a_closed_pipe_exits_1_without_traceback(tmp_path):
    # more output than a pipe holds, so the CLI is still writing when the
    # reader closes its end
    batch = tmp_path / "batch.txt"
    batch.write_text("w^2 + z^3 + x^5*y\n" * 1000)
    src = os.path.dirname(os.path.dirname(delpezzo.__file__))
    errors = tmp_path / "stderr.txt"
    with open(errors, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "delpezzo.cli", "classify", "--json", "--file", str(batch)],
            stdout=subprocess.PIPE, stderr=err, env={**os.environ, "PYTHONPATH": src},
        )
        assert json.loads(proc.stdout.readline())["errors"] == []
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in errors.read_text()


@pytest.mark.parametrize("argv", [["classify", "w^2+z^3+x^5*y"], ["tables"]])
@pytest.mark.parametrize("stdout", ["closed", "/dev/full"])
def test_an_unwritable_stdout_exits_1_with_one_line(argv, stdout):
    if stdout == "closed":
        target, close = None, lambda: os.close(1)  # as ``>&-`` does
    elif os.path.exists(stdout):
        target, close = open(stdout, "wb"), None
    else:
        pytest.skip(f"no {stdout} here")
    src = os.path.dirname(os.path.dirname(delpezzo.__file__))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "delpezzo.cli", *argv], stdout=target,
            stderr=subprocess.PIPE, preexec_fn=close, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        if target is not None:
            target.close()
    assert result.returncode == 1
    assert result.stderr.decode().startswith("cannot write output: ")
    assert result.stderr.count(b"\n") == 1, result.stderr


def test_classify_and_catalog_verify_never_import_sympy():
    # sympy is the Zassenhaus fallback only; the golden lines name places of
    # degree up to 12 without it
    src = os.path.dirname(os.path.dirname(delpezzo.__file__))
    inputs = os.path.join(os.path.dirname(__file__), "golden", "inputs.txt")
    script = "\n".join([
        "import contextlib, io, sys",
        "import delpezzo",
        "from delpezzo.cli import main",
        "print('sympy' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    with contextlib.redirect_stderr(io.StringIO()):",
        f"        main(['classify', '--json', '--file', {inputs!r}])",
        "        print(main(['catalog', '--verify']), file=sys.__stdout__)",
        "print('sympy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n0\nFalse\n"


def test_classify_batch_reports_a_failure_naming_places_on_its_line(
        tmp_path, monkeypatch, capsys):
    # the places are named (and checked) while the report is rendered
    line = "w^2 + z^3 + x^5*y"  # linear places only: nothing is factored
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{line}\nw^2 + z^3 + x^6 + y^6\n{line}\n")
    monkeypatch.setattr("delpezzo.kodaira.factor_over_rationals",
                        lambda f: type("NoFactors", (), {"factors": ()})())
    code, out, err = run(capsys, "classify", "--json", "--file", str(batch))
    assert code == 1
    first, middle, last = out.splitlines()
    assert first == last and json.loads(first)["errors"] == []
    [error] = json.loads(middle)["errors"]
    assert error["code"] == "internal" and "do not add up" in error["message"]
    assert err.startswith("w^2 + z^3 + x^6 + y^6: ") and err.count("\n") == 1


def test_classify_missing_file_exit_1(tmp_path, capsys):
    missing = tmp_path / "no-such-file.txt"
    code, out, err = run(capsys, "classify", "--file", str(missing))
    assert code == 1
    assert out == ""
    assert str(missing) in err


def test_classify_stdin(monkeypatch, capsys):
    stream = io.StringIO("w^2 + z^3 + x^5*y\n")
    stream.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stream)
    code, out, _ = run(capsys, "classify")
    assert code == 0
    assert "II* + II" in out


def test_classify_no_input(monkeypatch, capsys):
    stream = io.StringIO("")
    stream.isatty = lambda: True
    monkeypatch.setattr("sys.stdin", stream)
    code, out, err = run(capsys, "classify")
    assert code == 1
    assert "nothing to classify" in err


def test_classify_closed_stdin(monkeypatch, capsys):
    # ``delpezzo classify <&-`` starts Python with sys.stdin set to None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "classify")
    assert code == 1
    assert out == ""
    assert "nothing to classify" in err


def test_byte_determinism(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "classify", "--json",
                        "w^2 + z^3 - 3*(x^2-y^2)*y^2*z + 2*(x^2-y^2)*x*y^3")
        outs.add(out)
    assert len(outs) == 1


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--j", "0")
    assert code == 0 and len(out.strip().splitlines()) == 10
    code, out, _ = run(capsys, "enumerate", "--j", "1728")
    assert code == 0 and len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "enumerate", "--j", "generic")
    assert code == 0 and out.strip().splitlines() == ["2I0*  [witness: j0/2D4]"]
    code, out, _ = run(capsys, "enumerate", "--instar")
    assert code == 0 and len(out.strip().splitlines()) == 5
    code, out, _ = run(capsys, "enumerate", "--instar", "--rank-cap", "10")
    assert len(out.strip().splitlines()) == 6


def test_enumerate_json_annotations(capsys):
    code, out, _ = run(capsys, "enumerate", "--instar", "--json")
    payload = json.loads(out)
    rows = {row["display"]: row for row in payload["configurations"]}
    assert rows["I2* + IV"]["excluded"] is True
    assert rows["I2* + IV"]["witness"] is None
    assert rows["I1* + III + II"]["excluded"] is False
    assert rows["I1* + III + II"]["witness"] == "no-toric-model/D5+A1"
    code, out, _ = run(capsys, "enumerate", "--j", "1728", "--json")
    payload = json.loads(out)
    assert len(payload["configurations"]) == 4
    for row in payload["configurations"]:
        assert row["chi"] == 12
        assert row["witness"] is not None


def test_enumerate_requires_mode(capsys):
    code, _, _ = run(capsys, "enumerate")
    assert code == 1


def test_catalog_verify_ok(capsys):
    code, out, _ = run(capsys, "catalog", "--verify")
    assert code == 0
    assert "[ok]" in out and "[FAIL]" not in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert len(payload["witnesses"]) >= 20
    first = payload["witnesses"][0]
    assert {"name", "equation", "fibers", "sing", "rho", "isotrivial",
            "j", "coreg1", "coreg2", "coreg", "toric_model"} <= set(first)


def test_catalog_verify_failure_exit_3(monkeypatch, capsys):
    import delpezzo.cli as cli_module
    from delpezzo.catalog import Witness, witness_catalog

    witnesses = list(witness_catalog())
    witnesses[0] = Witness(**{**witnesses[0].__dict__, "rho": 7})
    monkeypatch.setattr(cli_module, "witness_catalog",
                        lambda: tuple(witnesses))
    code, out, err = run(capsys, "catalog", "--verify")
    assert code == 3
    assert "[FAIL]" in out
    assert "rho" in err


def test_tables_text_and_json(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "Isotrivial fibrations with j = 0" in out
    assert "Isotrivial fibrations with j = 1728" in out
    code, out, _ = run(capsys, "tables", "--json")
    payload = json.loads(out)
    assert len(payload["j0"]["rows"]) == 10
    assert len(payload["j1728"]["rows"]) == 4


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
