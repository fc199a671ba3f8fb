import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from involutive import Division, Ordering, bench, parse_polynomial_file
from involutive.bench import run_bench
from involutive.cli import main

EX9_TEXT = "x^2*y - 1\nx*y^2 - 1\ny^4 - 1\n"
STAIRCASE_TEXT = "x^2\nx*y\nz\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_complete_golden(tmp_path, capsys):
    src = _write(tmp_path, "stair.txt", STAIRCASE_TEXT)
    code = main(["complete", src, "--vars", "x,y,z", "--division", "janet"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "z\nx*z\nx*y\nx^2\n# status: complete steps: 1\n"


def test_python_m_entry_point(tmp_path):
    # `python -m involutive` runs from a checkout, with only src on the path
    src = _write(tmp_path, "stair.txt", STAIRCASE_TEXT)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = [sys.executable, "-m", "involutive", "complete", src, "--vars", "x,y,z"]
    done = subprocess.run(command + ["--division", "janet"], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == b"z\nx*z\nx*y\nx^2\n# status: complete steps: 1\n"
    done = subprocess.run(command + ["--division", "pommaret", "--cap", "50"], env=env, capture_output=True, timeout=60)
    assert done.returncode == 2


def test_complete_cap_exceeded_exit_code(tmp_path, capsys):
    src = _write(tmp_path, "stair.txt", STAIRCASE_TEXT)
    code = main(["complete", src, "--vars", "x,y,z", "--division", "pommaret", "--cap", "50"])
    out = capsys.readouterr().out
    assert code == 2
    assert "# status: cap_exceeded steps: 50" in out


def test_basis_minimal_golden(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--vars", "x,y", "--division", "janet", "--order", "lex"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:2] == ["y - 1", "x - 1"]
    assert "# status: complete" in out
    assert "# algorithm: minimal" in out


def test_basis_involutive_nine_elements(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(
        ["basis", src, "--vars", "x,y", "--division", "janet", "--order", "lex", "--algorithm", "involutive"]
    )
    out = capsys.readouterr().out.splitlines()
    polys = [line for line in out if not line.startswith("#")]
    assert code == 0
    assert len(polys) == 9
    assert polys[0] == "y - 1"
    assert polys[-1] == "x^2*y - 1"


def test_basis_verify_flag(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--vars", "x,y", "--order", "lex", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# verify groebner: ok" in out
    assert "# verify same-ideal: ok" in out
    assert "# verify involutive: ok" in out


def test_basis_buchberger(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--vars", "x,y", "--order", "lex", "--algorithm", "buchberger", "--verify"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:2] == ["y - 1", "x - 1"]
    assert "# algorithm: buchberger" in out


def test_parse_error_exit_code(tmp_path, capsys):
    src = _write(tmp_path, "bad.txt", "x^-1\n")
    code = main(["basis", src, "--vars", "x,y"])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 1" in err


def test_unknown_variable_exit_code(tmp_path, capsys):
    src = _write(tmp_path, "bad.txt", "x + q\n")
    code = main(["basis", src, "--vars", "x,y"])
    assert code == 3


@pytest.mark.parametrize(
    "text, message",
    [("x^²\n", "line 1, column 3: unexpected character '²'"), ("é*x - 1\n", "line 1, column 1: unexpected character 'é'")],
    ids=["superscript-digit", "non-ascii-letter"],
)
def test_non_ascii_input_is_a_parse_error(tmp_path, capsys, text, message):
    # numbers are ASCII digits and names are what VariableContext accepts
    src = _write(tmp_path, "bad.txt", text)
    code = main(["basis", src])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_overlong_number_is_a_parse_error(tmp_path, capsys):
    src = _write(tmp_path, "long.txt", "x*y - 1\nx + 1/" + "9" * 5000 + "\n")
    code = main(["basis", src, "--vars", "x,y"])
    assert code == 3
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: line 2, column 7: number too long: 5000 digits, at most {limit}\n"


def test_check_detects_incomplete_basis(tmp_path, capsys):
    src = _write(tmp_path, "stair.txt", STAIRCASE_TEXT)
    code = main(["check", src, "--vars", "x,y,z", "--division", "janet"])
    out = capsys.readouterr().out
    assert code == 4
    assert "involutive: FAIL" in out
    assert "witness" in out
    assert "groebner" in out


def test_check_accepts_complete_basis(tmp_path, capsys):
    src = _write(tmp_path, "full.txt", "x^2\nx*y\nz\nx*z\n")
    code = main(["check", src, "--vars", "x,y,z", "--division", "janet"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "involutive: ok\ngroebner: ok\n"


def test_check_names_member_that_is_not_autoreduced(tmp_path, capsys):
    src = _write(tmp_path, "nonreduced.txt", "x\ny^2 + x\n")
    code = main(["check", src, "--vars", "x,y", "--division", "janet"])
    out = capsys.readouterr().out
    assert code == 4
    assert out.splitlines()[0] == "involutive: FAIL (not involutively autoreduced) witness: y^2 + x"


def test_check_rejects_cap(tmp_path, capsys):
    src = _write(tmp_path, "full.txt", "x^2\nx*y\nz\nx*z\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", src, "--vars", "x,y,z", "--cap", "5"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [("complete", "--cap"), ("basis", "--cap"), ("bench", "--cap"), ("check", "--degree-bound")],
)
def test_negative_bound_rejected(tmp_path, capsys, command, flag):
    args = [command] if command == "bench" else [command, _write(tmp_path, "in.txt", "x^2\nx*y\n"), "--vars", "x,y"]
    with pytest.raises(SystemExit) as exc:
        main(args + [flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_records_format(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(
        ["basis", src, "--vars", "x,y", "--order", "lex", "--division", "janet", "--format", "records"]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert list(records[0]) == ["polynomial", "lm", "multiplicative", "nonmultiplicative"]
    assert records[0]["polynomial"] == "y - 1"
    assert records[1]["lm"] == "x"
    for r in records:
        assert sorted(r["multiplicative"] + r["nonmultiplicative"]) == ["x", "y"]


def test_output_bytes_deterministic(tmp_path):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    for out in (out_a, out_b):
        code = main(
            ["basis", src, "--vars", "x,y", "--order", "lex", "--algorithm", "involutive", "-o", str(out)]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x - 1\n"))
    code = main(["basis", "-", "--vars", "x,y"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "x - 1"


def test_bench_builtin_corpus(capsys):
    code = main(["bench", "--cap", "400", "--divisions", "janet,division2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("case")
    assert any("binomial-lex" in line for line in lines)
    assert any(line.startswith("# fastest complete for") for line in lines)


def test_bench_empty_corpus(tmp_path, capsys):
    code = main(["bench", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 1 and out[0].startswith("case")


def test_bench_records_format(capsys):
    code = main(["bench", "--cap", "400", "--divisions", "janet", "--algorithms", "minimal", "--format", "records"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert record["division"] == "janet"
        assert record["algorithm"] == "minimal"


def test_bench_rejects_unknown_algorithm(capsys):
    code = main(["bench", "--algorithms", "magic"])
    assert code == 1


def test_minimal_basis_never_larger_than_involutive():
    records = run_bench(cap=600)
    by_key = {(r.case, r.division, r.algorithm): r for r in records}
    for (case, division, algorithm), r in by_key.items():
        if algorithm != "involutive" or r.status != "complete":
            continue
        minimal = by_key.get((case, division, "minimal"))
        if minimal is not None and minimal.status == "complete":
            assert minimal.basis_size <= r.basis_size, (case, division)


@pytest.mark.parametrize("fmt, expected", [("text", "# status: complete\n# ordering: deglex\n# algorithm: buchberger\n"), ("records", "")])
def test_basis_empty_buchberger_basis(tmp_path, capsys, fmt, expected):
    # the ideal (0) has the empty Groebner basis in either format
    src = _write(tmp_path, "zero.txt", "0\n")
    code = main(["basis", src, "--vars", "x,y", "--algorithm", "buchberger", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize("algorithm", ["involutive", "minimal"])
def test_basis_trace_is_the_engine_log(tmp_path, capsys, algorithm):
    from involutive import Division, Ordering, VariableContext, involutive_basis, minimal_involutive_basis, parse_polynomial

    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--vars", "x,y", "--order", "lex", "--algorithm", algorithm, "--trace"])
    err = capsys.readouterr().err
    assert code == 0
    ctx = VariableContext.of("x", "y")
    polys = [parse_polynomial(line, ctx, Ordering.LEX) for line in EX9_TEXT.splitlines()]
    log = []
    fn = involutive_basis if algorithm == "involutive" else minimal_involutive_basis
    fn(polys, Division.JANET, Ordering.LEX, log=log)
    assert log
    assert err.splitlines() == [f"trace: {entry}" for entry in log]


def test_basis_verify_skipped_on_capped_run(tmp_path, capsys):
    src = _write(tmp_path, "stair.txt", STAIRCASE_TEXT)
    code = main(["basis", src, "--vars", "x,y,z", "--division", "pommaret", "--cap", "20", "--verify"])
    out = capsys.readouterr().out.splitlines()
    assert code == 2
    assert "# status: cap_exceeded" in out
    assert out[-1] == "# verify verified: skipped (cap exceeded)"


def test_failed_certificate_exits_4_and_fails_the_bench_case(tmp_path, capsys, monkeypatch):
    # both commands certify through bench.certify, which looks same_ideal up
    # in its own module; every check runs after one fails
    monkeypatch.setattr(bench, "same_ideal", lambda *args: False)
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--vars", "x,y", "--verify"])
    out = capsys.readouterr().out.splitlines()
    assert code == 4
    assert out[-3:] == ["# verify groebner: ok", "# verify same-ideal: FAIL", "# verify involutive: ok"]
    polys, _, _ = parse_polynomial_file(EX9_TEXT, None, Ordering.DEGLEX)
    records = run_bench([bench.BenchCase("ex9", Ordering.DEGLEX, polys)], [Division.JANET], ["minimal", "buchberger"])
    assert [(r.algorithm, r.status, r.verified) for r in records] == [
        ("buchberger", "complete", False),
        ("minimal", "complete", False),
    ]


def test_bench_directory_corpus(tmp_path, capsys):
    _write(tmp_path, "ex9.txt", EX9_TEXT)
    _write(tmp_path, "line.txt", "x - 1\ny^2 - x\n")
    (tmp_path / "sub").mkdir()
    _write(tmp_path / "sub", "inner.txt", "x\n")
    code = main(["bench", str(tmp_path), "--divisions", "janet,division2", "--algorithms", "minimal"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("case")
    rows = [line.split()[:3] for line in out[1:] if not line.startswith("#")]
    assert sorted(rows) == [
        ["ex9.txt", "division2", "minimal"],
        ["ex9.txt", "janet", "minimal"],
        ["line.txt", "division2", "minimal"],
        ["line.txt", "janet", "minimal"],
    ]


def test_inferred_variables_warning(tmp_path, capsys):
    src = _write(tmp_path, "ex9.txt", EX9_TEXT)
    code = main(["basis", src, "--order", "lex"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "warning: variables inferred from input: x,y\n"
    assert captured.out.splitlines()[:2] == ["y - 1", "x - 1"]


def test_non_integer_cap_rejected(tmp_path, capsys):
    src = _write(tmp_path, "in.txt", "x^2\nx*y\n")
    with pytest.raises(SystemExit) as exc:
        main(["basis", src, "--vars", "x,y", "--cap", "x"])
    assert exc.value.code == 2
    assert "argument --cap: must be a non-negative integer, got 'x'" in capsys.readouterr().err
