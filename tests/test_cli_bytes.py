"""Pins the bytes the command line writes on the built-in corpus.

Each run is recorded in ``cli_bytes.json`` as one SHA-256 digest of its
exit code, stdout and stderr.  The runs are ``basis`` on every corpus case
under every division and algorithm at a cap of 200, plain, with
``--verify --trace`` and with ``--format records``; ``check --mode
global`` on every case under
every division; ``complete`` on every case's leading monomials under
every division; and ``basis``, ``complete`` and ``check`` on the malformed
files of ``MALFORMED``, each of which ends in exit code 3 and one
``error: line L, column C: ...`` line on stderr.  A change that keeps the
bases but moves a stats line, a trace line, a record, a witness or the
position of a parse error shows up as a changed digest.

Run this file as a script to print the digests of the installed package:
``PYTHONPATH=src python tests/test_cli_bytes.py > tests/cli_bytes.json``.
"""
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from involutive import Division, VariableContext, parse_polynomial
from involutive.cli import main
from involutive.corpus import CASES

RECORDS = Path(__file__).with_name("cli_bytes.json")
ALGORITHMS = ("involutive", "minimal", "buchberger")
# the Pommaret completions of the staircase diverge; this cap stops them
# in a fraction of a second
CAP = 200
FORMS = {"plain": [], "verify-trace": ["--verify", "--trace"], "records": ["--format", "records"]}
# name: (command, file text, flags); each file holds one parse error
MALFORMED = {
    "basis/negative-exponent": ("basis", "x^2*y - 1\n\nx*y^-2 - 1\n", ["--vars", "x,y"]),
    "basis/inferred-bad-character": ("basis", "x*y +\n# a comment\nx - \u00e9\n", []),
    "basis/empty": ("basis", "# only a comment\n\n", ["--vars", "x,y"]),
    "basis/no-variables": ("basis", "1\n2/3\n", []),
    "complete/coefficient": ("complete", "x^2\n2*y\n", ["--vars", "x,y"]),
    "complete/single-term": ("complete", "x^2\nx*y + y\n", []),
    "check/unknown-variable": ("check", "x*y - 1\nx + q\n", ["--vars", "x,y", "--mode", "global"]),
    "check/zero-denominator": ("check", "x - 1/0\n", []),
}


def _leading_monomials(case) -> str:
    ctx = VariableContext(case.variables)
    return "".join(f"{parse_polynomial(line, ctx, case.ordering).lm}\n" for line in case.lines)


def runs(directory: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) per run; the input files are written to directory."""
    out = []
    for case in CASES:
        polys, monomials = directory / f"{case.name}.txt", directory / f"{case.name}-lm.txt"
        polys.write_text("".join(f"{line}\n" for line in case.lines))
        monomials.write_text(_leading_monomials(case))
        context = ["--vars", ",".join(case.variables), "--order", case.ordering.value]
        for division in Division:
            common = context + ["--division", division.value]
            for algorithm in ALGORITHMS:
                for form, flags in FORMS.items():
                    argv = ["basis", str(polys), *common, "--algorithm", algorithm, "--cap", str(CAP), *flags]
                    out.append((f"basis/{case.name}/{division.value}/{algorithm}/{form}", argv))
            out.append((f"check/{case.name}/{division.value}", ["check", str(polys), *common, "--mode", "global"]))
            out.append((f"complete/{case.name}/{division.value}", ["complete", str(monomials), *common]))
    for name, (command, text, flags) in MALFORMED.items():
        path = directory / f"{name.replace('/', '-')}.txt"
        path.write_text(text)
        out.append((f"parse-error/{name}", [command, str(path), *flags]))
    return out


def digest(argv: list[str]) -> str:
    """The SHA-256 of one run's exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode()).hexdigest()


def record() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as directory:
        return {name: digest(argv) for name, argv in runs(Path(directory))}


def test_cli_bytes_pinned():
    want = json.loads(RECORDS.read_text())
    got = record()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_parse_errors_exit_3_with_one_positioned_line(tmp_path):
    for name, argv in runs(tmp_path):
        if name.startswith("parse-error/"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert (code, stdout.getvalue()) == (3, ""), name
            assert re.fullmatch(r"error: line \d+, column \d+: [^\n]+\n", stderr.getvalue()), (name, stderr.getvalue())


def test_digest_sees_every_stream(tmp_path):
    """A run's digest moves with its stderr and with its stdout."""
    (_, argv), = [run for run in runs(tmp_path) if run[0] == "basis/corner/janet/minimal/verify-trace"]
    pinned = digest(argv)
    assert digest(argv[:-1]) != pinned  # the same stdout, no trace on stderr
    assert digest([*argv, "--format", "records"]) != pinned  # the same trace, other stdout


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
