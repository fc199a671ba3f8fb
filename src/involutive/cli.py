"""Command line front end.

The file commands ``complete``, ``basis`` and ``check`` read their input
through one helper, ``_inputs``, which parses the division, the ordering
and the file and prints the parser's warnings.  ``basis`` and ``bench``
run an algorithm and certify its output through ``bench.compute`` and
``bench.certify``, so this module names no basis algorithm and no oracle
check of its own.

Exit codes: 0 success, 2 cap exceeded, 3 parse error, 4 verification
failure, 1 anything else.  Outputs are deterministic byte-for-byte for a
fixed input and configuration (bench timings excepted).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from .bench import ALGORITHMS, BenchCase, builtin_cases, certify, compute, format_table, run_bench
from .completion import minimal_monomial_completion
from .divisions import Division, multiplicative_table
from .engine import verify_groebner, verify_involutive
from .monomials import Ordering, VariableContext
from .parsing import ParseError, parse_monomial_file, parse_polynomial_file

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CAP = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _inputs(args, parse_file) -> tuple[Division, Ordering, tuple]:
    """The division, the ordering and the entries of the input file of a
    file command; ``parse_file`` takes the text, the declared context (None
    without ``--vars``) and the ordering.  Parser warnings go to stderr."""
    division = Division.parse(args.division)
    ordering = Ordering.parse(args.order)
    text = _read(args.input)
    ctx = VariableContext.parse(args.vars) if args.vars else None
    entries, _, warnings = parse_file(text, ctx, ordering)
    for m in warnings:
        print(f"warning: {m}", file=sys.stderr)
    return division, ordering, entries


def cmd_complete(args) -> int:
    division, ordering, monomials = _inputs(args, lambda text, ctx, _: parse_monomial_file(text, ctx))
    result = minimal_monomial_completion(division, monomials, ordering, cap=args.cap)
    lines = [str(m) for m in result.basis]
    lines.append(f"# status: {result.status} steps: {result.steps}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if result.status == "complete" else EXIT_CAP


def _records(polys, division: Division) -> str:
    """One JSON line per basis member; nothing for an empty basis."""
    if not polys:
        return ""
    table = multiplicative_table(division, [p.lm for p in polys])
    ctx = polys[0].ctx
    lines = []
    for p in polys:
        mult = table[p.lm]
        lines.append(
            json.dumps(
                {
                    "polynomial": str(p),
                    "lm": str(p.lm),
                    "multiplicative": [ctx.names[i] for i in sorted(mult)],
                    "nonmultiplicative": [ctx.names[i] for i in range(ctx.n) if i not in mult],
                }
            )
        )
    return "\n".join(lines) + "\n"


def cmd_basis(args) -> int:
    division, ordering, polys = _inputs(args, parse_polynomial_file)
    log = [] if args.trace else None
    out_polys, status, s = compute(polys, division, ordering, args.algorithm, args.cap, log)
    if s is None:
        meta = [f"# status: {status}", f"# ordering: {ordering.value}", "# algorithm: buchberger"]
    else:
        meta = [
            f"# status: {status}",
            f"# division: {division.value}",
            f"# ordering: {ordering.value}",
            f"# algorithm: {args.algorithm}",
            f"# prolongations: {s.prolongations_examined} criterion-hits: {s.criterion_hits}"
            f" zero-reductions: {s.zero_reductions} nonzero-reductions: {s.nonzero_reductions}",
        ]
    if log is not None:
        for entry in log:
            print(f"trace: {entry}", file=sys.stderr)
    verify_failed = False
    if args.verify and status != "complete":
        meta.append("# verify verified: skipped (cap exceeded)")
    elif args.verify:
        verdicts = certify(out_polys, polys, division, ordering, s is not None)
        for name, verdict in verdicts.items():
            outcome = "ok" if verdict else f"FAIL ({verdict.reason})" if name == "involutive" else "FAIL"
            meta.append(f"# verify {name}: {outcome}")
        verify_failed = not all(verdicts.values())
    if args.format == "records":
        _emit(_records(out_polys, division), args.output)
    else:
        lines = [str(p) for p in out_polys]
        lines.extend(meta)
        _emit("\n".join(lines) + "\n", args.output)
    if verify_failed:
        return EXIT_VERIFY
    return EXIT_OK if status == "complete" else EXIT_CAP


def cmd_check(args) -> int:
    division, ordering, polys = _inputs(args, parse_polynomial_file)
    inv = verify_involutive(polys, division, ordering, mode=args.mode, degree_bound=args.degree_bound)
    gb = verify_groebner(polys, ordering)
    lines = []
    if inv.ok:
        lines.append("involutive: ok")
    else:
        witness = ""
        if inv.witness is not None:
            # (member, variable) for a prolongation, (member,) when it is reducible
            member, *x = inv.witness
            witness = f" witness: {member.lm} * {member.ctx.names[x[0]]}" if x else f" witness: {member}"
        lines.append(f"involutive: FAIL ({inv.reason}){witness}")
    lines.append("groebner: ok" if gb else "groebner: FAIL")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if inv.ok and gb else EXIT_VERIFY


def _load_dir_cases(path: Path, ordering: Ordering) -> list[BenchCase]:
    cases = []
    for file in sorted(path.iterdir()):
        if not file.is_file():
            continue
        polys, _, _ = parse_polynomial_file(file.read_text(), None, ordering)
        cases.append(BenchCase(file.name, ordering, polys))
    return cases


def cmd_bench(args) -> int:
    if args.divisions == "all":
        divisions = list(Division)
    else:
        divisions = [Division.parse(d) for d in args.divisions.split(",")]
    algorithms = [a.strip() for a in args.algorithms.split(",")]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    if args.corpus:
        cases = _load_dir_cases(Path(args.corpus), Ordering.parse(args.order))
    else:
        cases = list(builtin_cases())
    records = run_bench(cases, divisions, algorithms, cap=args.cap)
    if args.format == "records":
        text = "\n".join(json.dumps(dataclasses.asdict(r) | {"wall_ms": round(r.wall_ms, 3)}) for r in records) + "\n"
    else:
        text = format_table(records) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _non_negative(text: str) -> int:
    """The type of the bound options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="involutive", description="Involutive bases over the rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="input file, one entry per line ('-' for stdin)")
        p.add_argument("--vars", help="comma-separated variable names, highest first")
        p.add_argument("--division", default="janet", help="thomas|janet|pommaret|division1|division2")
        p.add_argument("--order", default="deglex", help="lex|deglex|degrevlex")
        p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p_complete = sub.add_parser("complete", help="complete a monomial set to involutive form")
    common(p_complete)
    p_complete.add_argument("--cap", type=_non_negative, default=10000)
    p_complete.set_defaults(func=cmd_complete)

    p_basis = sub.add_parser("basis", help="compute an involutive (or Groebner) basis")
    common(p_basis)
    p_basis.add_argument("--cap", type=_non_negative, default=20000)
    p_basis.add_argument("--algorithm", default="minimal", choices=["involutive", "minimal", "buchberger"])
    p_basis.add_argument("--verify", action="store_true", help="verify the output against the oracle")
    p_basis.add_argument("--trace", action="store_true", help="write step events to stderr")
    p_basis.add_argument("--format", default="text", choices=["text", "records"])
    p_basis.set_defaults(func=cmd_basis)

    p_check = sub.add_parser("check", help="verify a basis file")
    common(p_check)
    p_check.add_argument("--mode", default="local", choices=["local", "global"])
    p_check.add_argument("--degree-bound", type=_non_negative, default=3)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="run the benchmark grid")
    p_bench.add_argument("corpus", nargs="?", help="directory of input files (defaults to the built-in corpus)")
    p_bench.add_argument("--divisions", default="all")
    p_bench.add_argument("--algorithms", default="involutive,minimal,buchberger")
    p_bench.add_argument("--order", default="deglex")
    p_bench.add_argument("--cap", type=_non_negative, default=1000)
    p_bench.add_argument("--format", default="table", choices=["table", "records"])
    p_bench.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
