"""Benchmark harness: divisions and algorithms against the oracle.

Every corpus case is run through the requested division/algorithm grid;
complete outputs are verified (same ideal as the input, Groebner, and for
the involutive algorithms involutivity) before the timing is reported.
Capped runs are flagged and excluded from the per-case ranking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus import CASES, CorpusCase
from .divisions import Division
from .engine import involutive_basis, minimal_involutive_basis, verify_groebner, verify_involutive
from .monomials import Ordering, VariableContext
from .parsing import parse_polynomial
from .polynomials import Polynomial, buchberger, same_ideal

ALGORITHMS = ("involutive", "minimal", "buchberger")


@dataclass(frozen=True, slots=True)
class BenchRecord:
    case: str
    division: str
    algorithm: str
    status: str
    verified: bool
    basis_size: int
    prolongations: int
    criterion_hits: int
    zero_reductions: int
    wall_ms: float


@dataclass(frozen=True, slots=True)
class BenchCase:
    name: str
    ordering: Ordering
    polys: tuple[Polynomial, ...]


def _case_inputs(case: CorpusCase) -> BenchCase:
    ctx = VariableContext(case.variables)
    polys = tuple(parse_polynomial(line, ctx, case.ordering) for line in case.lines)
    return BenchCase(case.name, case.ordering, polys)


def builtin_cases() -> tuple[BenchCase, ...]:
    return tuple(_case_inputs(c) for c in CASES)


def run_case(case: BenchCase, division: Division, algorithm: str, cap: int) -> BenchRecord:
    start = time.perf_counter()
    if algorithm == "buchberger":
        basis = buchberger(case.polys, case.ordering)
        wall = (time.perf_counter() - start) * 1000.0
        verified = verify_groebner(basis, case.ordering) and same_ideal(basis, case.polys, case.ordering)
        return BenchRecord(case.name, "-", algorithm, "complete", verified, len(basis), 0, 0, 0, wall)
    fn = involutive_basis if algorithm == "involutive" else minimal_involutive_basis
    result = fn(case.polys, division, case.ordering, cap=cap)
    wall = (time.perf_counter() - start) * 1000.0
    verified = False
    if result.status == "complete":
        verified = (
            bool(verify_involutive(result.basis, division, case.ordering))
            and verify_groebner(result.basis, case.ordering)
            and same_ideal(result.basis, case.polys, case.ordering)
        )
    s = result.stats
    return BenchRecord(
        case.name,
        division.value,
        algorithm,
        result.status,
        verified,
        len(result.basis),
        s.prolongations_examined,
        s.criterion_hits,
        s.zero_reductions,
        wall,
    )


def run_bench(
    cases: Optional[Sequence[BenchCase]] = None,
    divisions: Optional[Iterable[Division]] = None,
    algorithms: Iterable[str] = ("involutive", "minimal"),
    cap: int = 1000,
) -> list[BenchRecord]:
    cases = list(cases) if cases is not None else list(builtin_cases())
    divisions = list(divisions) if divisions is not None else list(Division)
    records = []
    for case in cases:
        for algorithm in algorithms:
            if algorithm == "buchberger":
                records.append(run_case(case, Division.JANET, algorithm, cap))
                continue
            for division in divisions:
                records.append(run_case(case, division, algorithm, cap))
    records.sort(key=lambda r: (r.case, r.division, r.algorithm))
    return records


def format_table(records: Sequence[BenchRecord]) -> str:
    headers = ("case", "division", "algorithm", "status", "ok", "size", "prolong", "crit", "zero", "ms")
    rows = [
        (
            r.case,
            r.division,
            r.algorithm,
            r.status,
            "yes" if r.verified else ("-" if r.status != "complete" else "NO"),
            str(r.basis_size),
            str(r.prolongations),
            str(r.criterion_hits),
            str(r.zero_reductions),
            f"{r.wall_ms:.1f}",
        )
        for r in records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    complete = [r for r in records if r.status == "complete" and r.verified]
    for case in sorted({r.case for r in records}):
        ranked = sorted((r for r in complete if r.case == case), key=lambda r: r.wall_ms)
        if ranked:
            best = ranked[0]
            lines.append(f"# fastest complete for {case}: {best.division}/{best.algorithm} ({best.wall_ms:.1f} ms)")
    return "\n".join(lines)
