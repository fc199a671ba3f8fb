"""Benchmark harness: divisions and algorithms against the oracle.

``compute`` runs a named algorithm and ``certify`` checks its output
against the oracle; both ``bench`` and ``basis --verify`` use them, so this
module alone maps an algorithm name to its function and names the checks.
Every corpus case is run through the requested division/algorithm grid;
the timing covers the computation only, and complete outputs are then
certified (Groebner, same ideal as the input, and for the involutive
algorithms involutivity), every check running even after one fails.
Capped runs are flagged and excluded from the per-case ranking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus import CASES, CorpusCase
from .divisions import Division
from .engine import BasisStats, involutive_basis, minimal_involutive_basis, verify_groebner, verify_involutive
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


def compute(
    polys: Sequence[Polynomial], division: Division, ordering: Ordering, algorithm: str, cap: int, log: Optional[list] = None
) -> tuple[tuple[Polynomial, ...], str, Optional[BasisStats]]:
    """The basis of ``polys`` by the named algorithm, its status and its
    counters.  Buchberger's algorithm always completes, ignores the
    division, the cap and the log, and has no counters."""
    if algorithm == "buchberger":
        return buchberger(polys, ordering), "complete", None
    fn = involutive_basis if algorithm == "involutive" else minimal_involutive_basis
    result = fn(polys, division, ordering, cap=cap, log=log)
    return result.basis, result.status, result.stats


def certify(
    basis: Sequence[Polynomial], polys: Sequence[Polynomial], division: Division, ordering: Ordering, involutive: bool
) -> dict[str, object]:
    """The oracle's verdicts on ``basis`` as a basis of the ideal of
    ``polys``, by check name in the order they are printed: groebner,
    same-ideal and, when ``involutive``, involutive, whose verdict is the
    ``VerifyResult`` with its reason.  A verdict is true when it passes."""
    verdicts = {"groebner": verify_groebner(basis, ordering), "same-ideal": same_ideal(basis, polys, ordering)}
    if involutive:
        verdicts["involutive"] = verify_involutive(basis, division, ordering)
    return verdicts


def run_case(case: BenchCase, division: Division, algorithm: str, cap: int) -> BenchRecord:
    start = time.perf_counter()
    basis, status, stats = compute(case.polys, division, case.ordering, algorithm, cap)
    wall = (time.perf_counter() - start) * 1000.0
    verified = False
    if status == "complete":
        verified = all(certify(basis, case.polys, division, case.ordering, stats is not None).values())
    label, counts = "-", (0, 0, 0)
    if stats is not None:
        label, counts = division.value, (stats.prolongations_examined, stats.criterion_hits, stats.zero_reductions)
    return BenchRecord(case.name, label, algorithm, status, verified, len(basis), *counts, wall)


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
