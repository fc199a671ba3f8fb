"""Completion of finite monomial sets to involutive form.

The completion loop repeatedly picks the lowest non-multiplicative
prolongation u*x that has no involutive divisor in the current set and
inserts it.  For a continuous division this terminates exactly when a finite
involutive completion exists; a step cap turns the divergent cases into an
explicit ``cap_exceeded`` result instead of a hang.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .divisions import Division, _inv_divides, multiplicative_table
from .monomials import Monomial, Ordering, monomials_up_to_degree


def autoreduce_monomials(U: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop duplicates and every monomial with a proper divisor in the set."""
    members = list(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    kept = []
    for u in members:
        if not any(v != u and v.divides(u) for v in members):
            kept.append(u)
    return tuple(kept)


@dataclass(frozen=True, slots=True)
class CompletionStep:
    source: Monomial
    variable: int
    product: Monomial


@dataclass(frozen=True, slots=True)
class CompletionResult:
    basis: tuple[Monomial, ...]
    status: str  # "complete" | "cap_exceeded"
    steps: int
    cap: int
    log: tuple[CompletionStep, ...]


def is_locally_involutive(
    division: Division, U: Iterable[Monomial], ordering: Ordering
) -> tuple[bool, Optional[tuple[Monomial, int]]]:
    """Check that every non-multiplicative prolongation is covered.

    On failure returns the witness (u, x) whose product is lowest in the
    ordering; ties go to the lower source monomial.
    """
    members = tuple(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    table = multiplicative_table(division, members)
    failing = []
    for u in members:
        for x in range(u.ctx.n):
            if x in table[u]:
                continue
            w = u.mul_var(x)
            if not any(_inv_divides(v.exps, w.exps, table[v]) for v in members):
                # (key(w), key(u), x) is unique, so u is never compared
                failing.append((ordering.key(w), ordering.key(u), x, u))
    if not failing:
        return True, None
    *_, x, u = min(failing)
    return False, (u, x)


def is_involutive_up_to(division: Division, U: Iterable[Monomial], degree_bound: int) -> bool:
    """Bounded global check: the two cones agree up to the degree bound."""
    members = tuple(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    if degree_bound < max(u.degree for u in members):
        raise ValueError("degree bound below the maximal degree in the set")
    table = multiplicative_table(division, members)
    for w in monomials_up_to_degree(members[0].ctx, degree_bound):
        if any(v.divides(w) for v in members):
            if not any(_inv_divides(v.exps, w.exps, table[v]) for v in members):
                return False
    return True


def minimal_monomial_completion(
    division: Division,
    U: Iterable[Monomial],
    ordering: Ordering = Ordering.DEGLEX,
    cap: int = 10000,
) -> CompletionResult:
    """Complete U to the minimal involutive monomial basis containing it.

    The input is conventionally autoreduced once up front; afterwards the
    loop only ever inserts the product of the witness ``is_locally_involutive``
    reports, the lowest uncovered prolongation, so the step log is a full
    audit trail of the run.  The cap counts insertions.
    """
    members = list(autoreduce_monomials(U))
    log: list[CompletionStep] = []
    while (witness := is_locally_involutive(division, members, ordering)[1]) and len(log) < cap:
        u, x = witness
        w = u.mul_var(x)
        members.append(w)
        log.append(CompletionStep(u, x, w))
    basis = tuple(sorted(members, key=ordering.key))
    return CompletionResult(basis, "cap_exceeded" if witness else "complete", len(log), cap, tuple(log))
