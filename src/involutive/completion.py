"""Completion of finite monomial sets to involutive form.

The completion loop repeatedly inserts the lowest non-multiplicative
prolongation u*x that has no involutive divisor in the current set.  For a
continuous division this terminates exactly when a finite involutive
completion exists; a step cap turns the divergent cases into an explicit
``cap_exceeded`` result instead of a hang.

The pending prolongations wait in a heap whose entries carry their member
and product.  The members sit in the divisor index ``polynomials._Reducers``,
whose lookup names the cover of a popped entry; a covered entry is parked
under its cover until that member's multiplicative set shrinks, so a step
costs the lookups of the entries it pops, not a re-check of the whole set.
After an insertion the one partition-growth rule, ``divisions.grow_table``,
names the variables each member lost; the index narrows those members, and
the variables become pending prolongations and release what was parked
under them.  ``is_locally_involutive`` is the independent one-shot check:
it scans every member for every prolongation of a given set and reports
the lowest uncovered one, the witness each step of the loop inserts.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .divisions import Division, _inv_divides, grow_table, multiplicative_table
from .monomials import Monomial, Ordering, monomials_up_to_degree
from .polynomials import _Reducers


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

    The input is conventionally autoreduced once up front; afterwards each
    step inserts the product of the lowest uncovered prolongation, so the
    step log is a full audit trail of the run.  The cap counts insertions.

    The pending prolongations (u, x) wait in a heap ranked by
    (key(u*x), key(u), x).  Once the covered entries at its top are popped,
    the top entry is the witness ``is_locally_involutive`` reports for the
    current set.  A popped covered entry is parked under the member v that
    the index finds for it and goes back on the heap only when v's
    multiplicative set shrinks: partitions only shrink as the set grows
    (axiom (d)), so that is the only way the cover can end.  Which cover
    parks an entry decides only when it is tested again, not which
    prolongation is inserted.  After each insertion ``divisions.grow_table``,
    the one partition-growth rule the engine uses too, updates the table
    and reports the variables each member lost; the index narrows that
    member and each lost variable becomes a pending prolongation.  For
    Pommaret and division2 a partition does not depend on the set, so no
    member loses one and a cover is final.  The table holds every member.
    """
    members = autoreduce_monomials(U)
    table = multiplicative_table(division, members)
    key = ordering.key
    everything = frozenset(range(members[0].ctx.n))
    index = _Reducers((), table, ordering)
    heap: list[tuple] = []
    parked: dict[Monomial, list[tuple]] = {}

    def push(u: Monomial, xs: Iterable[int]) -> None:
        ku = key(u)
        for x in xs:
            w = u.mul_var(x)
            # (key(w), key(u), x) is unique, so u and w are never compared
            heapq.heappush(heap, (key(w), ku, x, u, w))

    for u in members:
        index.insert(u, table[u], u)
        push(u, everything - table[u])
    log: list[CompletionStep] = []
    while heap:
        cover = index.find(heap[0][-1].exps)
        if cover is not None:
            parked.setdefault(cover, []).append(heapq.heappop(heap))
            continue
        if len(log) >= cap:
            break
        _, _, x, u, w = heapq.heappop(heap)
        log.append(CompletionStep(u, x, w))
        for v, lost in grow_table(division, table, w).items():
            index.narrow(v, table[v])
            push(v, lost)
            for entry in parked.pop(v, ()):
                heapq.heappush(heap, entry)
        index.insert(w, table[w], w)
        push(w, everything - table[w])
    basis = tuple(sorted(table, key=key))
    return CompletionResult(basis, "cap_exceeded" if heap else "complete", len(log), cap, tuple(log))
