"""Involutive divisions as interchangeable variable-partition strategies.

A division assigns to every member u of a finite monomial set U a set of
multiplicative variables; the rest are non-multiplicative for u.  u then
divides w involutively when u | w and the quotient w/u uses multiplicative
variables of u only.  A sound partition strategy satisfies four axioms:

  (a) the monomials built from multiplicative variables of u form a
      divisor-closed submonoid (automatic for any variable partition);
  (b) distinct members whose involutive cones intersect divide one another
      involutively;
  (c) if v lies in the involutive cone of u, the multiplicative monoid of v
      is contained in that of u;
  (d) shrinking the set never shrinks a surviving member's multiplicative
      set.

``check_division_axioms`` probes (b)-(d) by bounded enumeration and is used
both as a self-check on the five shipped strategies and as a detector for
deliberately broken ones.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .monomials import Monomial, VariableContext, monomials_up_to_degree


class Division(enum.Enum):
    THOMAS = "thomas"
    JANET = "janet"
    POMMARET = "pommaret"
    DIVISION_1 = "division1"
    DIVISION_2 = "division2"

    @property
    def globally_defined(self) -> bool:
        # Pommaret and division2 partition a monomial without consulting the
        # rest of the set.  division1's rule reads the other members, so we
        # treat it as set-dependent even though on many sets its partitions
        # coincide with a set-independent assignment.
        return self in (Division.POMMARET, Division.DIVISION_2)

    @classmethod
    def parse(cls, text: str) -> "Division":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(d.value for d in cls)
            raise ValueError(f"unknown division {text!r} (expected one of: {names})") from None


@dataclass(frozen=True, slots=True)
class Partition:
    """Disjoint split of the variable positions of one set member."""

    multiplicative: frozenset[int]
    nonmultiplicative: frozenset[int]

    def __post_init__(self) -> None:
        if self.multiplicative & self.nonmultiplicative:
            raise ValueError("multiplicative and non-multiplicative sets overlap")


PartitionFn = Callable[[Monomial, tuple[Monomial, ...]], Partition]


def _thomas_table(U: Sequence[Monomial]) -> dict[Monomial, frozenset[int]]:
    n = U[0].ctx.n
    maxima = [max(u.exps[i] for u in U) for i in range(n)]
    return {u: frozenset(i for i in range(n) if u.exps[i] == maxima[i]) for u in U}


def _janet_table(U: Sequence[Monomial]) -> dict[Monomial, frozenset[int]]:
    # refine groups by equal leading exponent prefixes; within a group the
    # members with the maximal next exponent get that variable
    n = U[0].ctx.n
    mult: dict[Monomial, set[int]] = {u: set() for u in U}
    groups: list[list[Monomial]] = [list(dict.fromkeys(U))]
    for i in range(n):
        refined: list[list[Monomial]] = []
        for members in groups:
            dmax = max(v.exps[i] for v in members)
            buckets: dict[int, list[Monomial]] = {}
            for v in members:
                if v.exps[i] == dmax:
                    mult[v].add(i)
                buckets.setdefault(v.exps[i], []).append(v)
            refined.extend(buckets.values())
        groups = refined
    return {u: frozenset(s) for u, s in mult.items()}


def _pommaret_mult(u: Monomial) -> frozenset[int]:
    n = u.ctx.n
    for i in range(n - 1, -1, -1):
        if u.exps[i] > 0:
            return frozenset(range(i, n))
    return frozenset(range(n))


def _division1_table(U: Sequence[Monomial]) -> dict[Monomial, frozenset[int]]:
    n = U[0].ctx.n
    limit = n // 2
    table = {}
    for u in U:
        nonmult: set[int] = set()
        for v in U:
            gap = tuple(max(a, b) - a for a, b in zip(u.exps, v.exps))
            vars_of_gap = [i for i, e in enumerate(gap) if e]
            if 1 <= len(vars_of_gap) <= limit:
                nonmult.update(vars_of_gap)
        table[u] = frozenset(range(n)) - frozenset(nonmult)
    return table


def _division2_mult(u: Monomial) -> frozenset[int]:
    dmax = max(u.exps)
    return frozenset(i for i, e in enumerate(u.exps) if e == dmax)


def multiplicative_table(division: Division, U: Sequence[Monomial]) -> dict[Monomial, frozenset[int]]:
    """Multiplicative variable positions for every distinct member of U."""
    members = list(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    ctx = members[0].ctx
    for u in members:
        if u.ctx != ctx:
            raise ValueError("all monomials must share one variable context")
    if division is Division.THOMAS:
        return _thomas_table(members)
    if division is Division.JANET:
        return _janet_table(members)
    if division is Division.POMMARET:
        return {u: _pommaret_mult(u) for u in members}
    if division is Division.DIVISION_1:
        return _division1_table(members)
    if division is Division.DIVISION_2:
        return {u: _division2_mult(u) for u in members}
    raise ValueError(f"unhandled division {division}")


def grow_table(division: Division, table: dict[Monomial, frozenset[int]], u: Monomial) -> dict[Monomial, frozenset[int]]:
    """Add u to ``table``, the multiplicative table of a set without u, in
    place; return the variables that each older member lost.

    Partitions only shrink as the set grows (axiom (d)), so the lost
    variables are all that changes for the older members.  Pommaret and
    division2 partition a monomial without consulting the rest of the set,
    so only u's partition is computed and no member loses a variable; the
    other divisions recompute the table.
    """
    if division.globally_defined:
        table[u] = multiplicative_table(division, [u])[u]
        return {}
    new = multiplicative_table(division, [*table, u])
    lost = {v: mult - new[v] for v, mult in table.items() if not mult <= new[v]}
    table.update(new)
    return lost


def partition(division: Division, u: Monomial, U: Iterable[Monomial]) -> Partition:
    """Partition of the variables for u as a member of U."""
    members = tuple(U)
    if u not in members:
        raise ValueError(f"{u} is not a member of the given set")
    mult = multiplicative_table(division, members)[u]
    return Partition(mult, frozenset(range(u.ctx.n)) - mult)


def _inv_divides(u_exps: tuple[int, ...], w_exps: tuple[int, ...], mult: frozenset[int]) -> bool:
    for i, (a, b) in enumerate(zip(u_exps, w_exps)):
        if a > b:
            return False
        if b > a and i not in mult:
            return False
    return True


def is_involutive_divisor(division: Division, u: Monomial, U: Iterable[Monomial], w: Monomial) -> bool:
    """True when u | w and w/u uses only multiplicative variables of u in U."""
    members = tuple(U)
    if u not in members:
        raise ValueError(f"{u} is not a member of the given set")
    u._check(w)
    mult = multiplicative_table(division, members)[u]
    return _inv_divides(u.exps, w.exps, mult)


def involutive_divisors(division: Division, U: Iterable[Monomial], w: Monomial) -> tuple[Monomial, ...]:
    """All members of U that divide w involutively, in set order."""
    members = tuple(dict.fromkeys(U))
    table = multiplicative_table(division, members)
    return tuple(u for u in members if _inv_divides(u.exps, w.exps, table[u]))


@dataclass
class AxiomReport:
    strategy: str
    set_size: int
    probe_degree_bound: int
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    probes_checked: int = 0
    subsets_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _table_for(strategy, members: tuple[Monomial, ...]) -> dict[Monomial, frozenset[int]]:
    if isinstance(strategy, Division):
        return multiplicative_table(strategy, members)
    return {u: strategy(u, members).multiplicative for u in members}


def check_division_axioms(strategy, U: Iterable[Monomial], probe_degree_bound: int) -> AxiomReport:
    """Probe axioms (a)-(d) for a partition strategy on a concrete set.

    ``strategy`` is a Division or any callable (u, U) -> Partition.  The
    probes enumerate monomials up to the degree bound for axiom (b) and
    subsets of U for axiom (d); an empty report means no violation found
    within those bounds.
    """
    if probe_degree_bound < 0:
        raise ValueError("the probe degree bound must be non-negative")
    members = tuple(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    ctx = members[0].ctx
    name = strategy.value if isinstance(strategy, Division) else getattr(strategy, "__name__", "custom")
    report = AxiomReport(strategy=name, set_size=len(members), probe_degree_bound=probe_degree_bound)
    report.notes.append("axiom (a) holds by construction for variable partitions")

    table = _table_for(strategy, members)

    # axiom (b): intersecting cones force mutual involutive divisibility
    for w in monomials_up_to_degree(ctx, probe_degree_bound):
        report.probes_checked += 1
        owners = [u for u in members if _inv_divides(u.exps, w.exps, table[u])]
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                u, v = owners[a], owners[b]
                if not (_inv_divides(u.exps, v.exps, table[u]) or _inv_divides(v.exps, u.exps, table[v])):
                    report.violations.append(f"(b) cones of {u} and {v} meet at {w} without mutual division")
        if len(report.violations) > 200:
            report.notes.append("violation list truncated")
            break

    # axiom (c): v in cone of u forces mult(v) <= mult(u)
    for u in members:
        for v in members:
            if u is v:
                continue
            if _inv_divides(u.exps, v.exps, table[u]) and not table[v] <= table[u]:
                report.violations.append(f"(c) {v} lies in the cone of {u} but has extra multiplicative variables")

    # axiom (d): partitions may only grow when the set shrinks
    if len(members) <= 8:
        subsets = []
        for mask in range(1, 1 << len(members)):
            subsets.append(tuple(members[i] for i in range(len(members)) if mask >> i & 1))
    else:
        # bounded policy for larger sets: remove up to two members, plus one
        # chain that deletes members one at a time
        subsets = [members]
        for i in range(len(members)):
            v1 = members[:i] + members[i + 1:]
            subsets.append(v1)
            for j in range(len(v1)):
                subsets.append(v1[:j] + v1[j + 1:])
        chain = list(members)
        while len(chain) > 1:
            chain.pop()
            subsets.append(tuple(chain))
        report.notes.append("subset enumeration bounded: co-size <= 2 plus one deletion chain")
    seen = set()
    for sub in subsets:
        if not sub or sub in seen:
            continue
        seen.add(sub)
        report.subsets_checked += 1
        sub_table = _table_for(strategy, sub)
        for u in sub:
            if not table[u] <= sub_table[u]:
                report.violations.append(f"(d) {u} loses multiplicative variables when the set shrinks to {sub}")
    return report
