"""Involutive divisions as interchangeable variable-partition strategies.

A division assigns to every member u of a finite monomial set U a set of
multiplicative variables; the rest are non-multiplicative for u.  u then
divides w involutively when u | w and the quotient w/u uses multiplicative
variables of u only.  The five shipped rules, with variables x_1..x_n:

- Thomas: x_i is multiplicative for u when no member of U has a higher
  exponent of x_i.
- Janet: x_i is multiplicative for u when no member of U that shares u's
  exponents on x_1..x_(i-1) has a higher exponent of x_i.
- Pommaret: x_i is multiplicative for u when no variable after x_i
  occurs in u.
- division1: x_i is non-multiplicative for u when some member v exceeds u
  at x_i and at no more than n // 2 positions in all.
- division2: x_i is multiplicative for u when its exponent in u is u's
  highest.

Each division has one rule: given the table of a set and a new member u,
it returns u's multiplicative variables and the variables each older
member v loses, and ``grow_table`` applies them in place.  A table is
grown from the empty one, so the rule is all a division has.  Pommaret's
and division2's rules read u alone and report no loss.  Thomas, Janet and
division1 read the whole set, but only the pairs (v, u) can change a
partition:

- Thomas: u gets x_i when u_i is at least the old column maximum, and
  every member holding x_i loses it when u_i exceeds that maximum; a
  member holds x_i exactly when it attains the column maximum.
- Janet: let d be the first position where v and u differ.  v shares u's
  exponents before i exactly for i <= d, and before d they agree, so the
  pair decides position d only: d is non-multiplicative for u when
  v_d > u_d, and v loses d when u_d > v_d.
- division1: the rule is stated on single members v, so v loses the
  positions where u exceeds v when there are at most n // 2 of them, and
  u's non-multiplicative set is the union of the same test with v and u
  swapped.

A sound partition strategy satisfies four axioms:

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

from .monomials import ContextMismatch, Monomial, monomials_up_to_degree

# a multiplicative table: the multiplicative variable positions of each member
Table = dict[Monomial, frozenset[int]]


class Division(enum.Enum):
    THOMAS = "thomas"
    JANET = "janet"
    POMMARET = "pommaret"
    DIVISION_1 = "division1"
    DIVISION_2 = "division2"

    # members are singletons; Enum's own hash of the name runs Python code
    __hash__ = object.__hash__

    @property
    def globally_defined(self) -> bool:
        """True when the division partitions a monomial without consulting
        the rest of the set."""
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


# A rule takes a table and a new member u; it returns u's multiplicative
# positions and the variables each older member loses, and grow_table
# applies them.
def _pommaret(table: Table, u: Monomial) -> tuple[frozenset[int], Table]:
    n = u.ctx.n
    for i in range(n - 1, -1, -1):
        if u.exps[i] > 0:
            return frozenset(range(i, n)), {}
    return frozenset(range(n)), {}


def _division2(table: Table, u: Monomial) -> tuple[frozenset[int], Table]:
    dmax = max(u.exps)
    return frozenset(i for i, e in enumerate(u.exps) if e == dmax), {}


def _thomas(table: Table, u: Monomial) -> tuple[frozenset[int], Table]:
    # every member that holds x_i has the column maximum at i
    tops = {i: v.exps[i] for v, mult in table.items() for i in mult}
    raised = frozenset(i for i, e in enumerate(u.exps) if e > tops.get(i, e))
    lost = {v: mult & raised for v, mult in table.items() if not mult.isdisjoint(raised)}
    return frozenset(i for i, e in enumerate(u.exps) if e >= tops.get(i, e)), lost


def _janet(table: Table, u: Monomial) -> tuple[frozenset[int], Table]:
    mult, lost = set(range(u.ctx.n)), {}
    for v, v_mult in table.items():
        d = 0
        # u is new, so the two differ somewhere
        while v.exps[d] == u.exps[d]:
            d += 1
        if v.exps[d] > u.exps[d]:
            mult.discard(d)
        elif d in v_mult:
            lost[v] = frozenset((d,))
    return frozenset(mult), lost


def _division1(table: Table, u: Monomial) -> tuple[frozenset[int], Table]:
    half = u.ctx.n // 2
    mult, lost = set(range(u.ctx.n)), {}
    for v, v_mult in table.items():
        # over[a < b]: over_v where v exceeds u, over_u where u exceeds v
        over_v, over_u = over = [], []
        for i, (a, b) in enumerate(zip(v.exps, u.exps)):
            if a != b:
                over[a < b].append(i)
        if len(over_v) <= half:
            mult.difference_update(over_v)
        if len(over_u) <= half and not v_mult.isdisjoint(over_u):
            lost[v] = v_mult.intersection(over_u)
    return frozenset(mult), lost


_RULES: dict[Division, Callable[[Table, Monomial], tuple[frozenset[int], Table]]] = {
    Division.THOMAS: _thomas,
    Division.JANET: _janet,
    Division.POMMARET: _pommaret,
    Division.DIVISION_1: _division1,
    Division.DIVISION_2: _division2,
}


def multiplicative_table(division: Division, U: Sequence[Monomial]) -> Table:
    """Multiplicative variable positions for every distinct member of U, in
    first-seen order: the table grown from the empty one by each member."""
    members = list(dict.fromkeys(U))
    if not members:
        raise ValueError("the monomial set must be non-empty")
    if len({u.ctx for u in members}) > 1:
        raise ContextMismatch("all monomials must share one variable context")
    table: Table = {}
    for u in members:
        grow_table(division, table, u)
    return table


def grow_table(division: Division, table: Table, u: Monomial) -> Table:
    """Add u to ``table``, the multiplicative table of a set, in place;
    return the variables that each older member lost.

    The table may be empty.  When u is already a member, the table stays as
    it is and ``{}`` is returned.  Each division's rule returns u's
    multiplicative variables and the losses of the older members.
    Pommaret's and division2's rules read u alone, so no member loses a
    variable.  Under Thomas, Janet and division1 a partition changes only
    through the pairs (v, u) of an older member v with u, so their rules
    read those pairs alone:

    - Thomas: u gets x_i when u_i is at least the old column maximum; a
      member holds x_i exactly at that maximum, so every holder loses x_i
      when u_i exceeds it.
    - Janet: with d the first position where v and u differ, v shares u's
      exponents before i exactly for i <= d, and before d the two agree;
      so only d changes, non-multiplicative for u when v_d > u_d, and lost
      by v when u_d > v_d.
    - division1: the rule is stated on single members; v loses the
      positions where u exceeds v when there are at most n // 2 of them,
      and u's non-multiplicative positions are the same test with v and u
      swapped, over every v.

    Partitions only shrink as the set grows (axiom (d)), so the lost
    variables are all that changes for the older members.
    """
    if u in table:
        return {}
    mult, lost = _RULES[division](table, u)
    for v, gone in lost.items():
        table[v] -= gone
    table[u] = mult
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


def _table_for(strategy, members: tuple[Monomial, ...]) -> Table:
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
