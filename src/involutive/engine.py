"""Involutive bases of polynomial ideals.

Two completion algorithms are provided, and both run one candidate loop,
``_Completion.complete``, over an intermediate set of members and a pending
queue: take the lowest candidate (a queued element, or the lowest pending
non-multiplicative prolongation of a member), skip it by the criterion or
reduce it, and place a nonzero normal form.  They differ only in the
placement policy.  ``involutive_basis`` starts with all of the input in the
set and involutively autoreduces the set after every insertion.
``minimal_involutive_basis`` starts with the lowest input element, queues
the rest, and lets the set grow only at the top: whenever a normal form
undercuts the leading monomials of the set, the higher members are demoted
back to the queue.  For a constructive noetherian division the second
algorithm returns the unique minimal involutive basis of the ideal.

``_Completion`` keeps the members in ascending order of leading monomials,
their partitions, the divisor index ``polynomials._Reducers`` of the
members, a heap of pending prolongations whose entries carry their member,
and the set of prolongations already examined, all updated per insertion.
``divisions.grow_table`` updates the partitions, the index takes the new
member and narrows the older members that lost a multiplicative variable,
and the members' positions are the index's.  Only an insertion that
reduces an old member, or a demotion, rebuilds the rest.

Both algorithms prune candidates with the ancestor criterion: a candidate
whose leading monomial has an involutive divisor among the members, with
the two ancestors' lcm strictly below it, reduces to zero and is skipped.
The members stay involutively autoreduced, so their involutive cones are
disjoint and that divisor is the one the index's lookup returns.  A test
mode re-checks every skip by full reduction.

Reduction and interreduction use the kernel of ``polynomials`` with the
division's multiplicative table; ``buchberger``, the oracle the results
are checked against, uses no division or completion code.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .divisions import Division, _inv_divides, grow_table, multiplicative_table
from .monomials import Monomial, Ordering, monomials_up_to_degree
from .polynomials import Polynomial, _all_variables, _coerce, _interreduce, _nf, _Reducers, _s_remainders, autoreduce, normal_form


@dataclass(frozen=True, slots=True)
class Triple:
    """A basis member with its prolongation bookkeeping.

    ``ancestor`` is the leading monomial of the element this one descends
    from by non-multiplicative prolongations (its own when fresh).  ``age``
    is an insertion counter that names the member in the examined
    prolongations and breaks selection ties.
    """

    poly: Polynomial
    ancestor: Monomial
    age: int


@dataclass
class BasisStats:
    prolongations_examined: int = 0
    criterion_hits: int = 0
    zero_reductions: int = 0
    nonzero_reductions: int = 0
    criterion_checked: int = 0
    criterion_violations: int = 0


@dataclass(frozen=True, slots=True)
class BasisResult:
    basis: tuple[Polynomial, ...]  # monic, ascending by leading monomial
    status: str  # "complete" | "cap_exceeded"
    division: Division
    ordering: Ordering
    stats: BasisStats


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    reason: str = ""
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def _prepare(F: Iterable[Polynomial], ordering: Ordering) -> list[Polynomial]:
    polys = _coerce(F, ordering)
    if not polys:
        raise ValueError("need at least one nonzero polynomial")
    return polys


def involutive_normal_form(
    p: Polynomial,
    F: Iterable[Polynomial],
    division: Division,
    ordering: Ordering,
    trace: Optional[list] = None,
) -> Polynomial:
    """Involutive normal form of p modulo F.

    Reduction rewrites the highest reducible monomial with the reducer whose
    leading monomial is lowest (ties by position in F); an optional trace
    collects (reducer, multiplier, coefficient) steps.
    """
    polys = [f.with_ordering(ordering) for f in F if not f.is_zero]
    p = p.with_ordering(ordering)
    if not polys:
        return p
    table = multiplicative_table(division, [f.lm for f in polys])
    return _nf(p, _Reducers(polys, table, ordering), trace)


def involutive_autoreduce(F: Iterable[Polynomial], division: Division, ordering: Ordering) -> tuple[Polynomial, ...]:
    """Involutive analogue of autoreduction: reduce every member modulo the
    others until stable, with partitions always taken over the full current
    leading-monomial set."""
    polys = list(dict.fromkeys(p.with_ordering(ordering).monic() for p in F if not p.is_zero))
    return _interreduce(polys, ordering, lambda lms: multiplicative_table(division, lms))[0]


def criterion(g: Polynomial, u: Monomial, T: Iterable[Triple], division: Division, ordering: Ordering) -> bool:
    """True when the tracked (f, v) whose lm(f) involutively divides lm(g)
    has lcm(u, v) strictly below lm(g); such a prolongation reduces to 0.

    The leading monomials of T must be involutively autoreduced: their
    involutive cones are then disjoint, so lm(g) has at most one involutive
    divisor among them, the one the divisor lookup returns.
    """
    triples = list(T)
    if not triples:
        return False
    table = multiplicative_table(division, [t.poly.lm for t in triples])
    f = _Reducers([t.poly for t in triples], table, ordering).find(g.lm.exps)
    return f is not None and _criterion_holds(g.lm, u, next(t.ancestor for t in triples if t.poly is f), ordering)


def _criterion_holds(prol_lm: Monomial, ancestor: Monomial, divisor_ancestor: Monomial, ordering: Ordering) -> bool:
    """The ancestor test against the involutive divisor of prol_lm."""
    return ordering.key(ancestor.lcm(divisor_ancestor)) < ordering.key(prol_lm)


class _CapReached(Exception):
    """The cap on executed normal-form reductions stops the run."""


class _Completion:
    """One completion run: the intermediate set, the pending queue and their
    bookkeeping.

    ``triples`` holds the members ascending by leading monomial, in the
    order of ``reducers``, their divisor index, whose ``keys`` locate a
    member; ``table`` is the multiplicative table of their leading
    monomials.  ``examined`` holds the (age, x) of every
    prolongation taken.  ``heap`` holds the pending non-multiplicative
    prolongations as (key of lm·x, age, x, member); (key, age, x) is
    unique, so the member is never compared.  No entry goes stale between
    two resets: the member set only grows, so no member leaves; partitions
    only shrink as the set grows (axiom (d)), so x stays non-multiplicative;
    and an entry is pushed only for an (age, x) not yet examined, when x is
    or becomes non-multiplicative, which happens once.  So the top is the
    prolongation a scan over every (member, variable) pair would choose.
    ``queue`` holds the elements waiting to join the set, ranked by (key of
    lm, age).  ``insert`` updates the bookkeeping for one new member;
    ``reset`` rebuilds it for a changed member set.
    """

    def __init__(self, division: Division, ordering: Ordering, cap: int, check_criterion: bool, log):
        self.division = division
        self.ordering = ordering
        self.cap = cap
        self.check_criterion = check_criterion
        self.log = log
        self.stats = BasisStats()
        self.counter = itertools.count()
        self.queue: list[tuple] = []
        self.examined: set[tuple[int, int]] = set()

    def fresh(self, g: Polynomial) -> Triple:
        return Triple(g, g.lm, next(self.counter))

    def enqueue(self, triples: Iterable[Triple]) -> None:
        self.queue += [(self.ordering.key(t.poly.lm), t.age, t) for t in triples]
        heapq.heapify(self.queue)

    def reset(self, triples: Iterable[Triple], table: Optional[dict[Monomial, frozenset[int]]] = None) -> None:
        """Rebuild the bookkeeping for the members ``triples``; ``table``, when
        given, is the multiplicative table of their leading monomials."""
        self.triples = sorted(triples, key=lambda t: self.ordering.key(t.poly.lm))
        if table is None:
            table = multiplicative_table(self.division, [t.poly.lm for t in self.triples])
        self.table = table
        self.reducers = _Reducers([t.poly for t in self.triples], self.table, self.ordering)
        self.heap = [entry for t in self.triples for entry in self._entries(t, self._nonmultiplicative(t))]
        heapq.heapify(self.heap)

    def _member(self, lm: Monomial) -> Triple:
        return self.triples[bisect.bisect_left(self.reducers.keys, self.ordering.key(lm))]

    def _nonmultiplicative(self, t: Triple) -> list[int]:
        mult = self.table[t.poly.lm]
        return [x for x in range(t.poly.ctx.n) if x not in mult]

    def _entries(self, t: Triple, xs: Iterable[int]) -> list[tuple]:
        """Heap entries for the prolongations of t by the variables xs that
        are not examined yet."""
        lm, key = t.poly.lm, self.ordering.key
        return [(key(lm.mul_var(x)), t.age, x, t) for x in xs if (t.age, x) not in self.examined]

    def insert(self, t: Triple) -> int:
        """Add a member with a new leading monomial; return its position."""
        lm = t.poly.lm
        lost = grow_table(self.division, self.table, lm)
        pos = self.reducers.insert(lm, self.table[lm], t.poly)
        self.triples.insert(pos, t)
        entries = self._entries(t, self._nonmultiplicative(t))
        # variables that left a member's multiplicative set leave it in the
        # index too, and become pending prolongations
        for v, xs in lost.items():
            entries += self._entries(self.triples[self.reducers.narrow(v, self.table[v])], xs)
        for entry in entries:
            heapq.heappush(self.heap, entry)
        return pos

    def next(self) -> Optional[tuple[Polynomial, Monomial, Monomial, bool]]:
        """Take the lowest candidate as (polynomial, leading monomial,
        ancestor, queued), or None when none is left.

        A queued element comes before a prolongation with the same leading
        monomial: a lower prolongation may contribute a lower cone.  A
        prolongation taken is added to ``examined`` and counted.
        """
        heap = self.heap
        if self.queue and not (heap and heap[0][0] < self.queue[0][0]):
            q = heapq.heappop(self.queue)[2]
            return q.poly, q.poly.lm, q.ancestor, True
        if not heap:
            return None
        _, age, x, t = heapq.heappop(heap)
        self.examined.add((age, x))
        self.stats.prolongations_examined += 1
        return t.poly.mul_var(x), t.poly.lm.mul_var(x), t.ancestor, False

    def examine(self, g: Polynomial, lm: Monomial, ancestor: Monomial, queued: bool) -> Optional[Polynomial]:
        """Skip the candidate g with leading monomial lm by the criterion, or
        reduce it; return its monic normal form when that is nonzero.

        The members are involutively autoreduced, so their involutive cones
        are disjoint and the divisor the reducers find for lm is the only
        member the criterion could accept.  Raises ``_CapReached`` instead of
        a reduction beyond the cap.
        """
        stats, log = self.stats, self.log
        f = self.reducers.find(lm.exps)
        if f is not None:
            if _criterion_holds(lm, ancestor, self._member(f.lm).ancestor, self.ordering):
                stats.criterion_hits += 1
                if log is not None:
                    log.append(f"skip queued {lm} by criterion" if queued else f"skip {lm} by criterion")
                if self.check_criterion:
                    stats.criterion_checked += 1
                    if not _nf(g, self.reducers).is_zero:
                        stats.criterion_violations += 1
                return None
        if stats.zero_reductions + stats.nonzero_reductions >= self.cap:
            raise _CapReached
        r = _nf(g, self.reducers)
        if r.is_zero:
            stats.zero_reductions += 1
            if log is not None and not queued:
                log.append(f"reduce {lm} -> 0")
            return None
        stats.nonzero_reductions += 1
        h = r.monic()
        if log is not None and not queued:
            log.append(f"reduce {lm} -> {h.lm}")
        return h

    def complete(self, place: Callable[[Triple, Monomial], None]) -> BasisResult:
        """Examine the candidates lowest first until none is left or the cap
        is reached; ``place`` adds the member made from a nonzero normal form
        of a candidate with the given leading monomial."""
        status = "complete"
        try:
            while (candidate := self.next()) is not None:
                g, lm, ancestor, queued = candidate
                h = self.examine(g, lm, ancestor, queued)
                if h is not None:
                    # a normal form with a lower leading monomial starts a
                    # lineage of its own
                    place(Triple(h, ancestor if h.lm == lm else h.lm, next(self.counter)), lm)
        except _CapReached:
            status = "cap_exceeded"
        basis = tuple(t.poly.monic() for t in self.triples)
        return BasisResult(basis, status, self.division, self.ordering, self.stats)

    def demote_above(self, t: Triple, lm: Monomial) -> None:
        """The minimal algorithm's policy: the set only grows at the top.

        When t's leading monomial fell below lm and below members, those
        members go back to the queue.  Every such contraction clears the
        examined prolongations: a contraction can remove the very cone that
        justified an earlier examination, and those made after it face only
        a growing set again, where handled stays handled.  A queued element
        rejoins the set under a new age, so it carries no marks.
        """
        if t.poly.lm != lm:
            cut = bisect.bisect_right(self.reducers.keys, self.ordering.key(t.poly.lm))
            if cut < len(self.triples):
                moved = self.triples[cut:]
                if self.log is not None:
                    # members joined the set in the order of their ages
                    for u in sorted(moved, key=lambda u: u.age):
                        self.log.append(f"demote {u.poly.lm}")
                self.enqueue(moved)
                self.examined.clear()
                self.reset(self.triples[:cut] + [t])
                return
        self.insert(t)


def involutive_basis(
    F: Iterable[Polynomial],
    division: Division,
    ordering: Ordering,
    cap: int = 20000,
    *,
    check_criterion: bool = False,
    log: Optional[list[str]] = None,
) -> BasisResult:
    """Complete F to an involutive basis, keeping the set autoreduced.

    All of F starts in the set.  Every round takes the lowest untreated
    non-multiplicative prolongation, reduces it unless the criterion fires
    and inserts a nonzero result, after which ``_autoreduce_with_new``
    keeps the set involutively autoreduced.  The cap bounds the number of
    executed normal-form reductions.
    """
    run = _Completion(division, ordering, cap, check_criterion, log)
    run.reset(map(run.fresh, autoreduce(_prepare(F, ordering))))
    return run.complete(lambda t, lm: _autoreduce_with_new(run, run.insert(t)))


def _autoreduce_with_new(run: _Completion, pos: int) -> None:
    """Keep the members involutively autoreduced after the one at pos joined.

    The new member is itself reduced, and the partitions of the old members
    can only shrink, so only reductions by the new member can appear, and
    only of members above it: a term in its cone is divisible by its
    leading monomial.  When there is none the set stands as it is;
    otherwise it is autoreduced and its bookkeeping rebuilt, with the table
    that the interreduction's last round computed.  The members are monic
    with distinct leading monomials, so ``involutive_autoreduce``'s
    normalisation of its input would leave them as they are.
    """
    t = run.triples[pos]
    exps, mult = t.poly.lm.exps, run.table[t.poly.lm]
    if not any(_inv_divides(exps, m.exps, mult) for u in run.triples[pos + 1:] for m, _ in u.poly.terms):
        # a rebuild would be the identity: no member left and every
        # ancestor is a member leading monomial, its own unique cover
        return
    reduced, table = _interreduce([u.poly for u in run.triples], run.ordering, lambda lms: multiplicative_table(run.division, lms))
    triples = _rebuild(reduced, run.triples, table, run.counter)
    if not triples:
        raise RuntimeError("basis vanished during autoreduction")
    run.reset(triples, table)


def _rebuild(
    new_polys: Sequence[Polynomial],
    queue: Sequence[Triple],
    table: dict[Monomial, frozenset[int]],
    counter,
) -> list[Triple]:
    """Reattach triple bookkeeping to a just-autoreduced basis.

    A member keeps the age, and so the examined prolongations, of the old
    triple with the same leading monomial; its ancestor is remapped to the
    leading monomial of the unique member involutively covering it, or
    reset to its own when the old ancestor is no longer covered.  A new
    leading monomial takes a new age, in the order of ``new_polys``, which
    the interreduction returns ascending.  ``table`` holds the partitions of
    the new leading-monomial set.
    """
    lm_set = {p.lm for p in new_polys}
    by_lm: dict[Monomial, Triple] = {}
    for q in queue:
        # distinct leading monomials are an invariant of the caller
        by_lm.setdefault(q.poly.lm, q)
    out = []
    for g in new_polys:
        q = by_lm.get(g.lm)
        if q is None:
            out.append(Triple(g, g.lm, next(counter)))
            continue
        if q.ancestor in lm_set:
            # on an involutively autoreduced set a member's only
            # involutive cover is itself
            out.append(Triple(g, q.ancestor, q.age))
            continue
        covers = [p for p in new_polys if _inv_divides(p.lm.exps, q.ancestor.exps, table[p.lm])]
        if len(covers) > 1:
            raise RuntimeError("involutive cones overlap on an autoreduced set")
        ancestor = covers[0].lm if covers else g.lm
        out.append(Triple(g, ancestor, q.age))
    return out


def minimal_involutive_basis(
    F: Iterable[Polynomial],
    division: Division,
    ordering: Ordering,
    cap: int = 20000,
    *,
    check_criterion: bool = False,
    log: Optional[list[str]] = None,
) -> BasisResult:
    """Complete F to the minimal involutive basis (two-queue strategy).

    Only the lowest member of F starts in the intermediate set; the rest
    wait in the pending queue.  Queued elements and prolongations of the
    set are examined together, lowest leading monomial first, and the set
    only ever grows at the top: whenever a reduced element lands below
    existing leading monomials, everything above it is demoted back to the
    queue and reconsidered later (``_Completion.demote_above``).  The cap
    bounds the number of executed normal-form reductions.
    """
    run = _Completion(division, ordering, cap, check_criterion, log)
    first, *rest = map(run.fresh, autoreduce(_prepare(F, ordering)))
    run.reset([first])
    run.enqueue(rest)
    return run.complete(run.demote_above)


def verify_involutive(
    G: Iterable[Polynomial],
    division: Division,
    ordering: Ordering,
    mode: str = "local",
    degree_bound: int = 3,
) -> VerifyResult:
    """Verify that G is an involutive basis.

    ``local`` checks every non-multiplicative prolongation; ``global``
    additionally reduces f times every monomial multiplier up to
    ``degree_bound``.  The set must be involutively autoreduced first.
    """
    if mode not in ("local", "global"):
        raise ValueError(f"unknown mode {mode!r}")
    if degree_bound < 0:
        raise ValueError("the degree bound must be non-negative")
    polys = [p.with_ordering(ordering).monic() for p in G if not p.is_zero]
    if not polys:
        return VerifyResult(False, reason="empty basis")
    if len({p.lm for p in polys}) != len(polys):
        return VerifyResult(False, reason="not involutively autoreduced: duplicate leading monomials")
    table = multiplicative_table(division, [p.lm for p in polys])
    reducers = _Reducers(polys, table, ordering)
    for f in polys:
        # f is reduced modulo the others when no term of it has an
        # involutive divisor but f itself; a lower divisor of lm(f) is found
        # before f, and f divides none of its lower terms
        for m, _ in f.terms:
            g = reducers.find(m.exps)
            if g is not None and g is not f:
                return VerifyResult(False, reason="not involutively autoreduced", witness=(f,))
    n = polys[0].ctx.n
    failing = []
    for f in polys:
        for x in range(n):
            if x in table[f.lm]:
                continue
            if not _nf(f.mul_var(x), reducers).is_zero:
                failing.append((f, x))
    if failing:
        f, x = min(failing, key=lambda p: (ordering.key(p[0].lm.mul_var(p[1])), ordering.key(p[0].lm)))
        return VerifyResult(False, reason="uncovered non-multiplicative prolongation", witness=(f, x))
    if mode == "global":
        ctx = polys[0].ctx
        for u in monomials_up_to_degree(ctx, degree_bound):
            for f in polys:
                if not _nf(f.mul_term(Fraction(1), u), reducers).is_zero:
                    return VerifyResult(False, reason="uncovered multiple", witness=(f, u))
    return VerifyResult(True)


def verify_groebner(G: Iterable[Polynomial], ordering: Ordering) -> bool:
    """Buchberger's test: every S-polynomial reduces to zero modulo G.

    Only the pairs that the oracle's critical-pair stream yields are
    reduced; the stream drops a pair whose leading monomials are coprime,
    or that the chain criterion covers by pairs popped before it.  The
    answer is that of the test on all pairs, for every input, autoreduced
    or not, duplicate leading monomials included.  By induction on the
    order in which the pairs are popped, each popped pair S(i, j) has a
    representation in G with every term below its lcm w:

    - a reduced pair, because its normal form is zero;
    - a coprime pair, by Buchberger's first criterion;
    - a chain pair, with lm_k dividing w and (i, k) and (j, k) popped
      before it, by the identity S(i, j) = (w/w_ik) S(i, k) - (w/w_jk)
      S(j, k), where w_ik and w_jk divide w, and those two pairs'
      representations.

    So when every yielded pair reduces to zero, every S-polynomial has a
    representation below its lcm and G is a Groebner basis, on which every
    S-polynomial reduces to zero; a yielded pair with a nonzero normal form
    fails the all-pairs test too.
    """
    polys = _coerce(G, ordering)
    if not polys:
        return False
    reducers = _Reducers(polys, _all_variables(p.lm for p in polys), ordering)
    return next(_s_remainders(polys, reducers), None) is None


def nf_equality_check(p: Polynomial, G: Sequence[Polynomial], division: Division, ordering: Ordering) -> bool:
    """On an involutive basis the involutive and conventional normal forms
    agree; this is the per-probe equality test."""
    inv = involutive_normal_form(p, G, division, ordering)
    conv = normal_form(p.with_ordering(ordering), [g.with_ordering(ordering) for g in G])
    return inv == conv
