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
the divisor index ``index._Reducers`` of the members, which holds their
partitions, a heap of pending prolongations whose entries carry their
member, and the set of prolongations already examined, all updated per
insertion.  Every monomial of that bookkeeping is one packed int of the
run's ``monomials.Packing``: a prolongation is its member with a packed
shift, ranked by the packed product, and reaches the kernel without a
``Monomial``.  ``divisions.grow_table`` updates the partitions in the
index's table from the new member's pairs with the older members alone,
the index takes the new member and narrows the older members that lost a
multiplicative variable, and the members' positions
are the index's.  After an insertion only the new member can reduce
another, so each member above it is tested against that one leading
monomial; a member whose tail reduces is rewritten in place, and the
table, the index keys, the ages, the ancestors and the heap keys stand.
Only an insertion that reduces an old member's leading monomial, or a
demotion, rebuilds the rest; a rebuild after an autoreduction adopts the
index of the interreduction's last round.  Every other involutive-divisor
question of the bookkeeping is one lookup in the index: which member
holds a candidate in its cone, which member covers a kept ancestor after
a rebuild, and whether a member of a set to verify reduces
(``polynomials._reducible``).

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
from typing import Callable, Iterable, Optional, Sequence

from .divisions import Division, grow_table, multiplicative_table
from .index import _Reducers
from .monomials import ContextMismatch, Monomial, Ordering, Packing, _widening, monomials_up_to_degree
from .polynomials import Polynomial, _coerce, _index_of, _interreduce, _nf, _packed, _reducible, _s_remainders, autoreduce, normal_form


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


@_widening
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
    collects (reducer, multiplier, coefficient) steps.  p and F must share
    one variable context, as in ``normal_form``.
    """
    p = p.with_ordering(ordering)
    reducers = _index_of(p, (f.with_ordering(ordering) for f in F), lambda lms: multiplicative_table(division, lms))
    # the steps reach the caller's trace only from a run that finishes, so
    # a run that ``_widening`` repeats traces once
    steps = None if trace is None else []
    r = _nf(p, reducers, steps)
    if steps:
        trace += steps
    return r


@_widening
def involutive_autoreduce(F: Iterable[Polynomial], division: Division, ordering: Ordering) -> tuple[Polynomial, ...]:
    """Involutive analogue of autoreduction: reduce every member modulo the
    others until stable, with partitions always taken over the full current
    leading-monomial set."""
    polys = list(dict.fromkeys(p.with_ordering(ordering).monic() for p in F if not p.is_zero))
    if not polys:
        return ()
    return _interreduce(polys, ordering.packing(polys[0].ctx.n), lambda lms: multiplicative_table(division, lms))[0]


@_widening
def criterion(g: Polynomial, u: Monomial, T: Iterable[Triple], division: Division, ordering: Ordering) -> bool:
    """True when the tracked (f, v) whose lm(f) involutively divides lm(g)
    has lcm(u, v) strictly below lm(g); such a prolongation reduces to 0.

    The leading monomials of T must be involutively autoreduced: their
    involutive cones are then disjoint, so lm(g) has at most one involutive
    divisor among them, the one the divisor lookup returns.  Leading
    monomials are taken under ``ordering``, as in ``involutive_normal_form``.
    """
    triples = list(T)
    if any(m.ctx != g.ctx for m in [u, *(t.ancestor for t in triples)]):
        raise ContextMismatch("ancestors from a different variable context")
    g = g.with_ordering(ordering)
    polys = [t.poly.with_ordering(ordering) for t in triples]
    reducers = _index_of(g, polys, lambda lms: multiplicative_table(division, lms))
    w = reducers.packing.pack(g.lm.exps)
    f = reducers.find(w)
    return f is not None and _criterion_holds(w, u, next(t.ancestor for t, p in zip(triples, polys) if p is f), reducers.packing)


def _criterion_holds(w: int, ancestor: Monomial, divisor_ancestor: Monomial, packing: Packing) -> bool:
    """The ancestor test against the involutive divisor of the packed
    leading monomial w."""
    return packing.pack(tuple(map(max, ancestor.exps, divisor_ancestor.exps))) < w


class _CapReached(Exception):
    """The cap on executed normal-form reductions stops the run."""


class _Completion:
    """One completion run: the intermediate set, the pending queue and their
    bookkeeping, every monomial in them packed by ``packing``.

    ``triples`` holds the members ascending by leading monomial, in the
    order of ``reducers``, their divisor index, whose ``keys`` locate a
    member and whose ``table`` is the multiplicative table of their leading
    monomials.  ``examined`` holds the (age, x) of every prolongation
    taken.  ``heap`` holds the pending non-multiplicative
    prolongations as (packed lm·x, age, x, member); (lm·x, age, x) is
    unique, so the member is never compared.  A member whose tail is
    rewritten in place keeps its leading monomial, age and ancestor, and
    its new triple is swapped into its entries under the same keys.  No
    entry goes stale between two resets: the member set only grows, so no
    member leaves; partitions
    only shrink as the set grows (axiom (d)), so x stays non-multiplicative;
    and an entry is pushed only for an (age, x) not yet examined, when x is
    or becomes non-multiplicative, which happens once.  So the top is the
    prolongation a scan over every (member, variable) pair would choose.
    ``queue`` holds the elements waiting to join the set, ranked by (packed
    lm, age).  ``insert`` updates the bookkeeping for one new member;
    ``reset`` rebuilds it for a changed member set.  ``log`` collects the
    lines that ``complete`` hands to the caller's list, so a run that
    ``_widening`` repeats logs once.  ``start`` holds a fresh triple for each
    member of the autoreduced input F.
    """

    def __init__(self, F: Iterable[Polynomial], division: Division, ordering: Ordering, cap: int, check_criterion: bool, log):
        if cap < 0:
            raise ValueError("the cap must be non-negative")
        polys = _coerce(F, ordering)
        if not polys:
            raise ValueError("need at least one nonzero polynomial")
        self.division = division
        self.ordering = ordering
        self.packing = ordering.packing(polys[0].ctx.n)
        self.cap = cap
        self.check_criterion = check_criterion
        self.out = log
        self.log = None if log is None else []
        self.stats = BasisStats()
        self.counter = itertools.count()
        self.start = [Triple(g, g.lm, next(self.counter)) for g in autoreduce(polys)]
        self.queue: list[tuple] = []
        self.examined: set[tuple[int, int]] = set()

    def _lead(self, p: Polynomial) -> int:
        return _packed(p, self.packing)[1]

    def enqueue(self, triples: Iterable[Triple]) -> None:
        self.queue += [(self._lead(t.poly), t.age, t) for t in triples]
        heapq.heapify(self.queue)

    def reset(self, triples: Iterable[Triple], reducers: Optional[_Reducers] = None) -> None:
        """Rebuild the bookkeeping for the members ``triples``; ``reducers``,
        when given, is the divisor index of their polynomials, in ascending
        order, with the multiplicative table of their leading monomials."""
        self.triples = sorted(triples, key=lambda t: self._lead(t.poly))
        if reducers is None:
            table = multiplicative_table(self.division, [t.poly.lm for t in self.triples])
            reducers = _Reducers([t.poly for t in self.triples], table, self.packing)
        self.reducers = reducers
        self.heap = [entry for t in self.triples for entry in self._entries(t, reducers.nonmultiplicative(t.poly.lm))]
        heapq.heapify(self.heap)

    def _member(self, f: Polynomial) -> Triple:
        return self.triples[bisect.bisect_left(self.reducers.keys, self._lead(f))]

    def _entries(self, t: Triple, xs: Iterable[int]) -> list[tuple]:
        """Heap entries for the prolongations of t by the variables xs that
        are not examined yet."""
        lead, mul, units = self._lead(t.poly), self.packing.mul, self.packing.units
        return [(mul(lead, units[x]), t.age, x, t) for x in xs if (t.age, x) not in self.examined]

    def insert(self, t: Triple) -> int:
        """Add a member with a new leading monomial; return its position."""
        lm = t.poly.lm
        lost = grow_table(self.division, self.reducers.table, lm)
        pos = self.reducers.insert(self._lead(t.poly), lm, t.poly)
        self.triples.insert(pos, t)
        entries = self._entries(t, self.reducers.nonmultiplicative(lm))
        # variables that left a member's multiplicative set leave it in the
        # index too, and become pending prolongations
        for v, first in self.reducers.narrow(lost).items():
            entries += self._entries(self.triples[first], lost[v])
        for entry in entries:
            heapq.heappush(self.heap, entry)
        return pos

    def next(self) -> Optional[tuple[Polynomial, int, int, Monomial, bool]]:
        """Take the lowest candidate as (polynomial, packed multiplier, packed
        leading monomial of their product, ancestor, queued), or None when
        none is left.

        A queued element comes before a prolongation with the same leading
        monomial: a lower prolongation may contribute a lower cone.  A
        prolongation taken is added to ``examined`` and counted.
        """
        heap = self.heap
        if self.queue and not (heap and heap[0][0] < self.queue[0][0]):
            w, _, q = heapq.heappop(self.queue)
            return q.poly, 0, w, q.ancestor, True
        if not heap:
            return None
        w, age, x, t = heapq.heappop(heap)
        self.examined.add((age, x))
        self.stats.prolongations_examined += 1
        return t.poly, self.packing.units[x], w, t.ancestor, False

    def examine(self, g: Polynomial, shift: int, w: int, ancestor: Monomial, queued: bool) -> Optional[Polynomial]:
        """Skip the candidate g times the packed monomial shift, whose
        packed leading monomial is w, by the criterion, or reduce it; return
        its monic normal form when that is nonzero.

        The members are involutively autoreduced, so their involutive cones
        are disjoint and the divisor the reducers find for w is the only
        member the criterion could accept.  Raises ``_CapReached`` instead of
        a reduction beyond the cap.
        """
        stats, log = self.stats, self.log
        lm = None if log is None else Monomial(g.ctx, self.packing.unpack(w))
        f = self.reducers.find(w)
        if f is not None:
            if _criterion_holds(w, ancestor, self._member(f).ancestor, self.packing):
                stats.criterion_hits += 1
                if log is not None:
                    log.append(f"skip queued {lm} by criterion" if queued else f"skip {lm} by criterion")
                if self.check_criterion:
                    stats.criterion_checked += 1
                    if not _nf(g, self.reducers, shift=shift).is_zero:
                        stats.criterion_violations += 1
                return None
        if stats.zero_reductions + stats.nonzero_reductions >= self.cap:
            raise _CapReached
        r = _nf(g, self.reducers, shift=shift)
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

    def complete(self, place: Callable[[Triple, int], None]) -> BasisResult:
        """Examine the candidates lowest first until none is left or the cap
        is reached; ``place`` adds the member made from a nonzero normal form
        of a candidate with the given packed leading monomial."""
        status = "complete"
        try:
            while (candidate := self.next()) is not None:
                h = self.examine(*candidate)
                if h is not None:
                    # a normal form with a lower leading monomial starts a
                    # lineage of its own
                    w, ancestor = candidate[2:4]
                    place(Triple(h, ancestor if self._lead(h) == w else h.lm, next(self.counter)), w)
        except _CapReached:
            status = "cap_exceeded"
        if self.log:
            self.out += self.log
        basis = tuple(t.poly.monic() for t in self.triples)
        return BasisResult(basis, status, self.division, self.ordering, self.stats)

    def demote_above(self, t: Triple, w: int) -> None:
        """The minimal algorithm's policy: the set only grows at the top.

        When t's leading monomial fell below the packed w and below
        members, those members go back to the queue.  Every such
        contraction clears the examined prolongations: a contraction can
        remove the very cone that justified an earlier examination, and
        those made after it face only a growing set again, where handled
        stays handled.  A queued element rejoins the set under a new age, so
        it carries no marks.
        """
        if self._lead(t.poly) != w:
            cut = bisect.bisect_right(self.reducers.keys, self._lead(t.poly))
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


@_widening
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
    executed normal-form reductions; a negative one is a ValueError.
    """
    run = _Completion(F, division, ordering, cap, check_criterion, log)
    run.reset(run.start)
    return run.complete(lambda t, w: _autoreduce_with_new(run, run.insert(t)))


def _autoreduce_with_new(run: _Completion, pos: int) -> None:
    """Keep the members involutively autoreduced after the one at pos joined.

    Only the new member h can reduce a member, and only a member above it.
    The members were autoreduced before h joined, and h's insertion only
    shrinks the old members' partitions (axiom (d)), so no old member
    involutively divides a term it did not divide before; h, a normal form
    modulo the old members, stays irreducible under their smaller
    partitions; and every term of a member below h is below lm(h), which
    divides none of them.  So a member above h is tested by one
    involutive-divisibility test of each of its terms by lm(h): a
    subtraction with the guard mask, and h's non-multiplicative mask.

    The sweep visits the members above h ascending, the order of one round
    of ``_interreduce``.  When lm(h) divides only tail terms of a member,
    the member's normal form modulo the others keeps its leading term, so
    it is rewritten in place: popped from the index, reduced, made monic
    and put back under the same key.  The set of leading monomials stands,
    and with it the table, which depends on nothing else, the index keys
    and masks, the involutive cones and so every ancestor's cover, the
    ages, the ancestors, the examined prolongations and every heap key
    (w, age, x).  The new triple, with the old age and ancestor, replaces
    the old one in ``triples`` and in the member's heap entries, whose
    keys, and so the heap order, stay.  A rewritten member is irreducible,
    and a rewrite changes no other member's reducibility, which depends on
    the leading monomials and the table alone, so the members the sweep
    has passed stay irreducible: the sweep leaves the set the round would.

    When lm(h) divides a member's leading monomial, that member drops to
    zero or takes a new, lower leading monomial, and the table changes.
    The set, with the rewrites made so far, is then autoreduced by
    ``_interreduce`` with the division's table, and its bookkeeping
    rebuilt on the divisor index of the interreduction's last round and
    the table it holds.  The interreduction's first round passes the
    members below that one as irreducible and rewrites it first, so the
    result is that of the full interreduction of the set h joined.  The
    lowest member's leading monomial has no other divisor, so the set
    never empties.  The members are monic with distinct leading monomials,
    so ``involutive_autoreduce``'s normalisation of its input would leave
    them as they are.
    """
    reducers, triples = run.reducers, run.triples
    k, mask, _ = reducers.items[pos]
    guard = reducers.guard
    swapped = {}
    for i in range(pos + 1, len(triples)):
        t = triples[i]
        _, lead, _, tail, _ = _packed(t.poly, run.packing)
        if _divides(k, mask, guard, lead):
            reducers = _interreduce([u.poly for u in triples], run.packing, lambda lms: multiplicative_table(run.division, lms))[1]
            run.reset(_rebuild(reducers, triples, run.counter), reducers)
            return
        if any(_divides(k, mask, guard, lead + u) for u, _ in tail):
            reducers.pop(i)
            g = _nf(t.poly, reducers).monic()
            reducers.insert(lead, g.lm, g)
            triples[i] = swapped[t.age] = Triple(g, t.ancestor, t.age)
    if swapped:
        # the keys stay, so the list stays a heap
        run.heap = [e if e[1] not in swapped else (*e[:3], swapped[e[1]]) for e in run.heap]


def _divides(k: int, mask: int, guard: int, w: int) -> bool:
    """The packed monomial k, with the mask of its non-multiplicative
    exponent fields, involutively divides the packed monomial w."""
    return not (w - k) & guard and not (w ^ k) & mask


def _rebuild(reducers: _Reducers, old: Sequence[Triple], counter) -> list[Triple]:
    """Reattach triple bookkeeping to the members of ``reducers``, the
    divisor index of a just-autoreduced basis, ascending.

    A member keeps the age, and so the examined prolongations, of the old
    triple with the same leading monomial; its ancestor is remapped to the
    leading monomial of the member the index finds as its involutive
    divisor, or reset to its own when the index finds none.  The members'
    involutive cones are disjoint (axiom (b) on an autoreduced set), so
    that divisor is the ancestor's only cover.  A new leading monomial
    takes a new age, in ascending order.  The old leading monomials are
    distinct, an invariant of the caller.
    """
    by_lm = {q.poly.lm: q for q in old}
    out = []
    for _, _, g in reducers.items:
        q = by_lm.get(g.lm)
        if q is None:
            out.append(Triple(g, g.lm, next(counter)))
            continue
        cover = reducers.find(reducers.packing.pack(q.ancestor.exps))
        out.append(Triple(g, g.lm if cover is None else cover.lm, q.age))
    return out


@_widening
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
    bounds the number of executed normal-form reductions; a negative one is
    a ValueError.
    """
    run = _Completion(F, division, ordering, cap, check_criterion, log)
    first, *rest = run.start
    run.reset([first])
    run.enqueue(rest)
    return run.complete(run.demote_above)


@_widening
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
    packing = ordering.packing(polys[0].ctx.n)
    reducers = _Reducers(polys, table, packing)
    prolongations = []
    for f in polys:
        if _reducible(f, reducers):
            return VerifyResult(False, reason="not involutively autoreduced", witness=(f,))
        lead = _packed(f, packing)[1]
        prolongations += [(packing.mul(lead, packing.units[x]), lead, x, f) for x in reducers.nonmultiplicative(f.lm)]
    # the lowest failing prolongation, ties by the lower member, is the
    # witness; (product, member) is unique, so f is never compared
    for _, _, x, f in sorted(prolongations):
        if not _nf(f, reducers, shift=packing.units[x]).is_zero:
            return VerifyResult(False, reason="uncovered non-multiplicative prolongation", witness=(f, x))
    if mode == "global":
        ctx = polys[0].ctx
        for u in monomials_up_to_degree(ctx, degree_bound):
            for f in polys:
                if not _nf(f, reducers, shift=packing.pack(u.exps)).is_zero:
                    return VerifyResult(False, reason="uncovered multiple", witness=(f, u))
    return VerifyResult(True)


@_widening
def verify_groebner(G: Iterable[Polynomial], ordering: Ordering) -> bool:
    """Buchberger's test: every S-polynomial reduces to zero modulo G.

    Only the pairs that the oracle's critical-pair stream yields are
    reduced; the stream drops the others by Gebauer and Moeller's update
    when a leading monomial joins.  The answer is that of the test on all
    pairs, for every input, autoreduced or not, duplicate leading
    monomials included.  A pair (i, j) with lcm w has a representation in
    G with every term below w when (i, k) and (j, k) have one below their
    lcms, for a k whose pairs with i and j have lcms w_ik and w_jk dividing
    w, by the identity S(i, j) = (w/w_ik) S(i, k) - (w/w_jk) S(j, k).  By
    induction on w, and for one w on the order in which the pairs were
    formed, every pair has one:

    - a yielded pair, because its normal form is zero;
    - a coprime pair, by Buchberger's first criterion;
    - a pair (a, b) that B_k drops when member k joins, through k: the
      lcms of (a, k) and (b, k) divide w and differ from it, so they are
      lower;
    - a new pair (i, k) that M or F drops for a kept new pair (l, k) whose
      lcm divides w, through l: the kept pair's lcm is lower (M), or it
      equals w and the kept pair is yielded, coprime or dropped by B_k
      (F), and (i, l), formed earlier, has an lcm dividing w.

    So when every yielded pair reduces to zero, every S-polynomial has a
    representation below its lcm and G is a Groebner basis, on which every
    S-polynomial reduces to zero; a yielded pair with a nonzero normal form
    fails the all-pairs test too.
    """
    polys = _coerce(G, ordering)
    if not polys:
        return False
    reducers = _Reducers(polys, None, ordering.packing(polys[0].ctx.n))
    return next(_s_remainders(polys, reducers), None) is None


def nf_equality_check(p: Polynomial, G: Sequence[Polynomial], division: Division, ordering: Ordering) -> bool:
    """On an involutive basis the involutive and conventional normal forms
    agree; this is the per-probe equality test."""
    inv = involutive_normal_form(p, G, division, ordering)
    conv = normal_form(p.with_ordering(ordering), [g.with_ordering(ordering) for g in G])
    return inv == conv
