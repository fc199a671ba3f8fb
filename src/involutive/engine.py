"""Involutive bases of polynomial ideals.

Two completion algorithms are provided.  ``involutive_basis`` keeps the
whole basis involutively autoreduced after every insertion.
``minimal_involutive_basis`` instead runs two queues: an intermediate set
whose prolongations are being examined, and a pending queue of displaced
elements; whenever a freshly reduced element undercuts the leading
monomials of the intermediate set, the higher elements are demoted back to
the queue.  For a constructive noetherian division the second algorithm
returns the unique minimal involutive basis of the ideal.

Both share one piece of bookkeeping, ``_Completion``: the members in
ascending order of leading monomials, their partitions, the reducers and a
heap of pending prolongations, all updated per insertion.  Only an
insertion that reduces an old member, or a demotion, rebuilds them.

Both algorithms prune prolongations with the ancestor criterion: a
prolongation whose leading monomial has an involutive divisor among the
tracked elements, with the two ancestors' lcm strictly below it, reduces to
zero and is skipped.  A test mode re-checks every skip by full reduction.

Reduction and interreduction use the kernel of ``polynomials`` with the
division's multiplicative table; ``buchberger``, the oracle the results
are checked against, uses no division or completion code.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .divisions import Division, _inv_divides, multiplicative_table
from .monomials import Monomial, Ordering, monomials_up_to_degree
from .polynomials import Polynomial, _all_variables, _coerce, _interreduce, _nf, _Reducers, autoreduce, normal_form, s_polynomial


@dataclass(frozen=True, slots=True)
class Triple:
    """A basis member with its prolongation bookkeeping.

    ``ancestor`` is the leading monomial of the element this one descends
    from by non-multiplicative prolongations (its own when fresh);
    ``processed`` holds the variable positions already examined.  ``age``
    is an insertion counter used only to break selection ties.
    """

    poly: Polynomial
    ancestor: Monomial
    processed: frozenset[int]
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
    return _interreduce(polys, ordering, lambda lms: multiplicative_table(division, lms))


def criterion(g: Polynomial, u: Monomial, T: Iterable[Triple], division: Division, ordering: Ordering) -> bool:
    """True when some tracked (f, v) has lm(f) involutively dividing lm(g)
    with lcm(u, v) strictly below lm(g); such a prolongation reduces to 0."""
    triples = list(T)
    if not triples:
        return False
    table = multiplicative_table(division, [t.poly.lm for t in triples])
    return _criterion_holds(g.lm, u, triples, table, ordering)


def _criterion_holds(
    prol_lm: Monomial,
    ancestor: Monomial,
    triples: Sequence[Triple],
    table: dict[Monomial, frozenset[int]],
    ordering: Ordering,
) -> bool:
    bound = ordering.key(prol_lm)
    for t in triples:
        f_lm = t.poly.lm
        if _inv_divides(f_lm.exps, prol_lm.exps, table[f_lm]):
            if ordering.key(ancestor.lcm(t.ancestor)) < bound:
                return True
    return False


class _CapReached(Exception):
    """The cap on executed normal-form reductions stops the run."""


class _Completion:
    """One completion run: the tracked members and their bookkeeping.

    Members are kept ascending by leading monomial with their ordering keys
    cached, next to the multiplicative table of their leading monomials and
    the matching reducers.  ``heap`` holds the pending non-multiplicative
    prolongations ranked by (key of lm·x, age, x).  An entry is dropped when
    it reaches the top if its member is gone, x has become multiplicative
    or x is already processed, so the top is the prolongation a scan over
    every (member, variable) pair would choose.  ``insert`` updates all of
    it for one new member; ``reset`` rebuilds it for a changed member set.
    """

    def __init__(self, division: Division, ordering: Ordering, cap: int, check_criterion: bool, log):
        self.division = division
        self.ordering = ordering
        self.cap = cap
        self.check_criterion = check_criterion
        self.log = log
        self.stats = BasisStats()
        self.counter = itertools.count()

    def fresh(self, g: Polynomial) -> Triple:
        return Triple(g, g.lm, frozenset(), next(self.counter))

    def reset(self, triples: Iterable[Triple]) -> None:
        key = self.ordering.key
        self.triples = sorted(triples, key=lambda t: key(t.poly.lm))
        self.keys = [key(t.poly.lm) for t in self.triples]
        self.table = multiplicative_table(self.division, [t.poly.lm for t in self.triples])
        self.reducers = _Reducers([t.poly for t in self.triples], self.table, self.ordering, presorted=True)
        self.heap = []
        for t, k in zip(self.triples, self.keys):
            self.heap += self._entries(t, k, self._open(t))
        heapq.heapify(self.heap)

    def _open(self, t: Triple) -> list[int]:
        mult = self.table[t.poly.lm]
        return [x for x in range(t.poly.ctx.n) if x not in mult and x not in t.processed]

    def _entries(self, t: Triple, lm_key: tuple, xs: Iterable[int]) -> list[tuple]:
        lm, key = t.poly.lm, self.ordering.key
        return [(key(lm.mul_var(x)), t.age, x, lm_key) for x in xs]

    def insert(self, t: Triple) -> int:
        """Add a member with a new leading monomial; return its position."""
        lm = t.poly.lm
        k = self.ordering.key(lm)
        pos = bisect.bisect_left(self.keys, k)
        self.keys.insert(pos, k)
        self.triples.insert(pos, t)
        if self.division.globally_defined:
            # a member's partition does not depend on the rest of the set
            self.table[lm] = multiplicative_table(self.division, [lm])[lm]
            self.reducers.items.insert(pos, (lm.exps, self.table[lm], t.poly))
        else:
            old = self.table
            self.table = multiplicative_table(self.division, [u.poly.lm for u in self.triples])
            self.reducers = _Reducers([u.poly for u in self.triples], self.table, self.ordering, presorted=True)
            for u, uk in zip(self.triples, self.keys):
                if u is not t:
                    # variables that left a member's multiplicative set
                    # become pending prolongations
                    for entry in self._entries(u, uk, old[u.poly.lm] - self.table[u.poly.lm] - u.processed):
                        heapq.heappush(self.heap, entry)
        for entry in self._entries(t, k, self._open(t)):
            heapq.heappush(self.heap, entry)
        return pos

    def lowest(self) -> Optional[tuple]:
        """Key of the lowest pending prolongation, or None when none is left."""
        heap = self.heap
        while heap:
            pk, age, x, lm_key = heap[0]
            pos = bisect.bisect_left(self.keys, lm_key)
            if pos < len(self.keys) and self.keys[pos] == lm_key:
                t = self.triples[pos]
                if t.age == age and x not in self.table[t.poly.lm] and x not in t.processed:
                    return pk
            heapq.heappop(heap)
        return None

    def take(self) -> tuple[Triple, int, Monomial]:
        """Mark the prolongation found by ``lowest`` processed, count it as
        examined and return its member (as it was before the mark), variable
        and product."""
        _, _, x, lm_key = heapq.heappop(self.heap)
        pos = bisect.bisect_left(self.keys, lm_key)
        t = self.triples[pos]
        self.triples[pos] = replace(t, processed=t.processed | {x})
        self.stats.prolongations_examined += 1
        return t, x, t.poly.lm.mul_var(x)

    def examine(self, g: Polynomial, lm: Monomial, ancestor: Monomial, queued: bool = False) -> Optional[Polynomial]:
        """Skip the candidate g with leading monomial lm by the criterion, or
        reduce it; return its monic normal form when that is nonzero.

        Members above lm cannot divide it, so the criterion looks only at
        the ones below.  Raises ``_CapReached`` instead of a reduction
        beyond the cap.
        """
        stats, log = self.stats, self.log
        below = self.triples[: bisect.bisect_right(self.keys, self.ordering.key(lm))]
        if _criterion_holds(lm, ancestor, below, self.table, self.ordering):
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

    def result(self, status: str) -> BasisResult:
        basis = tuple(t.poly.monic() for t in self.triples)
        return BasisResult(basis, status, self.division, self.ordering, self.stats)


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

    Every round takes the lowest untreated non-multiplicative prolongation,
    reduces it unless the criterion fires and inserts a nonzero result.
    When the new element reduces nothing else, the members, partitions,
    reducers and pending prolongations are updated in place; otherwise the
    set is involutively autoreduced and its bookkeeping rebuilt.  The cap
    bounds the number of executed normal-form reductions.
    """
    run = _Completion(division, ordering, cap, check_criterion, log)
    run.reset(run.fresh(g) for g in autoreduce(_prepare(F, ordering)))
    status = "complete"
    try:
        while run.lowest() is not None:
            t, x, prod = run.take()
            h = run.examine(t.poly.mul_var(x), prod, t.ancestor)
            if h is None:
                continue
            ancestor = t.ancestor if h.lm == prod else h.lm
            _autoreduce_with_new(run, run.insert(Triple(h, ancestor, frozenset(), next(run.counter))))
    except _CapReached:
        status = "cap_exceeded"
    return run.result(status)


def _autoreduce_with_new(run: _Completion, pos: int) -> None:
    """Keep the members involutively autoreduced after the one at pos joined.

    The new member is itself reduced, and the partitions of the old members
    can only shrink, so only reductions by the new member can appear, and
    only of members above it: a term in its cone is divisible by its
    leading monomial.  When there is none the set stands as it is;
    otherwise it is autoreduced and its bookkeeping rebuilt.
    """
    t = run.triples[pos]
    exps, mult = t.poly.lm.exps, run.table[t.poly.lm]
    if not any(_inv_divides(exps, m.exps, mult) for u in run.triples[pos + 1:] for m, _ in u.poly.terms):
        # a rebuild would be the identity: no member left and every
        # ancestor is a member leading monomial, its own unique cover
        return
    reduced = involutive_autoreduce([u.poly for u in run.triples], run.division, run.ordering)
    table = multiplicative_table(run.division, [p.lm for p in reduced])
    triples = _rebuild(reduced, run.triples, table, run.ordering, run.counter)
    if not triples:
        raise RuntimeError("basis vanished during autoreduction")
    run.reset(triples)


def _rebuild(
    new_polys: Sequence[Polynomial],
    queue: Sequence[Triple],
    table: dict[Monomial, frozenset[int]],
    ordering: Ordering,
    counter,
) -> list[Triple]:
    """Reattach triple bookkeeping to a just-autoreduced basis.

    A member keeps the processed set of the old triple with the same
    leading monomial; its ancestor is remapped to the leading monomial of
    the unique member involutively covering it, or reset to its own when
    the old ancestor is no longer covered.  ``table`` holds the partitions
    of the new leading-monomial set.
    """
    lm_set = {p.lm for p in new_polys}
    by_lm: dict[Monomial, Triple] = {}
    for q in queue:
        # distinct leading monomials are an invariant of the caller
        by_lm.setdefault(q.poly.lm, q)
    out = []
    for g in sorted(new_polys, key=lambda p: ordering.key(p.lm)):
        q = by_lm.get(g.lm)
        if q is None:
            out.append(Triple(g, g.lm, frozenset(), next(counter)))
            continue
        if q.ancestor in lm_set:
            # on an involutively autoreduced set a member's only
            # involutive cover is itself
            out.append(Triple(g, q.ancestor, q.processed, q.age))
            continue
        covers = [p for p in new_polys if _inv_divides(p.lm.exps, q.ancestor.exps, table[p.lm])]
        if len(covers) > 1:
            raise RuntimeError("involutive cones overlap on an autoreduced set")
        ancestor = covers[0].lm if covers else g.lm
        out.append(Triple(g, ancestor, q.processed, q.age))
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

    Queued elements and prolongations of the intermediate set are examined
    together, lowest leading monomial first.  The intermediate set only
    ever grows at the top: whenever a reduced element lands below existing
    leading monomials, everything above it is demoted back to the pending
    queue and reconsidered later.  Every such
    contraction resets all processed-variable marks, demoted and kept
    alike; a mark certifies a prolongation only against sets the basis has
    grown from, never across a shrink.  The cap bounds the number of
    executed normal-form reductions across both loops.
    """
    run = _Completion(division, ordering, cap, check_criterion, log)
    key = ordering.key
    start = list(autoreduce(_prepare(F, ordering)))
    run.reset([run.fresh(start[0])])
    # the pending queue, popped by (leading monomial, age)
    Q = [(key(t.poly.lm), t.age, t) for t in map(run.fresh, start[1:])]
    heapq.heapify(Q)

    def clear(t: Triple) -> Triple:
        return replace(t, processed=frozenset()) if t.processed else t

    def place(h: Polynomial, lm: Monomial, ancestor: Monomial, processed: frozenset[int]) -> None:
        """Add the nonzero normal form h of a candidate with leading monomial lm."""
        if h.lm == lm:
            run.insert(Triple(h, ancestor, processed, next(run.counter)))
            return
        t = run.fresh(h)
        cut = bisect.bisect_right(run.keys, key(h.lm))
        if cut == len(run.keys):
            run.insert(t)
            return
        moved = run.triples[cut:]
        if log is not None:
            # members joined the set in the order of their ages
            for u in sorted(moved, key=lambda u: u.age):
                log.append(f"demote {u.poly.lm}")
        # a contraction can remove the very cone that justified an earlier
        # prolongation mark, on members staying put as much as on the moved
        # ones, so every mark everywhere is reset; marks made after this
        # point face only a growing set again, where handled stays handled
        Q[:] = [(k, a, clear(u)) for k, a, u in Q]
        Q.extend((k, u.age, clear(u)) for k, u in zip(run.keys[cut:], moved))
        heapq.heapify(Q)
        run.reset([clear(u) for u in run.triples[:cut]] + [t])

    status = "complete"
    try:
        while True:
            # candidates are examined in ascending order of leading
            # monomials, a queued element before a prolongation with the
            # same one: a lower prolongation may contribute a lower cone
            pk = run.lowest()
            if Q and (pk is None or not pk < Q[0][0]):
                _, _, q = heapq.heappop(Q)
                h = run.examine(q.poly, q.poly.lm, q.ancestor, queued=True)
                if h is not None:
                    place(h, q.poly.lm, q.ancestor, q.processed)
            elif pk is not None:
                t, x, prod = run.take()
                h = run.examine(t.poly.mul_var(x), prod, t.ancestor)
                if h is not None:
                    place(h, prod, t.ancestor, frozenset())
            else:
                break
    except _CapReached:
        status = "cap_exceeded"
    return run.result(status)


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
    polys = [p.with_ordering(ordering).monic() for p in G if not p.is_zero]
    if not polys:
        return VerifyResult(False, reason="empty basis")
    if mode not in ("local", "global"):
        raise ValueError(f"unknown mode {mode!r}")
    if len({p.lm for p in polys}) != len(polys):
        return VerifyResult(False, reason="not involutively autoreduced: duplicate leading monomials")
    table = multiplicative_table(division, [p.lm for p in polys])
    reducers = _Reducers(polys, table, ordering)
    for f in polys:
        # f is reduced modulo the others when no term of it has an
        # involutive divisor but f itself; a lower divisor of lm(f) is found
        # before f, and f divides none of its lower terms
        for m, _ in f.terms:
            g = reducers.find(m)
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
    """Buchberger's test: every S-polynomial reduces to zero modulo G."""
    polys = _coerce(G, ordering)
    if not polys:
        return False
    reducers = _Reducers(polys, _all_variables(p.lm for p in polys), ordering)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not _nf(s_polynomial(polys[i], polys[j]), reducers).is_zero:
                return False
    return True


def nf_equality_check(p: Polynomial, G: Sequence[Polynomial], division: Division, ordering: Ordering) -> bool:
    """On an involutive basis the involutive and conventional normal forms
    agree; this is the per-probe equality test."""
    inv = involutive_normal_form(p, G, division, ordering)
    conv = normal_form(p.with_ordering(ordering), [g.with_ordering(ordering) for g in G])
    return inv == conv
