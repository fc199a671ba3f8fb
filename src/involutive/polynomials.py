"""Sparse multivariate polynomials over the rationals.

Terms are kept sorted, highest first, under the polynomial's own ordering;
a ``Polynomial``'s coefficients are exact Fractions.  The module also
carries the one ordered divisor index ``_Reducers``, the one reduction
kernel ``_nf`` over it, and the one interreduction loop: conventional
reduction is involutive reduction with every variable multiplicative, so
``normal_form`` and ``autoreduce`` here and their involutive analogues in
the engine differ only in the table of multiplicative variables they pass.

``_Reducers`` answers every first-divisor lookup of the package, here, in
the engine and in the monomial completion: its members stay ascending by
(ordering key of the leading monomial, arrival) through ``insert``,
``pop`` and ``narrow``, and ``find`` returns the first member that
involutively divides a monomial.

The kernel works on exponent tuples and integers: a dict of pending terms
and a heap of their descending ordering keys, products formed as tuple
sums, coefficients held as (numerator, denominator) pairs of integers, and
each reducer in an integer form computed once per polynomial object and
kept on it.  A ``Monomial`` and a ``Fraction`` are built only for an
output term.  The interreduction tests a member by divisor lookups on its
terms and runs the kernel only on a member that reduces; after a rewrite
that keeps the leading monomial it resumes its sweep at the next member.
S-polynomials and Buchberger complete the conventional oracle; the kernel
it shares with the engine and the interreduction are checked against
plain references in the tests.

S-polynomials are built on exponent tuples as well.  The critical pairs
come from one stream, ``_Pairs``, that applies Buchberger's coprime
criterion and the chain criterion to the exponent tuples of the leading
monomials; ``buchberger`` and the engine's ``verify_groebner`` share one
pair loop, ``_s_remainders``, over that stream and one divisor index that
grows with the basis, and the tests check both against all-pairs
references.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .monomials import ContextMismatch, Monomial, Ordering, VariableContext

Term = tuple[Monomial, Fraction]


@dataclass(frozen=True, slots=True, eq=False)
class Polynomial:
    ctx: VariableContext
    ordering: Ordering
    terms: tuple[Term, ...]  # sorted descending, no zero coefficients
    _form: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)  # see _integral_form

    @classmethod
    def from_terms(cls, ctx: VariableContext, ordering: Ordering, terms: Mapping[Monomial, Fraction] | Iterable[Term]) -> "Polynomial":
        acc: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            if m.ctx != ctx:
                raise ContextMismatch("term monomial from a different context")
            c = Fraction(c)
            if c:
                acc[m] = acc.get(m, Fraction(0)) + c
        cleaned = tuple(sorted(((m, c) for m, c in acc.items() if c), key=lambda t: ordering.key(t[0]), reverse=True))
        return cls(ctx, ordering, cleaned)

    @classmethod
    def zero(cls, ctx: VariableContext, ordering: Ordering) -> "Polynomial":
        return cls(ctx, ordering, ())

    @classmethod
    def from_monomial(cls, m: Monomial, ordering: Ordering, coeff: Fraction | int = 1) -> "Polynomial":
        return cls.from_terms(m.ctx, ordering, [(m, Fraction(coeff))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lm(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[0][1]

    @property
    def tail(self) -> tuple[Term, ...]:
        return self.terms[1:]

    def coefficient(self, m: Monomial) -> Fraction:
        for mm, c in self.terms:
            if mm == m:
                return c
        return Fraction(0)

    def with_ordering(self, ordering: Ordering) -> "Polynomial":
        if ordering is self.ordering:
            return self
        return Polynomial.from_terms(self.ctx, ordering, self.terms)

    def _check(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials from different variable contexts")
        if self.ordering is not other.ordering:
            raise ValueError("polynomials carry different orderings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial.from_terms(self.ctx, self.ordering, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, self.ordering, tuple((m, -c) for m, c in self.terms))

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.ctx, self.ordering)
        return Polynomial(self.ctx, self.ordering, tuple((m, c * cc) for m, cc in self.terms))

    def mul_term(self, coeff: Fraction | int, monomial: Monomial) -> "Polynomial":
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial.zero(self.ctx, self.ordering)
        # multiplying by one monomial preserves the order of the terms
        return Polynomial(self.ctx, self.ordering, tuple((m * monomial, coeff * c) for m, c in self.terms))

    def mul_var(self, i: int) -> "Polynomial":
        return Polynomial(self.ctx, self.ordering, tuple((m.mul_var(i), c) for m, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1 * m2
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial.from_terms(self.ctx, self.ordering, acc)

    def monic(self) -> "Polynomial":
        if self.is_zero or self.lc == 1:
            return self
        inv = 1 / self.lc
        return Polynomial(self.ctx, self.ordering, tuple((m, c * inv) for m, c in self.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, (m, c) in enumerate(self.terms):
            mag = abs(c)
            if m.is_one:
                body = str(mag)
            elif mag == 1:
                body = str(m)
            else:
                body = f"{mag}*{m}"
            if k == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coerce(F: Iterable[Polynomial], ordering: Optional[Ordering]) -> list[Polynomial]:
    polys = [p for p in F if not p.is_zero]
    if not polys:
        return []
    if ordering is None:
        ordering = polys[0].ordering
    ctx = polys[0].ctx
    out = []
    for p in polys:
        if p.ctx != ctx:
            raise ContextMismatch("polynomials from different variable contexts")
        out.append(p.with_ordering(ordering))
    return out


class _Reducers:
    """The ordered divisor index: members ascending by (ordering key of the
    leading monomial, arrival), each held as the exponents of its leading
    monomial, the positions of its non-multiplicative variables and a
    payload, the polynomial or, in the monomial completion, the monomial.
    ``keys`` holds the members' ordering keys in the same order.

    A new member goes after those with an equal key, so a set built at once
    and one grown by ``insert`` agree; ``narrow`` gives the members with a
    leading monomial the smaller multiplicative set that
    ``divisions.grow_table`` reports for it, and ``find`` returns the first
    member that involutively divides a monomial."""

    __slots__ = ("key", "keys", "items")

    def __init__(self, polys: Iterable[Polynomial], table: dict[Monomial, frozenset[int]], ordering: Ordering):
        self.key, self.keys, self.items = ordering.key, [], []
        for p in polys:
            self.insert(p.lm, table[p.lm], p)

    def insert(self, lm: Monomial, mult: frozenset[int], payload) -> int:
        """Add a member after those with an equal key; return its position."""
        k = self.key(lm)
        pos = bisect_right(self.keys, k)
        self.keys.insert(pos, k)
        self.items.insert(pos, (lm.exps, _fixed(lm.exps, mult), payload))
        return pos

    def pop(self, pos: int):
        """Remove the member at pos; return its payload."""
        del self.keys[pos]
        return self.items.pop(pos)[2]

    def narrow(self, lm: Monomial, mult: frozenset[int]) -> int:
        """Give the members with leading monomial lm the multiplicative
        variables mult; return the position of the first."""
        k = self.key(lm)
        lo, hi = bisect_left(self.keys, k), bisect_right(self.keys, k)
        self.items[lo:hi] = [(exps, _fixed(exps, mult), payload) for exps, _, payload in self.items[lo:hi]]
        return lo

    def find(self, exps: tuple[int, ...]):
        """The payload of the first member whose leading monomial
        involutively divides the monomial with exponents ``exps``: it
        divides, and the exponents agree in every non-multiplicative
        variable.  None if there is none."""
        for lm_exps, fixed, payload in self.items:
            if all(map(le, lm_exps, exps)):
                for i in fixed:
                    if lm_exps[i] != exps[i]:
                        break
                else:
                    return payload
        return None


def _fixed(exps: tuple[int, ...], mult: frozenset[int]) -> tuple[int, ...]:
    return tuple(i for i in range(len(exps)) if i not in mult)


def _all_variables(lms: Iterable[Monomial]) -> dict[Monomial, frozenset[int]]:
    """Every variable multiplicative: ``_Reducers.find`` tests plain divisibility."""
    return {m: frozenset(range(m.ctx.n)) for m in lms}


def _integral_form(f: Polynomial) -> tuple[int, tuple]:
    """f times the lcm of its denominators, signed to make the leading
    coefficient positive: that coefficient A and the tail as (exponents, -c)
    pairs for each integer coefficient c.  The form is kept on f, so it is
    computed once per polynomial object."""
    lc = f.terms[0][1]
    scale = lcm(*[c.denominator for _, c in f.terms])
    if lc.numerator < 0:
        scale = -scale
    tail = tuple([(m.exps, -c.numerator * (scale // c.denominator)) for m, c in f.terms[1:]])
    object.__setattr__(f, "_form", (lc.numerator * (scale // lc.denominator), tail))
    return f._form


def _nf(p: Polynomial, reducers: _Reducers, trace: Optional[list] = None) -> Polynomial:
    """Full normal form of p: rewrite the highest reducible monomial with the
    reducer ``reducers.find`` returns for it; an optional trace collects
    (reducer, multiplier, coefficient) steps.

    Pending terms live in a dict from exponent tuple to coefficient, with a
    heap of their descending keys, one entry per dict key (a cancelled term
    stays in the dict at 0 until it is popped).  Terms leave the heap highest
    first, so the irreducible ones form the result in order.

    The arithmetic is on integers.  A pending coefficient is a pair
    (numerator, denominator > 0), brought to lowest terms only when its term
    is rewritten; two pairs over one denominator add their numerators.  A
    reducer f enters through its integer form A x^lm - sum b x^t
    (``_integral_form``), so rewriting the term n/d x^e adds
    (n/g) b / (d A/g) x^(t+e-lm) for g = gcd(n, A).  A ``Fraction`` is made
    only for an output term and, with a trace, for the factor of a step.
    """
    ctx, ordering = p.ctx, p.ordering
    desc = ordering.descending_key
    find = reducers.find
    work = {m.exps: (c.numerator, c.denominator) for m, c in p.terms}
    heap = [(desc(e), e) for e in work]
    heapify(heap)
    out = []
    while heap:
        e = heappop(heap)[1]
        n, d = work.pop(e)
        if not n:
            continue
        f = find(e)
        if f is None:
            out.append((Monomial(ctx, e), Fraction(n, d)))
            continue
        v = tuple([a - b for a, b in zip(e, f.lm.exps)])
        if trace is not None:
            trace.append((f, Monomial(ctx, v), Fraction(n, d) / f.lc))
        lead, tail = f._form or _integral_form(f)
        if d != 1:
            g = gcd(n, d)
            n //= g
            d //= g
        if lead != 1:
            g = gcd(n, lead)
            n //= g
            d *= lead // g
        for u, b in tail:
            t = tuple([x + y for x, y in zip(u, v)])
            old = work.get(t)
            if old is None:
                work[t] = (n * b, d)
                heappush(heap, (desc(t), t))
            elif old[1] == d:
                work[t] = (old[0] + n * b, d)
            else:
                work[t] = (old[0] * d + n * b * old[1], old[1] * d)
    return Polynomial(ctx, ordering, tuple(out))


def normal_form(p: Polynomial, F: Sequence[Polynomial]) -> Polynomial:
    """Full conventional normal form of p modulo F.

    Strategy is fixed for determinism: always rewrite the highest reducible
    monomial, using the reducer with the lowest leading monomial, ties by
    position in F.
    """
    reducers = [f for f in F if not f.is_zero]
    for f in reducers:
        p._check(f)
    return _nf(p, _Reducers(reducers, _all_variables(f.lm for f in reducers), p.ordering))


def _interreduce(polys: list[Polynomial], ordering: Ordering, table_of: Callable[[list[Monomial]], dict]) -> tuple[tuple[Polynomial, ...], dict]:
    """Reduce monic members modulo the others until none changes; return
    them with the table of their leading monomials.

    Each round replaces the first member, ascending by leading monomial,
    that reduces modulo the others by its monic normal form, or drops it at
    0.  A member reduces exactly when a divisor lookup succeeds on one of its
    terms, so the others are only looked up, and the kernel runs on the
    members that reduce.  A round indexes the members, sorted stably, with
    the table of their leading monomials from ``table_of``; "all but member
    i" is that index with member i popped.  A rewrite that keeps the leading
    monomial keeps the table, and the members before it stay irreducible,
    so the sweep inserts it back and resumes at the next member; the round
    ends when a member drops or its leading monomial changes.
    """
    if not polys:
        return (), {}
    for _ in range(10000):
        polys.sort(key=lambda p: ordering.key(p.lm))
        table = table_of([p.lm for p in polys])
        reducers = _Reducers(polys, table, ordering)
        i = 0
        while i < len(polys):
            p = reducers.pop(i)
            if any(reducers.find(m.exps) is not None for m, _ in p.terms):
                r = _nf(p, reducers).monic()
                polys[i : i + 1] = [] if r.is_zero else [r]
                if r.is_zero or r.lm != p.lm:
                    break
                p = r
            reducers.insert(p.lm, table[p.lm], p)
            i += 1
        else:
            return tuple(polys), table
    raise RuntimeError("autoreduction failed to stabilise")


def autoreduce(F: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Mutually reduce a set to a fixed point; members come back monic,
    sorted ascending by leading monomial."""
    polys = _coerce(F, None)
    if not polys:
        return ()
    return _interreduce([p.monic() for p in polys], polys[0].ordering, _all_variables)[0]


class _Pairs:
    """Buchberger's critical pairs of the leading monomials added so far,
    held as exponent tuples.  ``add`` pairs a new leading monomial with each
    older one.  Iterating pops the pairs lowest lcm first, ties by (i, j),
    and yields those that neither criterion drops:

    - coprime: the two leading monomials share no variable;
    - chain: the leading monomial of some k other than i and j divides the
      lcm, and neither (i, k) nor (j, k) is still pending (Gebauer and
      Moeller, *On an installation of Buchberger's algorithm*, JSC 1988).

    Pairs added while iterating join the same heap.
    """

    __slots__ = ("key", "lms", "heap", "pending")

    def __init__(self, ordering: Ordering):
        self.key = ordering.ascending_key
        self.lms: list[tuple[int, ...]] = []
        # (key of lcm, i, j, lcm) is unique, so the lcm is never compared
        self.heap: list[tuple] = []
        self.pending: set[tuple[int, int]] = set()

    def add(self, exps: tuple[int, ...]) -> None:
        j = len(self.lms)
        for i, e in enumerate(self.lms):
            w = tuple(map(max, e, exps))
            heappush(self.heap, (self.key(w), i, j, w))
            self.pending.add((i, j))
        self.lms.append(exps)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        heap, pending, lms = self.heap, self.pending, self.lms
        while heap:
            _, i, j, w = heappop(heap)
            pending.remove((i, j))
            if not any(map(min, lms[i], lms[j])):
                continue
            if any(
                k != i and k != j and all(map(le, e, w))
                and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
                for k, e in enumerate(lms)
            ):
                continue
            yield i, j


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(w/lm f) f/lc f - (w/lm g) g/lc g for w the lcm of the leading
    monomials.  The leading terms cancel, so the two tails are shifted as
    exponent tuples into one dict and a ``Monomial`` is built only for an
    output term."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    f._check(g)
    w = tuple(map(max, f.lm.exps, g.lm.exps))
    acc: dict[tuple[int, ...], Fraction] = {}
    for p, factor in ((f, 1 / f.lc), (g, -1 / g.lc)):
        v = tuple([a - b for a, b in zip(w, p.lm.exps)])
        for m, c in p.tail:
            t = tuple([a + b for a, b in zip(m.exps, v)])
            acc[t] = acc.get(t, 0) + factor * c
    ctx = f.ctx
    terms = sorted((e for e, c in acc.items() if c), key=f.ordering.descending_key)
    return Polynomial(ctx, f.ordering, tuple((Monomial(ctx, e), acc[e]) for e in terms))


def _s_remainders(G: list[Polynomial], reducers: _Reducers) -> Iterator[Polynomial]:
    """Buchberger's loop, which ``verify_groebner`` shares: yield the
    nonzero normal form, modulo ``reducers``, the index of G with every
    variable multiplicative, of each S-polynomial of the pairs of G that
    ``_Pairs`` yields.  When the loop resumes, that normal form joins G,
    the index and the stream, monic."""
    pairs = _Pairs(G[0].ordering)
    for g in G:
        pairs.add(g.lm.exps)
    for i, j in pairs:
        r = _nf(s_polynomial(G[i], G[j]), reducers)
        if not r.is_zero:
            yield r
            G.append(r.monic())
            reducers.insert(G[-1].lm, frozenset(range(r.ctx.n)), G[-1])
            pairs.add(G[-1].lm.exps)


def buchberger(F: Iterable[Polynomial], ordering: Optional[Ordering] = None) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis via Buchberger's algorithm.

    Pairs are treated in normal selection order (lowest lcm first, ties by
    index) and pruned with the coprime-lm and chain criteria, by the
    critical-pair stream ``_Pairs``.  One divisor index of G, with every
    variable multiplicative, reduces every S-polynomial and grows with G.
    """
    G = list(autoreduce(_coerce(F, ordering)))
    if not G:
        return ()
    reducers = _Reducers(G, _all_variables(g.lm for g in G), G[0].ordering)
    for _ in _s_remainders(G, reducers):
        pass
    # minimalise: keep a member when no lower or earlier one divides its
    # leading monomial, then interreduce tails
    return autoreduce([p for p in G if reducers.find(p.lm.exps) is p])


def same_ideal(F: Iterable[Polynomial], G: Iterable[Polynomial], ordering: Optional[Ordering] = None) -> bool:
    """Ideal equality through the unique reduced Groebner bases."""
    return list(buchberger(F, ordering)) == list(buchberger(G, ordering))
