"""Sparse multivariate polynomials over the rationals.

Terms are kept sorted, highest first, under the polynomial's own ordering;
a ``Polynomial``'s coefficients are exact Fractions.  The module also
carries the one reduction kernel ``_reduce`` and the one interreduction loop,
both over the divisor index ``index._Reducers``, which answers every
first-divisor lookup of the package: conventional reduction is involutive
reduction with every variable multiplicative, so ``normal_form`` and
``autoreduce`` here and their involutive analogues in the engine differ
only in the table of multiplicative variables they pass.

The kernel works on packed monomials and integers.  Each exponent vector
is one int of a ``monomials.Packing``, which is its own ordering key: a
dict of pending terms by packed monomial and a heap of the negated keys,
a product formed as one addition checked against the guard bits,
coefficients held as integer numerators over one common denominator per
normal form, and each polynomial in an integral form, with its leading
monomial packed and its tail as packed offsets from it, computed once per
polynomial object and packing and kept on it.  The kernel, ``_reduce``,
takes that dict and denominator from one of two entries: ``_nf`` enters a
polynomial, and a prolongation x^k f as f with a packed shift; ``_s_nf``
enters the S-polynomial of two members, their tails shifted to the packed
lcm of their leading monomials and scaled to the lcm of their leading
integer coefficients.  The divisor index holds the same packed ints.  A
``Monomial`` and a ``Fraction`` are built only for an output term; a
product that outgrows its fields makes ``_widening`` run the computation
again on wider ones.

The interreduction tests a member by divisor lookups on its terms and runs
the kernel only on a member that reduces.  With every variable
multiplicative, one sweep does the whole interreduction, with one divisor
index: after a drop it goes on at the same position, and after a rewrite
it resumes after the rewritten member.  With a table of multiplicative
variables, a drop or a new leading monomial changes the table and starts
a new round.  The kernel, which the oracle shares with the engine, and
the interreduction are checked against plain references in the tests.

S-polynomials and Buchberger complete the conventional oracle, all on
packed monomials.  The critical pairs come from one stream, ``_Pairs``,
that prunes them by Gebauer and Moeller's update once, when a leading
monomial joins: the criteria B_k, M and F compare packed lcms by a
subtraction and the guard mask, and a pair is coprime when its packed lcm
is the sum of the two.  ``buchberger`` and the engine's ``verify_groebner``
share one pair loop, ``_s_remainders``, over that stream and one divisor
index that grows with the basis; it hands each pair to ``_s_nf`` with the
packed lcm the stream computed when it formed the pair, and
``s_polynomial`` is ``_s_nf`` modulo an empty index, so there is one
S-polynomial construction.  ``same_ideal`` runs Buchberger on its second
argument and first only autoreduces the first, which is enough when that
is already a Groebner basis.  The tests check all of them against
all-pairs and plain references.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .index import _Reducers
from .monomials import ContextMismatch, Monomial, Ordering, Packing, VariableContext, _Overflow, _widening

Term = tuple[Monomial, Fraction]


@dataclass(frozen=True, slots=True, eq=False)
class Polynomial:
    ctx: VariableContext
    ordering: Ordering
    terms: tuple[Term, ...]  # sorted descending, no zero coefficients
    _form: tuple = field(default=(None,), init=False, repr=False, compare=False)  # see _integral_form

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


def _integral_form(f: Polynomial, packing: Packing) -> tuple:
    """f times s, the lcm of its denominators, signed to make the leading
    coefficient positive: (packing, the packed leading monomial, that
    coefficient A, the tail as (u - lm, -c) pairs of a packed offset from
    the leading monomial and an integer coefficient c, s).  The form is kept
    on f, so it is computed once per polynomial object and packing."""
    lc = f.terms[0][1]
    scale = lcm(*[c.denominator for _, c in f.terms])
    if lc.numerator < 0:
        scale = -scale
    lead = packing.pack(f.terms[0][0].exps)
    tail = tuple([(packing.pack(m.exps) - lead, -c.numerator * (scale // c.denominator)) for m, c in f.terms[1:]])
    object.__setattr__(f, "_form", (packing, lead, lc.numerator * (scale // lc.denominator), tail, scale))
    return f._form


def _packed(f: Polynomial, packing: Packing) -> tuple:
    """f's integral form under packing."""
    return f._form if f._form[0] is packing else _integral_form(f, packing)


def _nf(p: Polynomial, reducers: _Reducers, trace: Optional[list] = None, shift: int = 0) -> Polynomial:
    """Full normal form of p times the packed monomial ``shift``: ``_reduce``
    on p's integral form, over its s, with every term shifted; an optional
    trace collects (reducer, multiplier, coefficient) steps."""
    if not p.terms:
        return p
    packing = reducers.packing
    _, lead, A, tail, D = _packed(p, packing)
    lead = packing.mul(lead, shift)
    work = {packing.mul(lead, u): -b for u, b in tail}
    work[lead] = A
    return _reduce(work, D, reducers, p, trace)


def _s_nf(f: Polynomial, g: Polynomial, reducers: _Reducers, w: int) -> Polynomial:
    """Full normal form of the S-polynomial of f and g, built from their
    integral forms A x^lm - sum b x^(lm+u): with w the packed lcm of the
    leading monomials, which the caller passes, and h = gcd(A_f, A_g), the
    S-polynomial times D = lcm(A_f, A_g) is -(A_g/h) sum b_f x^(w+u_f) +
    (A_f/h) sum b_g x^(w+u_g), the leading terms cancelling.  Each w + u is checked against
    the guard bits, as ``Packing.mul`` does."""
    packing = reducers.packing
    _, _, Af, tf, _ = _packed(f, packing)
    _, _, Ag, tg, _ = _packed(g, packing)
    h = gcd(Af, Ag)
    work: dict[int, int] = {}
    for tail, scale in ((tf, -(Ag // h)), (tg, Af // h)):
        for u, b in tail:
            t = packing.mul(w, u)
            work[t] = work.get(t, 0) + scale * b
    return _reduce(work, Af // h * Ag, reducers, f, None)


def _reduce(work: dict[int, int], D: int, reducers: _Reducers, p: Polynomial, trace: Optional[list]) -> Polynomial:
    """The reduction kernel: the full normal form of work / D, a dict from
    packed monomial to integer numerator over the common nonzero
    denominator D, with p's context and ordering.  It rewrites the highest
    reducible monomial with the reducer ``reducers.find`` returns for it.

    The dict holds the pending terms, with a heap of the negated keys, one
    entry per dict key (a cancelled term stays in the dict at 0 until it is
    popped).  Terms leave the heap highest first, so the irreducible ones
    form the result in order.  Every packed monomial comes from the
    integral forms, under the packing of the index; a product is one
    addition, checked against the guard bits.

    The arithmetic is on integers.  A reducer f enters through its integer
    form A x^lm - sum b x^t (``_integral_form``), so rewriting the term
    c/D x^e with g = gcd(c, A) scales every numerator and D by A/g, unless
    A divides c, and adds (c/g) b x^(t+e-lm) for each tail term.  A
    ``Monomial`` and a ``Fraction`` are made only for an output term, c/D
    with the D of the moment it leaves the heap, and, with a trace, for a
    step.
    """
    ctx, packing, find = p.ctx, reducers.packing, reducers.find
    guard, unpack = packing.guard, packing.unpack
    heap = [-t for t in work]
    heapify(heap)
    out = []
    while heap:
        e = -heappop(heap)
        c = work.pop(e)
        if not c:
            continue
        f = find(e)
        if f is None:
            out.append((Monomial(ctx, unpack(e)), Fraction(c, D)))
            continue
        _, lm, A, tail, _ = _packed(f, packing)
        if trace is not None:
            trace.append((f, Monomial(ctx, unpack(e - lm)), Fraction(c, D) / f.lc))
        g = gcd(c, A)
        if g != A:
            s = A // g
            work = {t: a * s for t, a in work.items()}
            D *= s
        c //= g
        for u, b in tail:
            t = e + u
            old = work.get(t)
            if old is None:
                if t & guard:
                    raise _Overflow(packing)
                work[t] = c * b
                heappush(heap, -t)
            else:
                work[t] = old + c * b
    return Polynomial(ctx, p.ordering, tuple(out))


@_widening
def normal_form(p: Polynomial, F: Sequence[Polynomial]) -> Polynomial:
    """Full conventional normal form of p modulo F.

    Strategy is fixed for determinism: always rewrite the highest reducible
    monomial, using the reducer with the lowest leading monomial, ties by
    position in F.
    """
    return _nf(p, _index_of(p, F, None))


def _index_of(p: Polynomial, F: Iterable[Polynomial], table_of: Optional[Callable[[list[Monomial]], dict]]) -> _Reducers:
    """The divisor index of the nonzero members of F, which must share p's
    variable context and ordering, holding the table ``table_of`` gives for
    their leading monomials, or none, every variable multiplicative, when
    ``table_of`` is None: the reducers of ``normal_form`` and
    ``involutive_normal_form``."""
    polys = [f for f in F if not f.is_zero]
    for f in polys:
        p._check(f)
    return _Reducers(polys, table_of([f.lm for f in polys]) if table_of and polys else None, p.ordering.packing(p.ctx.n))


def _reducible(p: Polynomial, reducers: _Reducers) -> bool:
    """True when a term of p, a member of ``reducers``, has an involutive
    divisor among the other members, leaving out those ranked after p with
    p's leading monomial.  Every other divisor of lm(p) ranks before p, so
    the lookup of lm(p) returns p exactly when there is none; p divides
    none of its lower terms, so a lookup of one succeeds only on another
    member.  The interreduction's sweep and ``verify_involutive``'s
    autoreduction test call it; after an insertion the engine tests the
    members above the new one against the new member alone."""
    _, lead, _, tail, _ = _packed(p, reducers.packing)
    find = reducers.find
    return find(lead) is not p or any(find(lead + u) is not None for u, _ in tail)


def _interreduce(polys: list[Polynomial], packing: Packing, table_of: Optional[Callable[[list[Monomial]], dict]]) -> tuple[tuple[Polynomial, ...], _Reducers]:
    """Reduce monic members modulo the others until none changes; return
    them, ascending, with the divisor index of the last round, which holds
    them in that order and the table of their leading monomials.

    A round indexes the members, sorted stably by leading monomial, with
    the table of their leading monomials from ``table_of``, or with every
    variable multiplicative when it is None, and sweeps them ascending.  It
    replaces each member that reduces modulo the others by its monic normal
    form, or drops it at 0.  A member reduces exactly when a divisor lookup
    among the others succeeds on one of its terms, so the others are only
    looked up, and the kernel runs on the members that reduce.  Member i
    stays in the index for its test: the only divisors of its leading
    monomial ranked after it share that monomial, so it reduces exactly
    when the next member has the same key or ``_reducible`` holds.  A
    member that reduces is popped for the kernel.  The members before the
    sweep's position are irreducible modulo the others.

    A rewrite that keeps the leading monomial keeps the table.  With a
    table, a drop or a new leading monomial changes the table and ends the
    round.  With every variable multiplicative, one round is the whole run,
    and it rewrites the members in the order that a restart after each
    change would: removing a member makes no other reducible, so after a
    drop the sweep goes on at the same position.  A rewritten member goes
    back into the index, and the sweep resumes after it.  Its leading
    monomial is that of no other member, which would divide it, and it is
    irreducible modulo the others; a new leading monomial is lower, and no
    term of a member keyed below it is a multiple of it, so the members
    before it stay irreducible.
    """
    for _ in range(10000):
        polys.sort(key=lambda p: _packed(p, packing)[1])
        reducers = _Reducers(polys, table_of([p.lm for p in polys]) if table_of else None, packing)
        keys, i = reducers.keys, 0
        while i < len(polys):
            p = polys[i]
            if not (keys[i + 1 : i + 2] == keys[i : i + 1] or _reducible(p, reducers)):
                i += 1
                continue
            lead = keys[i]
            reducers.pop(i)
            del polys[i]
            r = _nf(p, reducers).monic()
            if r.is_zero:
                if table_of:
                    break
                continue
            k = _packed(r, packing)[1]
            if table_of and k != lead:
                polys.append(r)
                break
            i = reducers.insert(k, r.lm, r)
            polys.insert(i, r)
            i += 1
        else:
            return tuple(polys), reducers
    raise RuntimeError("autoreduction failed to stabilise")


@_widening
def autoreduce(F: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Mutually reduce a set to a fixed point; members come back monic,
    sorted ascending by leading monomial."""
    polys = _coerce(F, None)
    if not polys:
        return ()
    return _interreduce([p.monic() for p in polys], polys[0].ordering.packing(polys[0].ctx.n), None)[0]


class _Pairs:
    """Buchberger's critical pairs of the leading monomials added so far,
    held as packed ints of ``packing``, pruned by Gebauer and Moeller's
    update (*On an installation of Buchberger's algorithm*, JSC 1988) when
    a leading monomial joins.  ``add`` computes the lcm of each new pair
    once and then applies the criteria:

    - B_k: a pending pair (a, b) is dropped when the new leading monomial
      divides its lcm w and the lcms of (a, new) and (b, new) both differ
      from w;
    - M and F: the new pairs are walked lowest lcm first, and one is
      dropped when the lcm of a new pair kept before it divides its own, an
      equal one included;
    - coprime: a kept new pair whose leading monomials share no variable,
      so that their lcm is their product, is not pushed.

    Each dropped pair is covered by pairs whose lcms divide its own.
    Iterating pops the pending pairs lowest lcm first, ties by (i, j),
    skipping those B_k dropped after they were pushed, and yields each as
    (packed lcm, i, j), so the lcm ``add`` computed serves the S-polynomial.  Every test is on
    the packed ints: a product is a sum, and divisibility is a subtraction
    and the guard mask.  Pairs added while iterating join the same heap.
    """

    __slots__ = ("packing", "lms", "heap", "pending")

    def __init__(self, packing: Packing):
        self.packing = packing
        # the packed ints of the leading monomials
        self.lms: list[int] = []
        # (packed lcm, i, j) is unique
        self.heap: list[tuple] = []
        # the packed lcm of each pushed pair not yet popped or dropped
        self.pending: dict[tuple[int, int], int] = {}

    def add(self, lm: int) -> None:
        lms, pending, guard = self.lms, self.pending, self.packing.guard
        j = len(lms)
        new = [self.packing.lcm(e, lm) for e in lms]
        for (a, b), w in list(pending.items()):
            if not (w - lm) & guard and new[a] != w and new[b] != w:
                del pending[a, b]
        kept: list[int] = []
        for w, i in sorted(zip(new, range(j))):
            for v in kept:
                if not (w - v) & guard:
                    break
            else:
                kept.append(w)
                if w != lms[i] + lm:
                    heappush(self.heap, (w, i, j))
                    pending[i, j] = w
        lms.append(lm)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        heap, pending = self.heap, self.pending
        while heap:
            w, i, j = heappop(heap)
            if pending.pop((i, j), None) is not None:
                yield w, i, j


@_widening
def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(w/lm f) f/lc f - (w/lm g) g/lc g for w the lcm of the leading
    monomials: ``_s_nf`` modulo an empty index."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    f._check(g)
    packing = f.ordering.packing(f.ctx.n)
    return _s_nf(f, g, _Reducers((), None, packing), packing.lcm(_packed(f, packing)[1], _packed(g, packing)[1]))


def _s_remainders(G: list[Polynomial], reducers: _Reducers) -> Iterator[Polynomial]:
    """Buchberger's loop, which ``verify_groebner`` shares: yield the
    nonzero normal form, modulo ``reducers``, the index of G with every
    variable multiplicative, of each S-polynomial of the pairs of G that
    ``_Pairs`` yields, built by ``_s_nf`` on packed forms.  When the loop
    resumes, that normal form joins G, the index and the stream, monic."""
    packing = reducers.packing
    pairs = _Pairs(packing)
    for g in G:
        pairs.add(_packed(g, packing)[1])
    for w, i, j in pairs:
        r = _s_nf(G[i], G[j], reducers, w)
        if not r.is_zero:
            yield r
            G.append(r.monic())
            reducers.insert(_packed(G[-1], packing)[1], r.lm, G[-1])
            pairs.add(_packed(G[-1], packing)[1])


@_widening
def buchberger(F: Iterable[Polynomial], ordering: Optional[Ordering] = None) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis via Buchberger's algorithm.

    Pairs are treated in normal selection order (lowest lcm first, ties by
    index) and pruned by Gebauer and Moeller's criteria and the coprime
    criterion, by the critical-pair stream ``_Pairs``.  One divisor index
    of G, with every variable multiplicative, reduces every S-polynomial
    and grows with G.
    """
    G = list(autoreduce(_coerce(F, ordering)))
    if not G:
        return ()
    reducers = _Reducers(G, None, G[0].ordering.packing(G[0].ctx.n))
    for _ in _s_remainders(G, reducers):
        pass
    # minimalise: keep a member when no lower or earlier one divides its
    # leading monomial, then interreduce tails
    return autoreduce([p for p in G if reducers.find(_packed(p, reducers.packing)[1]) is p])


def same_ideal(F: Iterable[Polynomial], G: Iterable[Polynomial], ordering: Optional[Ordering] = None) -> bool:
    """Ideal equality through the unique reduced Groebner bases; F and G
    must share one variable context.  Buchberger computes G's.  F is first
    only autoreduced, which keeps its ideal, so when that already gives G's
    reduced basis, as it does when F is a Groebner basis of G's ideal, the
    answer is True without a second run; otherwise Buchberger computes F's
    as well."""
    B, A = buchberger(G, ordering), autoreduce(_coerce(F, ordering))
    if A and B:
        A[0]._check(B[0])
    return A == B or buchberger(A) == B
