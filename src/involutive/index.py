"""The ordered divisor index behind every first-divisor lookup.

``_Reducers`` serves the reduction kernel and the interreduction in
``polynomials``, the completion engine and the monomial completion.  Its
members stay ascending by (ordering key of the leading monomial, arrival)
through ``insert``, ``pop`` and ``narrow``, and ``find`` returns the first
member that involutively divides a monomial.  A member u divides w
involutively only if u's exponents equal w's on u's non-multiplicative
variables, so the index files its members in groups by those variables
and, within a group, in buckets by the exponents there.  A lookup makes one
dict probe per group, tests divisibility only on the members of the bucket
it finds, and returns the lowest-keyed hit across the groups: the member a
scan in (key, arrival) order would return.  With every variable
multiplicative, the conventional case, there is one group with one bucket,
and the lookup is that scan.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter, le
from typing import TYPE_CHECKING, Callable, Iterable

from .monomials import Monomial, Ordering

if TYPE_CHECKING:
    from .polynomials import Polynomial


class _Reducers:
    """The ordered divisor index: members ascending by (ordering key of the
    leading monomial, arrival), each held in ``items`` as its key, the
    exponents of its leading monomial, the positions of its
    non-multiplicative variables (``fixed``) and a payload, the polynomial
    or, in the monomial completion, the monomial.  ``keys`` holds the
    members' keys in the same order.

    A new member goes after those with an equal key, so a set built at once
    and one grown by ``insert`` agree; ``narrow`` gives the members with a
    leading monomial the smaller multiplicative set that
    ``divisions.grow_table`` reports for it, and ``find`` returns the first
    member that involutively divides a monomial.

    A member divides w involutively only when its exponents equal w's at its
    ``fixed`` positions.  So ``groups`` maps each ``fixed`` tuple present to
    the projection onto those positions and a dict of buckets by projected
    exponents; a bucket lists the same member tuples as ``items``, in
    (key, arrival) order.  ``find`` probes one bucket per group and tests
    divisibility on its members up to the first hit, or up to the first
    member keyed above the best hit so far, and returns the lowest-keyed
    hit.  That is the tie rule of the scan: the members with one leading
    monomial share its table entry and so one bucket, where arrival orders
    them, and hits from different groups never share a key.  With every
    variable multiplicative there is one group with one bucket, and ``find``
    is the plain scan.  ``pop`` and ``narrow`` drop the buckets and groups
    they empty, so no lookup visits an empty group."""

    __slots__ = ("key", "keys", "items", "groups")

    def __init__(self, polys: Iterable[Polynomial], table: dict[Monomial, frozenset[int]], ordering: Ordering):
        self.key = key = ordering.ascending_key
        # the sort is stable, so members with an equal key keep their arrival order
        self.items = sorted([(key(m.exps), m.exps, _fixed(m.exps, table[m]), p) for p in polys for m in (p.lm,)], key=_rank)
        self.keys = [member[0] for member in self.items]
        self.groups: dict[tuple[int, ...], tuple[Callable, dict]] = {}
        for member in self.items:
            self._place(member)

    def _place(self, member: tuple) -> None:
        """File member in its bucket, after those with an equal key."""
        fixed = member[2]
        # a new group: the projection onto the fixed positions, () when there is none, and no bucket
        get, buckets = self.groups.get(fixed) or self.groups.setdefault(fixed, (itemgetter(*fixed) if fixed else itemgetter(slice(0)), {}))
        bucket = buckets.setdefault(get(member[1]), [])
        bucket.insert(bisect_right(bucket, member[0], key=_rank), member)

    def _unplace(self, member: tuple) -> tuple:
        """Take member out of its bucket, dropping the bucket and group it
        empties; return it."""
        get, buckets = self.groups[member[2]]
        at = get(member[1])
        bucket = buckets[at]
        i = bisect_left(bucket, member[0], key=_rank)
        while bucket[i] is not member:
            i += 1
        del bucket[i]
        if not bucket:
            del buckets[at]
            if not buckets:
                del self.groups[member[2]]
        return member

    def insert(self, lm: Monomial, mult: frozenset[int], payload) -> int:
        """Add a member after those with an equal key; return its position."""
        k = self.key(lm.exps)
        pos = bisect_right(self.keys, k)
        member = (k, lm.exps, _fixed(lm.exps, mult), payload)
        self.keys.insert(pos, k)
        self.items.insert(pos, member)
        self._place(member)
        return pos

    def pop(self, pos: int):
        """Remove the member at pos; return its payload."""
        del self.keys[pos]
        return self._unplace(self.items.pop(pos))[3]

    def narrow(self, lm: Monomial, mult: frozenset[int]) -> int:
        """Give the members with leading monomial lm the multiplicative
        variables mult; return the position of the first."""
        k = self.key(lm.exps)
        lo, hi = bisect_left(self.keys, k), bisect_right(self.keys, k)
        for member in self.items[lo:hi]:
            self._unplace(member)
        self.items[lo:hi] = moved = [(k, exps, _fixed(exps, mult), payload) for _, exps, _, payload in self.items[lo:hi]]
        for member in moved:
            self._place(member)
        return lo

    def find(self, exps: tuple[int, ...]):
        """The payload of the first member whose leading monomial
        involutively divides the monomial with exponents ``exps``: it
        divides, and the exponents agree in every non-multiplicative
        variable.  None if there is none."""
        hit = None
        for get, buckets in self.groups.values():
            for k, lm_exps, _, payload in buckets.get(get(exps), ()):
                if hit is not None and k > top:
                    break
                if all(map(le, lm_exps, exps)):
                    hit, top = payload, k
                    break
        return hit


_rank = itemgetter(0)


def _fixed(exps: tuple[int, ...], mult: frozenset[int]) -> tuple[int, ...]:
    return tuple([i for i in range(len(exps)) if i not in mult]) if len(mult) < len(exps) else ()
