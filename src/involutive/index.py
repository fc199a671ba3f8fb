"""The ordered divisor index behind every first-divisor lookup.

``_Reducers`` serves the reduction kernel and the interreduction in
``polynomials``, the completion engine and the monomial completion.  It
holds each member's leading monomial as one packed int of its
``monomials.Packing``, which is also the member's ordering key, and it
holds the multiplicative table of its members' leading monomials, or None
when every variable is multiplicative, the conventional case.  Its
members stay ascending by (packed leading monomial, arrival) through
``insert``, ``pop`` and ``narrow``, and ``find`` returns the first member
that involutively divides a packed monomial.  A member u divides w
involutively only if u's exponents equal w's on u's non-multiplicative
variables, so the index files its members in groups by the mask of those
exponent fields and, within a group, in buckets by ``w & mask``.  A lookup
visits the groups by their lowest member, makes one dict probe per group,
tests divisibility by one subtraction and the guard mask on the members of
the bucket it finds, and returns the lowest-keyed hit: the member a scan in
(key, arrival) order would return.  With every variable multiplicative
there is one group with one bucket, and the lookup is that scan.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Optional

from .monomials import Monomial, Packing

if TYPE_CHECKING:
    from .polynomials import Polynomial


class _Reducers:
    """The ordered divisor index: members ascending by (packed leading
    monomial, arrival), each held in ``items`` as its packed leading
    monomial, the mask of its non-multiplicative exponent fields and a
    payload, the polynomial or, in the monomial completion, the monomial.
    ``keys`` holds the members' packed leading monomials in the same order.
    ``table`` maps each member's leading monomial to its multiplicative
    variables; None means every variable is multiplicative.  The owner
    updates that table in place, and ``narrow`` follows the update.

    A new member goes after those with an equal key, so a set built at once
    and one grown by ``insert`` agree; ``narrow`` re-files the members whose
    leading monomials lost multiplicative variables in the table, and
    ``find`` returns the first member that involutively divides a packed
    monomial w.

    A member divides w involutively only when w & mask equals its own
    key & mask.  So ``groups`` maps each mask present to a group [lowest
    key, mask, buckets by key & mask]; a bucket lists the same member tuples
    as ``items``, in (key, arrival) order, and ``order`` lists the groups by
    their lowest key (None when a change may have moved one).  A divisor of
    w is keyed at most w, so ``find`` tests the members of one bucket per
    group up to the first hit, or the first member keyed above the best hit
    so far (w at first), and stops at the first group whose lowest key is
    above it.  That is the tie rule of the scan: the members with one
    leading monomial share its table entry and so one bucket, where arrival
    orders them, and hits from different groups never share a key.  ``pop``
    and ``narrow`` drop the buckets and groups they empty, so no lookup
    visits an empty group."""

    __slots__ = ("packing", "table", "variables", "guard", "keys", "items", "groups", "order")

    def __init__(self, polys: Iterable[Polynomial], table: Optional[dict[Monomial, frozenset[int]]], packing: Packing):
        self.packing = packing
        self.table = table
        self.variables = frozenset(range(packing.n))
        self.guard = packing.guard
        self.keys: list[int] = []
        self.items: list[tuple] = []
        self.groups: dict[int, list] = {}
        self.order = None
        for p in polys:
            self.insert(packing.pack(p.lm.exps), p.lm, p)

    def _place(self, member: tuple) -> None:
        """File member in its bucket, after those with an equal key."""
        k, mask, _ = member
        group = self.groups.get(mask)
        if group is None or k < group[0]:
            group = self.groups.setdefault(mask, [k, mask, {}])
            group[0] = k
            self.order = None
        bucket = group[2].setdefault(k & mask, [])
        bucket.insert(bisect_right(bucket, k, key=_rank), member)

    def _unplace(self, member: tuple) -> tuple:
        """Take member out of its bucket, dropping the bucket and group it
        empties; return it."""
        k, mask, _ = member
        group = self.groups[mask]
        buckets = group[2]
        bucket = buckets[k & mask]
        i = bisect_left(bucket, k, key=_rank)
        while bucket[i] is not member:
            i += 1
        del bucket[i]
        if not bucket:
            del buckets[k & mask]
        if not buckets:
            del self.groups[mask]
        if k == group[0]:
            # the group's lowest member left, so the group moves or goes
            group[0] = min([bucket[0][0] for bucket in buckets.values()], default=k)
            self.order = None
        return member

    def insert(self, k: int, lm: Monomial, payload) -> int:
        """Add a member with leading monomial lm, packed as k, after those
        with an equal key; return its position."""
        pos = bisect_right(self.keys, k)
        member = (k, 0 if self.table is None else self.packing.fixed(self.table[lm]), payload)
        self.keys.insert(pos, k)
        self.items.insert(pos, member)
        self._place(member)
        return pos

    def pop(self, pos: int):
        """Remove the member at pos; return its payload."""
        del self.keys[pos]
        return self._unplace(self.items.pop(pos))[2]

    def nonmultiplicative(self, lm: Monomial) -> frozenset[int]:
        """The variables to prolong the members with leading monomial lm by."""
        return self.variables - (self.variables if self.table is None else self.table[lm])

    def narrow(self, lost: dict[Monomial, frozenset[int]]) -> dict[Monomial, int]:
        """Re-file the members of each leading monomial in ``lost``, the
        variables each lost as ``divisions.grow_table`` reports them, under
        its entry in the table; return, for each, the position of its first
        member."""
        first = {}
        for lm in lost:
            k = self.packing.pack(lm.exps)
            first[lm] = lo = bisect_left(self.keys, k)
            # each goes back after the others, so they end in their order
            for _ in range(lo, bisect_right(self.keys, k)):
                self.insert(k, lm, self.pop(lo))
        return first

    def find(self, w: int):
        """The payload of the first member whose leading monomial
        involutively divides the packed monomial w: it divides, and the
        exponents agree in every non-multiplicative variable.  None if there
        is none."""
        order, guard = self.order, self.guard
        if order is None:
            order = self.order = sorted(self.groups.values(), key=_rank)
        hit, top = None, w
        for low, mask, buckets in order:
            if low > top:
                break
            for k, _, payload in buckets.get(w & mask, ()):
                if k > top:
                    break
                if not (w - k) & guard:
                    hit, top = payload, k
                    break
        return hit


_rank = itemgetter(0)
