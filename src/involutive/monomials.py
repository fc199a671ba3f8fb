"""Monomials over a fixed, ordered variable list.

A variable context is a tuple of names; the position of a name is its
precedence, position 0 being the highest variable.  Everything built on top
(partitions, completions, polynomial bases) reuses these values unchanged,
so every operation here is pure and every value immutable.
"""
from __future__ import annotations

import contextvars
import enum
import functools
import re
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Iterator

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ContextMismatch(ValueError):
    """Operands belong to different variable contexts."""


@dataclass(frozen=True, slots=True)
class VariableContext:
    names: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        for name in self.names:
            if not _NAME.fullmatch(name):
                raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "_hash", hash(self.names))

    def __hash__(self) -> int:
        # hashed in every monomial dict lookup, so precomputed once
        return self._hash

    @classmethod
    def of(cls, *names: str) -> "VariableContext":
        return cls(tuple(names))

    @classmethod
    def parse(cls, text: str) -> "VariableContext":
        """Build a context from a comma-separated name list like ``x,y,z``."""
        return cls(tuple(part.strip() for part in text.split(",") if part.strip()))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.n)

    def variable(self, i: int) -> "Monomial":
        exps = [0] * self.n
        exps[i] = 1
        return Monomial(self, tuple(exps))

    def monomial(self, exps: Iterable[int]) -> "Monomial":
        return Monomial(self, tuple(exps))


@dataclass(frozen=True, slots=True)
class Monomial:
    """A power product of context variables, stored as a dense exponent tuple."""

    ctx: VariableContext
    exps: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.exps) != self.ctx.n:
            raise ValueError("exponent vector length does not match context")
        for e in self.exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError("exponents must be non-negative integers")
        object.__setattr__(self, "_hash", hash((self.ctx._hash, self.exps)))

    def __hash__(self) -> int:
        return self._hash

    def _check(self, other: "Monomial") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("monomials from different variable contexts")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def degree_of(self, i: int) -> int:
        """Exponent of the i-th variable, 1-based like the usual deg_i."""
        if not 1 <= i <= self.ctx.n:
            raise IndexError(f"variable index {i} out of range 1..{self.ctx.n}")
        return self.exps[i - 1]

    @property
    def is_one(self) -> bool:
        return not any(self.exps)

    def variables(self) -> tuple[int, ...]:
        """Positions of the variables that occur with a positive exponent."""
        return tuple(i for i, e in enumerate(self.exps) if e)

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def mul_var(self, i: int, power: int = 1) -> "Monomial":
        exps = list(self.exps)
        exps[i] += power
        return Monomial(self.ctx, tuple(exps))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact quotient self/other; raises ValueError when not divisible."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.ctx, tuple(a - b for a, b in zip(self.exps, other.exps)))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ctx, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.ctx.names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


class Ordering(enum.Enum):
    """Admissible monomial orderings: total, multiplicative, with 1 least."""

    LEX = "lex"
    DEGLEX = "deglex"
    DEGREVLEX = "degrevlex"

    # members are singletons; Enum's own hash of the name runs Python code
    __hash__ = object.__hash__

    @property
    def degree_compatible(self) -> bool:
        return self is not Ordering.LEX

    @classmethod
    def parse(cls, text: str) -> "Ordering":
        try:
            return cls(text.strip().lower())
        except ValueError:
            names = ", ".join(o.value for o in cls)
            raise ValueError(f"unknown ordering {text!r} (expected one of: {names})") from None

    def key(self, m: Monomial) -> tuple:
        """Sort key of m: a lower monomial has a smaller key."""
        return _ASCENDING_KEYS[self](m.exps)

    def packing(self, n: int) -> "Packing":
        """The packing of exponent vectors of length n at the field width of
        the running computation: 16 bits, or what ``_widening`` set."""
        return _packing(n, self, _BITS.get())


_ASCENDING_KEYS = {
    # the cheapest of the equivalent forms of each ordering; degrevlex is by
    # degree, then the smaller reversed-negated exponents win
    Ordering.LEX: lambda e: e,
    Ordering.DEGLEX: lambda e: (sum(e), e),
    Ordering.DEGREVLEX: lambda e: (sum(e), *[-x for x in reversed(e)]),
}


class _Overflow(Exception):
    """A packed exponent vector outgrew the fields of its packing."""


class Packing:
    """Exponent vectors of length n as ints that compare like ``ordering``
    (Monagan and Pearce, *Polynomial division using dynamic arrays, heaps,
    and packed exponent vectors*, CASC 2007).

    The int is a row of fields ``bits`` wide, each topped by a guard bit
    that a packed vector keeps clear.  The low n fields hold the exponents,
    x_1's highest.  Above them deglex adds the degree, and degrevlex the
    prefix sums e_1+..+e_k for k = 2..n, k = n on top: (e_1+..+e_n, ..,
    e_1+e_2) compares like degrevlex up to e_1, and the exponents below
    break the ties.  Every field is linear in the exponents, so the product
    of two monomials is the sum of their ints, u divides w exactly when
    ``(w - u) & guard`` is 0 (the lowest negative field borrows through its
    guard bit), and a sum of two packed vectors has outgrown a field exactly
    when ``& guard`` is not 0.  ``pack`` refuses a vector whose degree does
    not fit a field, ``mul``, ``lcm`` and the kernel a sum that outgrew
    one, by raising ``_Overflow``; ``_widening`` then runs the computation
    again on fields twice as wide.
    """

    __slots__ = ("n", "ordering", "bits", "units", "guard")

    def __init__(self, n: int, ordering: Ordering, bits: int):
        self.n, self.ordering, self.bits = n, ordering, bits
        # the prefix lengths the fields above the exponents sum, lowest first
        sums = {Ordering.LEX: (), Ordering.DEGLEX: (n,), Ordering.DEGREVLEX: range(2, n + 1)}[ordering]
        self.units = tuple([1 << (n - 1 - i) * bits | sum(1 << (n + j) * bits for j, k in enumerate(sums) if i < k) for i in range(n)])
        self.guard = sum(1 << f * bits + bits - 1 for f in range(n + len(sums)))

    def pack(self, exps: tuple[int, ...]) -> int:
        # no field exceeds the degree
        if sum(exps) >> self.bits - 1:
            raise _Overflow(self)
        return sum(map(mul, exps, self.units))

    def mul(self, u: int, v: int) -> int:
        """u + v, the packed product of two monomials, one of which may
        come as an offset that the other absorbs (a tail term minus its
        leading monomial); refused when it outgrew a field."""
        w = u + v
        if w & self.guard:
            raise _Overflow(self)
        return w

    def unpack(self, w: int) -> tuple[int, ...]:
        bits = self.bits
        field = (1 << bits) - 1
        return tuple([w >> s & field for s in range((self.n - 1) * bits, -1, -bits)])

    def lcm(self, u: int, v: int) -> int:
        """The packed lcm of the packed monomials u and v: u plus the
        packed positive part of v - u.  No field of (u | guard) - v borrows
        from the next, and one keeps its guard bit exactly where u's value
        is at least v's; m holds the value bits of those fields, so d has
        v's value minus u's in each field where v's is larger and 0
        elsewhere, with no borrow.  Each exponent field e of d that is not
        0 adds e times its variable's unit, which carries it into the
        degree or prefix-sum fields too.  An lcm whose degree outgrew a
        field sets its guard bit and is refused, as ``pack`` refuses it."""
        t = ((u | self.guard) - v) & self.guard
        m = t - (t >> self.bits - 1)
        d = (v & ~m) - (u & ~m)
        bits = self.bits
        field = (1 << bits) - 1
        w, s = u, (self.n - 1) * bits
        for unit in self.units:
            e = d >> s & field
            if e:
                w += e * unit
            s -= bits
        if w & self.guard:
            raise _Overflow(self)
        return w

    @functools.lru_cache(maxsize=None)
    def fixed(self, mult: frozenset[int]) -> int:
        """The mask of the exponent fields of the variables outside mult."""
        return sum((1 << self.bits) - 1 << (self.n - 1 - i) * self.bits for i in range(self.n) if i not in mult)


# one object per layout, so a form cached on a polynomial stays valid
_packing = functools.lru_cache(maxsize=None)(Packing)


# the field width of the running computation
_BITS: contextvars.ContextVar[int] = contextvars.ContextVar("bits", default=16)


def _widening(fn: Callable) -> Callable:
    """fn, run again on fields twice as wide while a packed exponent vector
    outgrows its packing: the width follows the largest degree the call
    meets.  A call starts at the width of the call around it, and the width
    goes back to that when it returns.  An argument that is an iterator is
    read into a tuple first, so a second run sees it whole."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        args = [tuple(a) if isinstance(a, Iterator) else a for a in args]
        kwargs = {k: tuple(a) if isinstance(a, Iterator) else a for k, a in kwargs.items()}
        bits = _BITS.get()
        while True:
            token = _BITS.set(bits)
            try:
                return fn(*args, **kwargs)
            except _Overflow as overflow:
                bits = max(bits, 2 * overflow.args[0].bits)
            finally:
                _BITS.reset(token)

    return run


def compare(u: Monomial, v: Monomial, ordering: Ordering) -> int:
    """Three-way comparison: -1 if u is lower, 0 if equal, +1 if higher."""
    u._check(v)
    a, b = ordering.key(u), ordering.key(v)
    return (a > b) - (a < b)


def monomials_up_to_degree(ctx: VariableContext, bound: int) -> Iterator[Monomial]:
    """Yield every monomial of total degree <= bound, lowest degrees first."""
    n = ctx.n

    def split(total: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in split(total - head, slots - 1):
                yield (head,) + rest

    for total in range(bound + 1):
        for exps in split(total, n):
            yield Monomial(ctx, exps)
