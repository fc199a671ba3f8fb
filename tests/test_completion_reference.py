"""Monomial completion against the loop it replaced.

``reference_completion`` re-checks the whole set with
``is_locally_involutive`` at every step and inserts the product of the
witness it reports.  ``minimal_monomial_completion`` must give the same
``CompletionResult`` (basis, status, steps, cap and every log step) on every
input, division, ordering and cap.

The divisor lookups of divergent Pommaret runs, the staircase completion
and both basis algorithms on {x*y - 1}, must make a number of exponent
comparisons that grows linearly with the cap.
"""
import random

import pytest

from involutive import (
    CompletionResult,
    CompletionStep,
    Division,
    Ordering,
    VariableContext,
    autoreduce_monomials,
    involutive_basis,
    is_locally_involutive,
    minimal_involutive_basis,
    minimal_monomial_completion,
    parse_polynomial,
)
from involutive import index, monomials

from conftest import NAMES, random_monomial_set

CTX3 = VariableContext.of("x", "y", "z")
STAIRCASE = [CTX3.monomial(e) for e in ((2, 0, 0), (1, 1, 0), (0, 0, 1))]
CAPS = (0, 1, 3, 30)


def reference_completion(division, U, ordering=Ordering.DEGLEX, cap=10000):
    """Insert the product of ``is_locally_involutive``'s witness, the lowest
    uncovered prolongation, until there is none or the cap is reached."""
    members = list(autoreduce_monomials(U))
    log = []
    while (witness := is_locally_involutive(division, members, ordering)[1]) and len(log) < cap:
        u, x = witness
        w = u.mul_var(x)
        members.append(w)
        log.append(CompletionStep(u, x, w))
    basis = tuple(sorted(members, key=ordering.key))
    return CompletionResult(basis, "cap_exceeded" if witness else "complete", len(log), cap, tuple(log))


def _random_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ctx = VariableContext.of(*NAMES[: rng.randint(2, 4)])
        yield random_monomial_set(rng, ctx, max_size=6, max_degree=5)


@pytest.mark.parametrize("ordering", list(Ordering), ids=lambda o: o.value)
@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_random_sets_match_reference(division, ordering):
    seed = 700 + 10 * list(Division).index(division) + list(Ordering).index(ordering)
    for members in _random_sets(seed, 200):
        for cap in CAPS:
            want = reference_completion(division, members, ordering, cap)
            got = minimal_monomial_completion(division, members, ordering, cap)
            assert got == want, (division, ordering, cap, members)


@pytest.mark.parametrize("division", list(Division), ids=lambda d: d.value)
def test_staircase_matches_reference(division):
    for cap in (0, 1, 5, 50, 200):
        want = reference_completion(division, STAIRCASE, Ordering.DEGLEX, cap)
        assert minimal_monomial_completion(division, STAIRCASE, Ordering.DEGLEX, cap) == want


def comparison_counts(monkeypatch, run, caps):
    """The divisor index's work while ``run(cap)`` runs at each cap: its
    divisibility tests, each a subtraction and the guard mask, and its
    bucket probes, each an AND with the mask of a member's
    non-multiplicative fields.  Each index's guard and every such mask are
    wrapped in an int that counts the ANDs it takes part in."""
    counts = []

    class Counted(int):
        def __rand__(self, other):
            counts[-1] += 1
            return other & int(self)

    init, fixed = index._Reducers.__init__, monomials.Packing.fixed

    def counted_init(self, *args):
        init(self, *args)
        self.guard = Counted(self.guard)

    monkeypatch.setattr(index._Reducers, "__init__", counted_init)
    monkeypatch.setattr(monomials.Packing, "fixed", lambda packing, mult: Counted(fixed(packing, mult)))
    for cap in caps:
        counts.append(0)
        run(cap)
    return counts


def test_divergent_staircase_work_per_doubling(monkeypatch):
    # A lookup that scanned every member made the count grow about 3.9x per
    # doubling of the cap; the index reaches only the members of one bucket
    # per group.
    def run(cap):
        assert minimal_monomial_completion(Division.POMMARET, STAIRCASE, Ordering.DEGLEX, cap).status == "cap_exceeded"

    counts = comparison_counts(monkeypatch, run, (100, 200, 400))
    assert all(b < 2.5 * a for a, b in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("algorithm", [involutive_basis, minimal_involutive_basis], ids=lambda f: f.__name__)
def test_divergent_binomial_work_per_doubling(monkeypatch, algorithm):
    # {x*y - 1} is not quasi-stable, so its Pommaret completion runs into
    # any cap; a member scan per lookup made 4x the comparisons per doubling
    ctx = VariableContext.of("x", "y")
    F = [parse_polynomial("x*y - 1", ctx, Ordering.DEGLEX)]

    def run(cap):
        assert algorithm(F, Division.POMMARET, Ordering.DEGLEX, cap=cap).status == "cap_exceeded"

    counts = comparison_counts(monkeypatch, run, (500, 1000, 2000))
    assert all(b < 2.5 * a for a, b in zip(counts, counts[1:])), counts
