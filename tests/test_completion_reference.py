"""Monomial completion against the loop it replaced.

``reference_completion`` re-checks the whole set with
``is_locally_involutive`` at every step and inserts the product of the
witness it reports.  ``minimal_monomial_completion`` must give the same
``CompletionResult`` (basis, status, steps, cap and every log step) on every
input, division, ordering and cap.
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
    is_locally_involutive,
    minimal_monomial_completion,
)
from involutive.polynomials import _Reducers

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


def cover_test_counts(monkeypatch, complete):
    """Cover tests while ``complete`` runs the divergent Pommaret staircase
    to caps 100, 200 and 400: the members each divisor lookup of the
    completion's index tests, up to the cover it returns or all of them."""
    counts = []
    find = _Reducers.find

    def counted(index, exps):
        cover = find(index, exps)
        counts[-1] += len(index.keys) if cover is None else index.keys.index(index.key(cover)) + 1
        return cover

    monkeypatch.setattr(_Reducers, "find", counted)
    for cap in (100, 200, 400):
        counts.append(0)
        assert complete(Division.POMMARET, STAIRCASE, Ordering.DEGLEX, cap).status == "cap_exceeded"
    return counts


def test_divergent_staircase_work_per_doubling(monkeypatch):
    # The re-checking loop multiplies the count by about 8 per doubling of
    # the cap; the heap by about 4 (one scan of the members per insertion).
    counts = cover_test_counts(monkeypatch, minimal_monomial_completion)
    assert all(b < 5 * a for a, b in zip(counts, counts[1:])), counts
