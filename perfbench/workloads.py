"""The three workloads: inputs, one timed pass, and the check of every output.

Each workload loads a different layer of the package:

- ``janet-dense``: cyclic-5 and katsura-5 under Janet and degrevlex, so the
  involutive reduction kernel and exact arithmetic do most of the work;
- ``pommaret-divergent``: binomial and monomial inputs that are not
  quasi-stable, so Pommaret completion runs into its cap and the cost is the
  completion bookkeeping, not the kernel;
- ``random-certify``: seeded zero-dimensional ideals under all five divisions,
  each output certified by the conventional oracle, so ``normal_form`` and
  Buchberger do most of the work.

Every workload reports every end-to-end metric.  ``involutive_s`` and
``minimal_s`` time the two basis algorithms.  ``complete_s`` times
``minimal_monomial_completion``: on janet-dense the Janet completion of each
minimal basis's leading ideal (repeated, it takes milliseconds), on
pommaret-divergent the capped staircase, on random-certify each ideal's
leading monomials under every division.  ``verify_s`` times the
certification calls: ``verify_involutive`` on janet-dense;
``verify_involutive`` and ``is_locally_involutive`` on pommaret-divergent,
which must report each capped set as not yet involutive; and
``verify_involutive``, ``verify_groebner`` and ``same_ideal`` on
random-certify.

The package is passed in as a module object (``inv``) rather than imported
here, so the set-up can re-import it for each timed repetition.
"""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
import time
from fractions import Fraction
from pathlib import Path

from .generators import EXPECTED_JANET_SIZES, ZERO_DIM_VARIABLES, cyclic, katsura, zero_dim_family

GOLDENS = Path(__file__).resolve().parent / "goldens.json"

# Cost grows quadratically with the cap: at 1000 one pass takes over 20 s.
# 400 keeps a pass near 7 s, so a run holds several passes, and the capped
# bases are still large enough for the bookkeeping to dominate.
POMMARET_CAP = 400
COMPLETION_CAP = 200
# one Janet completion of a leading ideal takes a few milliseconds, so it is
# repeated to give complete_s a measurable size on janet-dense
COMPLETION_REPEATS = 150
RANDOM_IDEALS = 40

POMMARET_CASES = (
    ("xy-binomial", ("x", "y"), ("x*y - 1",)),
    ("staircase", ("x", "y", "z"), ("x^2", "x*y", "z")),
)

TIMERS = ("involutive_s", "minimal_s", "complete_s", "verify_s")


class Tally:
    """Checked operations and the ones whose output failed its check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _reference_key(m: tuple) -> tuple:
    return (sum(m), m)


def reference_slice() -> float:
    """Time one fixed unit of plain-Python work that uses nothing from the
    package: tuple keys in a dict, a max-key scan and Fraction sums, the mix
    the reduction loops are made of."""
    start = time.perf_counter()
    work: dict[tuple, int] = {}
    for i in range(3000):
        key = (i % 7, i % 5, i % 3, i % 2)
        work[key] = work.get(key, 0) + (i * 31) % 17
    total = Fraction(0)
    while work:
        m = max(work, key=_reference_key)
        total += Fraction(work.pop(m), 1 + sum(m))
    return time.perf_counter() - start


# a reference slice takes about this long on the host the benchmark was
# written on; scaled times are in seconds of that host
REFERENCE_SLICE_S = 0.01


class Timer:
    """Sums the time of the measured calls of one pass, per metric.

    With ``every`` > 0 it also runs reference slices, one for each ``every``
    seconds of measured calls, and scales the calls made since the previous
    batch by the mean slice time of that batch and this one.  A shared
    host's speed drifts from second to second and from minute to minute;
    the scaled times follow the work, not the host.
    """

    def __init__(self, every: float = 0.0):
        self.times = dict.fromkeys(TIMERS, 0.0)
        self.scaled = dict.fromkeys(TIMERS, 0.0)
        self.reference: list[float] = []
        self.every = every
        self._pending = dict.fromkeys(TIMERS, 0.0)
        self._since = 0.0
        self._previous: float | None = None

    def __call__(self, key: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.times[key] += elapsed
        if self.every:
            self._pending[key] += elapsed
            self._since += elapsed
            if self._since >= self.every:
                self.calibrate()
        return out

    def calibrate(self) -> None:
        """Run a batch of reference slices and scale the pending calls."""
        batch = [reference_slice() for _ in range(max(1, int(self._since / self.every)))]
        self.reference += batch
        current = statistics.fmean(batch)
        speed = current if self._previous is None else (current + self._previous) / 2
        for key, elapsed in self._pending.items():
            self.scaled[key] += elapsed * REFERENCE_SLICE_S / speed
        self._pending = dict.fromkeys(TIMERS, 0.0)
        self._since = 0.0
        self._previous = current


def digest(items) -> str:
    return hashlib.sha256("\n".join(str(x) for x in items).encode()).hexdigest()


def basis_record(result) -> dict:
    return {
        "status": result.status,
        "size": len(result.basis),
        "digest": digest(result.basis),
        "stats": dataclasses.asdict(result.stats),
    }


def completion_record(result) -> dict:
    return {
        "status": result.status,
        "size": len(result.basis),
        "steps": result.steps,
        "digest": digest(result.basis),
    }


def matches(got: dict, want: dict) -> bool:
    """Compare a record with its golden.  Only the recorded stats fields are
    compared, so a counter added to ``BasisStats`` later is not a mismatch."""
    for key, value in want.items():
        if key == "stats":
            if any(got["stats"].get(k) != v for k, v in value.items()):
                return False
        elif key != "verify" and got[key] != value:
            return False
    return True


def witness_text(witness) -> str:
    return " | ".join(str(w) for w in witness) if witness else ""


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def certify(inv, basis, F, division, ordering, timer: Timer) -> bool:
    """The checks ``basis --verify`` makes: involutive, Groebner, same ideal."""
    involutive = timer("verify_s", inv.verify_involutive, basis, division, ordering).ok
    groebner = timer("verify_s", inv.verify_groebner, basis, ordering)
    ideal = timer("verify_s", inv.same_ideal, basis, F, ordering)
    return involutive and groebner and ideal


def _parse_all(inv, names, lines, ordering):
    ctx = inv.VariableContext(tuple(names))
    return [inv.parse_polynomial(line, ctx, ordering) for line in lines]


# janet-dense ---------------------------------------------------------------

def janet_setup(inv, seed: int):
    order = inv.Ordering.DEGREVLEX
    return [
        ("cyclic-5", _parse_all(inv, *cyclic(5), order)),
        ("katsura-5", _parse_all(inv, *katsura(5), order)),
    ]


def janet_pass(inv, inputs, timer: Timer, tally: Tally, goldens: dict) -> list:
    division, order = inv.Division.JANET, inv.Ordering.DEGREVLEX
    expected = goldens["janet-dense"]
    results = []
    for name, F in inputs:
        r_inv = timer("involutive_s", inv.involutive_basis, F, division, order)
        r_min = timer("minimal_s", inv.minimal_involutive_basis, F, division, order)
        sizes = EXPECTED_JANET_SIZES[name]
        for algorithm, r, size in (("involutive", r_inv, sizes[0]), ("minimal", r_min, sizes[1])):
            key = f"{name}/{algorithm}"
            tally.check(matches(basis_record(r), expected[key]) and len(r.basis) == size, f"{key}: golden mismatch")
            ok = timer("verify_s", inv.verify_involutive, r.basis, division, order).ok
            tally.check(ok, f"{key}: verify_involutive failed")
        # the Janet completion of the leading ideal must give back the
        # leading monomials of the minimal Janet basis
        lead = {p.lm for p in r_min.basis}
        generators = inv.autoreduce_monomials(lead)
        # the milliseconds-long completions should not pay for the garbage
        # the basis runs left behind
        gc.collect()
        for _ in range(COMPLETION_REPEATS):
            c = timer("complete_s", inv.minimal_monomial_completion, division, generators, order)
            tally.check(c.status == "complete" and set(c.basis) == lead, f"{name}/completion: leading ideal mismatch")
        results += [r_inv, r_min, c]
    return results


# pommaret-divergent --------------------------------------------------------

def pommaret_setup(inv, seed: int):
    order = inv.Ordering.DEGLEX
    polys = [(name, _parse_all(inv, names, lines, order)) for name, names, lines in POMMARET_CASES]
    name, names, lines = POMMARET_CASES[1]
    ctx = inv.VariableContext(names)
    monos = [inv.parse_monomial(line, ctx) for line in lines]
    return polys, (name, monos)


def pommaret_pass(inv, inputs, timer: Timer, tally: Tally, goldens: dict) -> list:
    division, order = inv.Division.POMMARET, inv.Ordering.DEGLEX
    expected = goldens["pommaret-divergent"]
    polys, (mono_name, monos) = inputs
    results = []
    for name, F in polys:
        for algorithm, fn, key_s in (
            ("involutive", inv.involutive_basis, "involutive_s"),
            ("minimal", inv.minimal_involutive_basis, "minimal_s"),
        ):
            key = f"{name}/{algorithm}"
            r = timer(key_s, fn, F, division, order, cap=POMMARET_CAP)
            want = expected[key]
            tally.check(r.status == "cap_exceeded" and matches(basis_record(r), want), f"{key}: golden mismatch")
            # the capped set must really be non-involutive, with the
            # recorded lowest uncovered prolongation as witness
            v = timer("verify_s", inv.verify_involutive, r.basis, division, order)
            tally.check(
                {"ok": v.ok, "reason": v.reason, "witness": witness_text(v.witness)} == want["verify"],
                f"{key}: verification outcome mismatch",
            )
            results.append(r)
    key = f"{mono_name}/completion"
    c = timer("complete_s", inv.minimal_monomial_completion, division, monos, order, cap=COMPLETION_CAP)
    want = expected[key]
    tally.check(c.status == "cap_exceeded" and matches(completion_record(c), want), f"{key}: golden mismatch")
    ok, witness = timer("verify_s", inv.is_locally_involutive, division, c.basis, order)
    tally.check({"ok": ok, "witness": witness_text(witness)} == want["verify"], f"{key}: verification outcome mismatch")
    results.append(c)
    return results


# random-certify ------------------------------------------------------------

def random_setup(inv, seed: int):
    out = []
    for ordering_name, lines in zero_dim_family(seed, RANDOM_IDEALS):
        order = inv.Ordering.parse(ordering_name)
        out.append((order, _parse_all(inv, ZERO_DIM_VARIABLES, lines, order)))
    return out


def random_pass(inv, inputs, timer: Timer, tally: Tally, goldens: dict) -> list:
    results = []
    for k, (order, F) in enumerate(inputs):
        lead = [p.lm for p in F]
        for division in inv.Division:
            tag = f"ideal {k} {division.value} {order.value}"
            r_inv = timer("involutive_s", inv.involutive_basis, F, division, order)
            r_min = timer("minimal_s", inv.minimal_involutive_basis, F, division, order)
            for algorithm, r in (("involutive", r_inv), ("minimal", r_min)):
                ok = r.status == "complete" and certify(inv, r.basis, F, division, order, timer)
                tally.check(ok, f"{tag} {algorithm}: not certified")
            c = timer("complete_s", inv.minimal_monomial_completion, division, lead, order)
            ok = (
                c.status == "complete"
                and inv.is_locally_involutive(division, c.basis, order)[0]
                and set(inv.autoreduce_monomials(lead)) <= set(c.basis)
            )
            tally.check(ok, f"{tag} completion: not involutive")
            results += [r_inv, r_min, c]
    return results


WORKLOADS = {
    "janet-dense": (janet_setup, janet_pass),
    "pommaret-divergent": (pommaret_setup, pommaret_pass),
    "random-certify": (random_setup, random_pass),
}
