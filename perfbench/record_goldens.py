#!/usr/bin/env python3
"""Record the goldens of ``janet-dense`` and ``pommaret-divergent``.

    python3 perfbench/record_goldens.py

For every case it stores the status, basis size, a digest of the basis
text and the ``BasisStats``.  A complete basis is certified once with
``verify_involutive``, ``verify_groebner`` and ``same_ideal`` before it is
stored; a capped one stores the outcome of ``verify_involutive`` (or of
``is_locally_involutive`` for the monomial completion), which must report
the set as not yet involutive.  Run it only at a commit whose bases are
trusted: the benchmark counts every later mismatch as a failed operation.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import involutive as inv  # noqa: E402

from perfbench.generators import EXPECTED_JANET_SIZES  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    COMPLETION_CAP,
    GOLDENS,
    POMMARET_CAP,
    basis_record,
    completion_record,
    janet_setup,
    pommaret_setup,
    witness_text,
)


def janet_goldens() -> dict:
    division, order = inv.Division.JANET, inv.Ordering.DEGREVLEX
    out = {}
    for name, F in janet_setup(inv, 0):
        for algorithm, fn, size in (
            ("involutive", inv.involutive_basis, EXPECTED_JANET_SIZES[name][0]),
            ("minimal", inv.minimal_involutive_basis, EXPECTED_JANET_SIZES[name][1]),
        ):
            r = fn(F, division, order)
            if r.status != "complete" or len(r.basis) != size:
                raise SystemExit(f"{name}/{algorithm}: {r.status} with {len(r.basis)} members, expected {size}")
            if not (
                inv.verify_involutive(r.basis, division, order).ok
                and inv.verify_groebner(r.basis, order)
                and inv.same_ideal(r.basis, F, order)
            ):
                raise SystemExit(f"{name}/{algorithm}: basis fails certification")
            out[f"{name}/{algorithm}"] = basis_record(r)
            print(f"{name}/{algorithm}: {len(r.basis)} members, certified", flush=True)
    return out


def pommaret_goldens() -> dict:
    division, order = inv.Division.POMMARET, inv.Ordering.DEGLEX
    polys, (mono_name, monos) = pommaret_setup(inv, 0)
    out = {}
    for name, F in polys:
        for algorithm, fn in (("involutive", inv.involutive_basis), ("minimal", inv.minimal_involutive_basis)):
            r = fn(F, division, order, cap=POMMARET_CAP)
            v = inv.verify_involutive(r.basis, division, order)
            if r.status != "cap_exceeded" or v.ok:
                raise SystemExit(f"{name}/{algorithm}: expected a capped, non-involutive result")
            out[f"{name}/{algorithm}"] = {
                **basis_record(r),
                "verify": {"ok": v.ok, "reason": v.reason, "witness": witness_text(v.witness)},
            }
            print(f"{name}/{algorithm}: capped at {len(r.basis)} members", flush=True)
    c = inv.minimal_monomial_completion(division, monos, order, cap=COMPLETION_CAP)
    ok, witness = inv.is_locally_involutive(division, c.basis, order)
    if c.status != "cap_exceeded" or ok:
        raise SystemExit(f"{mono_name}/completion: expected a capped, non-involutive completion")
    out[f"{mono_name}/completion"] = {**completion_record(c), "verify": {"ok": ok, "witness": witness_text(witness)}}
    return out


def main() -> None:
    goldens = {"janet-dense": janet_goldens(), "pommaret-divergent": pommaret_goldens()}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


if __name__ == "__main__":
    main()
