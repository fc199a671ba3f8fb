#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload janet-dense --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times whole passes over the workload until
``--seconds`` have gone by and reports the median pass, plus the median of
several timed set-ups and the peak resident memory.  Times are scaled by
the host's speed on a fixed slice of plain-Python work timed between the
calls (see ``REFERENCE_EVERY``).  With ``--trace 1`` it runs a traced pass
between two untraced ones and reports the per-layer split.  Every output
is checked; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record stamped
with the environment is written under ``perfbench/records/``.
"""
from __future__ import annotations

import argparse
import datetime
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / "perfbench" / "records"
SETUP_REPEATS = 9
# On a shared host the speed drifts by tens of percent from minute to
# minute.  So the passes also time a fixed reference slice of plain Python
# (5% of the run) and report their times scaled to the speed of the host the
# benchmark was written on (see workloads.Timer); raw times stay in the record.
REFERENCE_EVERY = 0.2
# each timed set-up is scaled by the slices run right after it
SETUP_REFERENCE_SLICES = 3

sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer, layer_summary, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_SLICE_S,
    TIMERS,
    WORKLOADS,
    Tally,
    Timer,
    load_goldens,
    reference_slice,
)


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


class SetupError(RuntimeError):
    pass


def import_package():
    """Import the package afresh from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "involutive" or m.startswith("involutive.")]:
        del sys.modules[name]
    inv = importlib.import_module("involutive")
    if SRC not in Path(inv.__file__).resolve().parents:
        raise SetupError(f"involutive was imported from {inv.__file__}, not from {SRC}")
    return inv


def timed_setup(workload: str, seed: int):
    setup = WORKLOADS[workload][0]
    start = time.perf_counter()
    inv = import_package()
    inputs = setup(inv, seed)
    return time.perf_counter() - start, inv, inputs


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_timed(args, inv, inputs, tally: Tally, goldens: dict) -> tuple[dict, dict]:
    """Whole passes until the time is up; each pass's times are scaled to
    reference seconds, and the median pass is reported."""
    run_pass = WORKLOADS[args.workload][1]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        gc.collect()
        timer = Timer(every=REFERENCE_EVERY)
        run_pass(inv, inputs, timer, tally, goldens)
        timer.calibrate()
        passes.append({"raw": timer.times, "scaled": timer.scaled, "reference": timer.reference})
    metrics = {k: statistics.median(p["scaled"][k] for p in passes) for k in TIMERS}
    return metrics, {"passes": passes}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(args, inv, tally: Tally, goldens: dict) -> tuple[dict, dict]:
    """A traced pass between two untraced ones, each including input
    generation and parsing; the traced wall time over the mean untraced one
    is the tracing overhead."""
    setup, run_pass = WORKLOADS[args.workload]

    def untraced_pass() -> float:
        gc.collect()
        start = time.perf_counter()
        run_pass(inv, setup(inv, args.seed), Timer(), tally, goldens)
        return time.perf_counter() - start

    before = untraced_pass()
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        tracer.begin("root")
        results = run_pass(inv, setup(inv, args.seed), Timer(), tally, goldens)
        tracer.end()
    finally:
        tracer.uninstall()
    untraced = (before + untraced_pass()) / 2

    spans = tracer.spans
    own = self_times(spans)
    wall = spans[0][2] - spans[0][1]
    tally.check(abs(sum(own) - wall) <= 1e-6 * max(1.0, wall), "span self times do not add up to the traced wall time")
    layers = layer_summary(spans)
    counts = tracer.counts

    def span(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    stats = [r.stats for r in results if hasattr(r, "stats")]
    prolongations = sum(s.prolongations_examined for s in stats)
    hits = sum(s.criterion_hits for s in stats)
    zero = sum(s.zero_reductions for s in stats)
    nonzero = sum(s.nonzero_reductions for s in stats)
    metrics = {
        "monomials.constructed": counts["monomials.constructed"],
        "monomials.order_keys": counts["monomials.order_keys"],
        "coefficients.fraction_ops": counts["coefficients.fraction_ops"],
        "engine.nf.calls": span("engine.nf", "calls"),
        "engine.nf.self_s": span("engine.nf", "self_s"),
        "engine.nf.lookups": counts["engine.nf.lookups"],
        "engine.nf.steps": counts["engine.nf.steps"],
        "engine.nf.lookup_hit_ratio": _ratio(counts["engine.nf.steps"], counts["engine.nf.lookups"]),
        "engine.select.self_s": span("engine.select", "self_s"),
        "engine.criterion.calls": span("engine.criterion", "calls"),
        "engine.criterion.self_s": span("engine.criterion", "self_s"),
        "engine.autoreduce.self_s": span("engine.autoreduce", "self_s"),
        "engine.rebuild.self_s": span("engine.rebuild", "self_s"),
        "engine.prolongations": prolongations,
        "engine.criterion_hits": hits,
        "engine.zero_reductions": zero,
        "engine.nonzero_reductions": nonzero,
        "engine.criterion_hit_ratio": _ratio(hits, prolongations),
        "engine.useful_nf_ratio": _ratio(nonzero, zero + nonzero),
        "divisions.table.calls": span("divisions.table", "calls"),
        "divisions.table.self_s": span("divisions.table", "self_s"),
        "divisions.table.members": counts["divisions.table.members"],
        "completion.self_s": span("completion", "self_s"),
        "completion.steps": sum(r.steps for r in results if hasattr(r, "steps")),
        "polynomials.buchberger.self_s": span("polynomials.buchberger", "self_s"),
        "polynomials.normal_form.calls": span("polynomials.normal_form", "calls"),
        "polynomials.normal_form.self_s": span("polynomials.normal_form", "self_s"),
        "polynomials.autoreduce.self_s": span("polynomials.autoreduce", "self_s"),
        "polynomials.spoly.calls": counts["polynomials.spoly.calls"],
        "verify.involutive.self_s": span("verify.involutive", "self_s"),
        "verify.groebner.self_s": span("verify.groebner", "self_s"),
        "verify.same_ideal.self_s": span("verify.same_ideal", "self_s"),
        "parsing.self_s": span("parsing", "self_s"),
        "parsing.polys": span("parsing", "calls"),
        "trace.root.self_s": span("root", "self_s"),
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "trace.overhead_ratio": wall / untraced,
    }
    origin = spans[0][1]
    extra = {
        "untraced_wall_s": untraced,
        "layers": layers,
        "counts": dict(counts),
        "absent": tracer.absent,
        "spans": [[name, s - origin, e - origin, parent] for name, s, e, parent in spans],
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        if not (SRC / "involutive" / "__init__.py").is_file():
            raise SetupError(f"no package source under {SRC}")
        goldens = load_goldens()
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            elapsed, inv, inputs = timed_setup(args.workload, args.seed)
            speed = statistics.fmean(reference_slice() for _ in range(SETUP_REFERENCE_SLICES))
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * REFERENCE_SLICE_S / speed)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        metrics, extra = run_traced(args, inv, tally, goldens)
    else:
        metrics, extra = run_timed(args, inv, inputs, tally, goldens)
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    record = {
        "environment": environment(args),
        "failed_frac": tally.failed_frac,
        "failures": tally.failures,
        "setup_s_samples": setup_times,
        "setup_s_scaled": setup_scaled,
        **result,
        **extra,
    }
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for what in tally.failures:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}: {value!r} {unit_of(name)}")
    print(f"failed_frac: {tally.failed_frac!r} ratio ({tally.failed} of {tally.attempted} checks)")
    if args.trace and extra["absent"]:
        print("absent boundaries: " + ", ".join(extra["absent"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
