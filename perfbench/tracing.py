"""Spans and counters at the package's layer boundaries.

Boundary functions get a span each (name, start, end, parent), kept in
memory.  The hot inner functions are only counted, because they run
hundreds of thousands of times per case and a span per call would swamp the
run.  Wrappers are installed on every module binding of a boundary function
(``engine.multiplicative_table`` and ``divisions.multiplicative_table`` are
separate names for one function) and removed again by ``Tracer.uninstall``.

Which end-to-end metric each layer should move, on which workload:

- monomials (``Monomial`` constructions, ``Ordering.key`` calls) and
  coefficients (``Fraction`` operators): ``involutive_s`` and ``minimal_s``
  on janet-dense, ``verify_s`` on random-certify;
- engine kernel (``_nf``, ``_Reducers.find``): ``involutive_s`` and
  ``minimal_s`` on janet-dense; no change predicted on pommaret-divergent;
- engine bookkeeping (the completion calls' own time, ``_criterion_holds``,
  the autoreductions, ``_rebuild``): ``involutive_s`` and ``minimal_s`` on
  pommaret-divergent; little change predicted on janet-dense;
- divisions (``multiplicative_table``): the basis times on
  pommaret-divergent and random-certify;
- completion: ``complete_s`` on pommaret-divergent;
- polynomials, the oracle (``buchberger``, ``normal_form``, ``autoreduce``,
  ``s_polynomial``): ``verify_s`` on random-certify; no change predicted on
  pommaret-divergent;
- verification: ``verify_s`` on janet-dense and random-certify;
- parsing: ``setup_s`` on every workload.
"""
from __future__ import annotations

import fractions
import sys
import time
from collections import defaultdict

# (span name, module, attribute): functions timed as layer boundaries
SPANNED = (
    ("engine.select", "involutive.engine", "involutive_basis"),
    ("engine.select", "involutive.engine", "minimal_involutive_basis"),
    ("engine.nf", "involutive.engine", "_nf"),
    ("engine.criterion", "involutive.engine", "_criterion_holds"),
    ("engine.autoreduce", "involutive.engine", "_autoreduce_with_new"),
    ("engine.autoreduce", "involutive.engine", "involutive_autoreduce"),
    ("engine.rebuild", "involutive.engine", "_rebuild"),
    ("divisions.table", "involutive.divisions", "multiplicative_table"),
    ("completion", "involutive.completion", "minimal_monomial_completion"),
    ("polynomials.buchberger", "involutive.polynomials", "buchberger"),
    ("polynomials.normal_form", "involutive.polynomials", "normal_form"),
    ("polynomials.autoreduce", "involutive.polynomials", "autoreduce"),
    ("verify.involutive", "involutive.engine", "verify_involutive"),
    ("verify.groebner", "involutive.engine", "verify_groebner"),
    ("verify.same_ideal", "involutive.polynomials", "same_ideal"),
    ("parsing", "involutive.parsing", "parse_polynomial"),
    ("parsing", "involutive.parsing", "parse_monomial"),
)

# (counter name, module, attribute): module functions that are only counted
COUNTED_FUNCTIONS = (("polynomials.spoly.calls", "involutive.polynomials", "s_polynomial"),)

# (counter name, module, class, method): hot methods that are only counted
COUNTED_METHODS = (
    ("monomials.constructed", "involutive.monomials", "Monomial", "__post_init__"),
    ("monomials.order_keys", "involutive.monomials", "Ordering", "key"),
)

FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)

class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span i: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    # wrappers ----------------------------------------------------------

    def _spanned(self, fn, name: str):
        begin, end = self.begin, self.end
        if name == "divisions.table":
            counts = self.counts

            def wrapper(division, U, *args, **kwargs):
                counts["divisions.table.members"] += len(U)
                begin(name)
                try:
                    return fn(division, U, *args, **kwargs)
                finally:
                    end()
        else:

            def wrapper(*args, **kwargs):
                begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every package-module binding of ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "involutive" or modname.startswith("involutive.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary that exists; record the others as absent."""
        for name, modname, attr in SPANNED:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self._spanned(fn, name))
        for name, modname, attr in COUNTED_FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._rebind(fn, self._counted(fn, name))
        for name, modname, clsname, attr in COUNTED_METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is None or attr not in vars(cls):
                self.absent.append(f"{modname}.{clsname}.{attr}")
                continue
            self._patch_class(cls, attr, self._counted(vars(cls)[attr], name))
        self._install_reducer_lookup()
        for attr in FRACTION_OPERATORS:
            self._patch_class(fractions.Fraction, attr, self._counted(vars(fractions.Fraction)[attr], "coefficients.fraction_ops"))

    def _install_reducer_lookup(self) -> None:
        cls = getattr(sys.modules.get("involutive.engine"), "_Reducers", None)
        if cls is None or "find" not in vars(cls):
            self.absent.append("involutive.engine._Reducers.find")
            return
        find = vars(cls)["find"]
        counts = self.counts

        def counted_find(reducers, m):
            hit = find(reducers, m)
            counts["engine.nf.lookups"] += 1
            if hit is not None:
                counts["engine.nf.steps"] += 1
            return hit

        self._patch_class(cls, "find", counted_find)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (children clipped to the parent and merged where they overlap)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_summary(spans: list[list]) -> dict[str, dict[str, float]]:
    """Span count and summed self time per span name."""
    summary: dict[str, dict[str, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = summary.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return summary
