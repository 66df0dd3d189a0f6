"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points listed in ``TRACED`` by rebinding
each name in every ``partlat`` module namespace that holds it, so calls made
between library modules are seen as well as calls made by the benchmark. The
calibrated clock uses the same rebinding to sample its reference loop when a
traced entry point returns.
Spans stay in memory as ``[name, start, end, parent, size]`` lists; the run
writes them out when it ends. ``size`` is the length of the result for the
functions in ``SIZED`` and ``None`` otherwise.
"""

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "order": ("is_plos", "validate_lattice", "make_poset", "is_distributive", "is_modular"),
    "plattice": ("validate_partial_lattice", "induced_order", "from_plos",
                 "check_absorption", "check_distributivity"),
    "extension": ("two_point_extension",),
    "congruence": ("generate_congruence", "all_congruences", "all_partial_congruences",
                   "is_congruence_on_partial", "quotient", "con_is_closed_under_meets"),
    "morphism": ("check_hom", "order_isomorphism", "find_isomorphism", "canonical_projection",
                 "extend_hom", "restrict_hom", "quotient_extension_iso"),
    "enumeration": ("all_posets", "canonical_form"),
    "fmt": ("parse", "build", "format_document", "emit_dot"),
    "verify": ("structure_checks",),
    "cli": ("cli",),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# Results whose length feeds a useful-work ratio.
SIZED = frozenset(("congruence.all_congruences", "enumeration.all_posets"))


def rebind(wrap):
    """Replace each traced entry point by ``wrap(name, fn)`` in every loaded
    ``partlat`` module namespace that holds it; returns a function that puts
    the originals back."""
    for module in TRACED:
        importlib.import_module("partlat." + module)
    modules = [m for name, m in sys.modules.items()
               if name == "partlat" or name.startswith("partlat.")]
    swapped = []
    for module, fns in TRACED.items():
        home = sys.modules["partlat." + module]
        for fn in fns:
            original = getattr(home, fn)
            wrapped = wrap(f"{module}.{fn}", original)
            for mod in modules:
                if vars(mod).get(fn) is original:
                    setattr(mod, fn, wrapped)
                    swapped.append((mod, fn, original, wrapped))

    def restore():
        for mod, fn, original, wrapped in swapped:
            if vars(mod).get(fn) is wrapped:
                setattr(mod, fn, original)

    return restore


class Tracer:
    """Collects one span per call into a traced entry point."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self):
        return rebind(self._wrap)

    def add(self, name, start, end):
        """Record work done outside any traced call, as a child of the
        innermost open span, so that it counts in no self time."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sized:
                span[4] = len(result)
            return result

        return traced


def summarize(spans):
    """Per-name call counts and self times, plus the useful-work ratios.

    Self time is a span's duration minus the time covered by its direct
    children. ``join_yield`` counts congruences returned by
    ``all_congruences`` against ``generate_congruence`` calls made inside
    it; ``unique_ratio`` counts posets returned by ``all_posets`` against
    ``canonical_form`` calls. A ratio whose layer never ran is reported as
    0 with a zero denominator.
    """
    child_time = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[index]
    # Names outside NAMES, such as the clock's reference samples, are dropped.

    def inside(index, ancestor):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    returned = sum(s[4] for s in spans if s[0] == "congruence.all_congruences")
    generated = sum(1 for i, s in enumerate(spans)
                    if s[0] == "congruence.generate_congruence"
                    and inside(i, "congruence.all_congruences"))
    posets = sum(s[4] for s in spans if s[0] == "enumeration.all_posets")
    canon = calls["enumeration.canonical_form"]
    return {
        "calls": {name: calls[name] for name in NAMES},
        "self_s": {name: self_s[name] for name in NAMES},
        "join_yield": (returned, generated),
        "unique_ratio": (posets, canon),
    }
