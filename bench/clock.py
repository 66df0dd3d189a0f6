"""Pass timer calibrated against a fixed reference loop.

The benchmark runs on shared machines whose CPU speed drifts by a quarter
or more within seconds, and process CPU time drifts with it. So a timed
pass also times a short fixed loop, the reference, whenever
``SEGMENT_S`` of work has passed and a traced entry point (see
``tracing.TRACED``) returns or the workload finishes an operation. Each
stretch of work between two reference samples is scaled by ``NOMINAL_REF_S``
over the median of the four samples nearest to it; the median ignores a
sample that the scheduler interrupted. A reported time is thus the time the
work would take on a machine where the reference loop takes
``NOMINAL_REF_S``, and it never includes the reference samples themselves.
The run record keeps the raw wall times next to the scaled ones.
"""

import statistics
from time import perf_counter

import numpy as np

import tracing

# The reference scans the bound sets of a fixed 8-element chain the way the
# library's inner loops do: small numpy masks, scalar indexing, frozensets
# and generators. A plain dict loop tracks the speed of that code much worse
# when neighbours contend for the caches.
_LEQ = np.triu(np.ones((8, 8), dtype=bool))
REF_ROUNDS = 5
# Reference time on an unloaded 2 GHz Xeon vCPU under CPython 3.11, numpy 2.4.
NOMINAL_REF_S = 0.0014
SEGMENT_S = 0.02


def reference():
    """Seconds taken by the fixed reference loop."""
    start = perf_counter()
    leq = _LEQ
    for _ in range(REF_ROUNDS):
        for a in range(8):
            for b in range(8):
                ups = frozenset(np.flatnonzero(leq[a] & leq[b]).tolist())
                sum(1 for x in ups if all(leq[x, y] for y in ups))
    return perf_counter() - start


def factor(samples):
    """Scale for work done near these reference samples."""
    return NOMINAL_REF_S / statistics.median(samples)


class Clock:
    """Context manager around one pass.

    Inside it the workload reports each operation's ``(start, end)`` with
    ``op`` and calls ``tick`` between operations. ``result`` then gives the
    scaled wall time, the scaled operation latencies and the raw wall time.
    A tracer, when given, records each reference sample as a span, so the
    samples count in no entry point's self time.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self._refs = []
        self._segments = []  # (start, end) of work between reference samples
        self._ops = []

    def __enter__(self):
        self._restore = tracing.rebind(self._ticking)
        self._sample()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self._segments.append((self._start, perf_counter()))
        self._sample()
        self._restore()

    def op(self, start, end):
        self._ops.append((start, end))

    def tick(self):
        now = perf_counter()
        if now - self._start >= SEGMENT_S:
            self._segments.append((self._start, now))
            self._sample()
            self._start = perf_counter()

    def _sample(self):
        start = perf_counter()
        self._refs.append(reference())
        if self._tracer is not None:
            self._tracer.add("clock.reference", start, perf_counter())

    def _ticking(self, name, fn):
        tick = self.tick

        def ticking(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        return ticking

    def result(self):
        """(scaled wall seconds, scaled op latencies, raw wall seconds)."""
        refs, segments = self._refs, self._segments
        scales = [factor(refs[max(0, i - 1):i + 3]) for i in range(len(segments))]
        wall = sum((end - start) * f for (start, end), f in zip(segments, scales))
        ops, i = [], 0
        for start, end in self._ops:
            while segments[i][1] <= start:
                i += 1
            scaled, j = 0.0, i
            while j < len(segments) and segments[j][0] < end:
                overlap = min(end, segments[j][1]) - max(start, segments[j][0])
                scaled += max(0.0, overlap) * scales[j]
                j += 1
            ops.append(scaled)
        return wall, ops, sum(end - start for start, end in segments)
