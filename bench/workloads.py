"""The benchmark's workloads: input generation, one timed pass, and its checks.

Each workload has a ``prepare(seed, quick)`` that builds its inputs and a
``run(state)`` that makes one closed-loop pass: one client, the next call
starting when the previous one returns. ``run`` returns a ``Pass``; its
checks run after the timed loop, so they count in neither ``wall_s`` nor the
per-operation latencies. Times are scaled by ``clock.Clock``.

Library calls go through module attributes (``plattice.induced_order``), never
through names bound at import time, so that the tracer's rebinding sees them.
"""

import io
import json
import random
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from clock import Clock

import partlat.cli as cli
import partlat.congruence as congruence
import partlat.enumeration as enumeration
import partlat.extension as extension
import partlat.figures as figures
import partlat.fmt as fmt
import partlat.morphism as morphism
import partlat.order as order
import partlat.plattice as plattice
import partlat.verify as verify

GOLDENS = Path(__file__).resolve().parent / "goldens" / "gallery.json"

CHECKS_PER_STRUCTURE = 8


@dataclass
class Pass:
    """One pass: scaled wall time and per-operation latencies, the raw wall
    time, per-operation verdicts, and the pass-level gate. A failed gate
    fails every operation of the pass."""

    wall_s: float
    op_s: list
    raw_wall_s: float
    op_ok: list
    gate_error: str | None = None
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def failed(self):
        if self.gate_error is not None:
            return len(self.op_s)
        return self.op_ok.count(False)


# ---------------------------------------------------------------- sweep

def prepare_sweep(seed, quick, expected=None):
    """``verify_corpus(5)``; seed-independent. ``expected`` overrides the
    (structures, checks) counts the gate compares against."""
    n = 3 if quick else 5
    counts = {3: (8, 64), 5: (76, 608)}[n]
    return {"n": n, "expected": expected or counts}


def run_sweep(state):
    results = []

    def timed(lat):
        start = perf_counter()
        out = inner(lat)
        clock.op(start, perf_counter())
        results.append(out)
        return out

    with Clock(state.get("tracer")) as clock:
        inner = verify.structure_checks
        verify.structure_checks = timed
        try:
            checked, failures = verify.verify_corpus(state["n"])
        finally:
            verify.structure_checks = inner
    timing = clock.result()
    op_ok = [len(r) == CHECKS_PER_STRUCTURE and all(ok for _, ok, _ in r) for r in results]
    got = (checked, sum(len(r) for r in results))
    p = Pass(*timing, op_ok, errors=failures[:5],
             info={"input": f"verify_corpus({state['n']})", "structures": got[0],
                   "checks": got[1]})
    if got != tuple(state["expected"]):
        p.gate_error = f"(structures, checks) = {got}, expected {tuple(state['expected'])}"
    return p


# ------------------------------------------------------------ enumerate

# Partial lattices and posets per carrier size n = 1..6 (posets: OEIS A000112).
PLATTICE_COUNTS = (1, 2, 5, 15, 53, 222)
POSET_COUNTS = (1, 2, 5, 16, 63, 318)


def prepare_enumerate(seed, quick, expected=None):
    """Stream ``enumerate_partial_lattices(6)``; seed-independent.
    ``expected`` overrides the (partial lattice, poset) counts per n."""
    n = 4 if quick else 6
    return {"n": n, "expected": expected or (PLATTICE_COUNTS[:n], POSET_COUNTS[:n])}


def run_enumerate(state):
    posets = {}

    def counted(n):
        out = inner(n)
        posets[n] = len(out)
        return out

    produced = []
    with Clock(state.get("tracer")) as clock:
        inner = enumeration.all_posets
        enumeration.all_posets = counted
        try:
            stream = enumeration.enumerate_partial_lattices(state["n"])
            while True:
                t = perf_counter()
                try:
                    lat = next(stream)
                except StopIteration:
                    break
                clock.op(t, perf_counter())
                produced.append(lat)
                clock.tick()
        finally:
            enumeration.all_posets = inner
    timing = clock.result()

    op_ok, errors = [], []
    for lat in produced:
        try:
            plattice.validate_partial_lattice(lat.labels, lat.join, lat.meet)
            op_ok.append(True)
        except Exception as exc:  # a wrong structure is a failed operation
            op_ok.append(False)
            errors.append(f"{lat!r}: {type(exc).__name__}: {exc}")
    per_n = [sum(1 for lat in produced if lat.n == n) for n in range(1, state["n"] + 1)]
    got = (tuple(per_n), tuple(posets.get(n) for n in range(1, state["n"] + 1)))
    want = tuple(tuple(c) for c in state["expected"])
    p = Pass(*timing, op_ok, errors=errors[:5],
             info={"input": f"enumerate_partial_lattices({state['n']})",
                   "plattices_per_n": got[0], "posets_per_n": got[1]})
    if got != want:
        p.gate_error = f"(partial lattices, posets) per n = {got}, expected {want}"
    return p


# ---------------------------------------------------------------- scale

SCALE = (("boolean", 4), ("boolean", 5), ("boolean", 6), ("chain", 6), ("chain", 7),
         ("chain", 8), ("M", 4), ("M", 8), ("M", 12), ("N5", None))
SCALE_QUICK = (("boolean", 4), ("chain", 6), ("M", 4), ("N5", None))
NO_CONGRUENCES = {("boolean", 6)}


def expected_congruences(kind, size):
    if kind == "chain":
        return 2 ** (size - 1)
    if kind == "boolean":
        return 2 ** size
    return 2 if kind == "M" else 5


def _relabel(lat, perm):
    """Copy of a lattice with element i moved to index perm[i]."""
    inv = np.argsort(perm)
    p = np.asarray(perm)
    labels = tuple(lat.labels[i] for i in inv)
    leq = lat.leq[np.ix_(inv, inv)]
    join = p[lat.join[np.ix_(inv, inv)]]
    meet = p[lat.meet[np.ix_(inv, inv)]]
    return labels, leq, join, meet


def _document(labels, join, meet):
    lines = ["plattice", "elements " + " ".join(labels)]
    for op, table in (("join", join), ("meet", meet)):
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if table[i, j] != plattice.UNDEF:
                    lines.append(f"{op} {labels[i]} {labels[j]} = {labels[table[i, j]]}")
    return "\n".join(lines) + "\n"


def _puncture(labels, leq, join, meet):
    """The partial lattice left when the bounds are removed."""
    n = len(labels)
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    top = int(np.flatnonzero(leq.all(axis=0))[0])
    keep = [i for i in range(n) if i not in (bottom, top)]
    pos = np.full(n, plattice.UNDEF, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    sub = np.ix_(keep, keep)
    return plattice.PartialLattice([labels[i] for i in keep], pos[join[sub]], pos[meet[sub]])


def scale_input(kind, size, rng):
    """Seeded relabelling of a named lattice, its document and punctured form."""
    original = order.named_lattice(kind, size)
    perm = rng.sample(range(original.n), original.n)
    labels, leq, join, meet = _relabel(original, perm)
    return {
        "name": kind if size is None else f"{kind}{size}", "kind": kind, "size": size,
        "original": original, "labels": labels, "leq": leq, "join": join, "meet": meet,
        "text": _document(labels, join, meet),
        "punctured": _puncture(labels, leq, join, meet),
        "congruences": (kind, size) not in NO_CONGRUENCES,
    }


def prepare_scale(seed, quick, expected=None):
    """Named lattices of growing size, each relabelled by a seeded permutation.
    ``expected`` overrides the congruence count per lattice name."""
    rng = random.Random(seed)
    inputs = [scale_input(kind, size, rng) for kind, size in (SCALE_QUICK if quick else SCALE)]
    counts = {x["name"]: expected_congruences(x["kind"], x["size"]) for x in inputs}
    counts.update(expected or {})
    return {"inputs": inputs, "congruences": counts}


def _scale_check(x, op, result, want_congruences):
    """Whether one call's result is right; raises nothing on wrong results."""
    distributive = x["kind"] in ("chain", "boolean")
    if op == "build":
        return (result.labels == x["labels"] and (result.join == x["join"]).all()
                and (result.meet == x["meet"]).all())
    if op == "induced_order":
        return bool((result.leq == x["leq"]).all())
    if op == "is_plos":
        return bool(result)
    if op == "from_plos":
        return (result.join == x["join"]).all() and (result.meet == x["meet"]).all()
    if op in ("absorption_weak", "absorption_strong"):
        return result.holds
    if op in ("check_distributivity", "is_distributive"):
        return bool(result) == distributive
    if op == "is_modular":
        return result == (x["kind"] != "N5")
    if op == "two_point_extension":
        added = () if x["kind"] == "chain" else ("bottom", "top")
        return result.added == added and result.star.n == x["punctured"].n + len(added)
    if op == "find_isomorphism":
        if result is None:
            return False
        m = np.asarray(result.forward.mapping)
        return (sorted(m) == list(range(len(m)))
                and bool((x["original"].leq[np.ix_(m, m)] == x["leq"]).all()))
    if op == "all_congruences":
        return len(result) == want_congruences
    raise ValueError(op)


def scale_calls(x, timed):
    """The calls made on one lattice, each through ``timed(x, op, fn, *args)``."""
    lat = timed(x, "build", lambda text: fmt.build(fmt.parse(text)), x["text"])
    p = timed(x, "induced_order", plattice.induced_order, lat)
    timed(x, "is_plos", order.is_plos, p)
    timed(x, "from_plos", plattice.from_plos, p)
    timed(x, "absorption_weak", plattice.check_absorption, lat, "weak")
    timed(x, "absorption_strong", plattice.check_absorption, lat, "strong")
    timed(x, "check_distributivity", plattice.check_distributivity, lat)
    k = order.Lattice(p, lat.join, lat.meet)
    timed(x, "is_distributive", order.is_distributive, k)
    timed(x, "is_modular", order.is_modular, k)
    timed(x, "two_point_extension", extension.two_point_extension, x["punctured"])
    timed(x, "find_isomorphism", morphism.find_isomorphism, k, x["original"])
    if x["congruences"]:
        timed(x, "all_congruences", congruence.all_congruences, k)


def run_scale(state):
    done = []

    def timed(x, op, call, *args):
        t = perf_counter()
        result = call(*args)
        clock.op(t, perf_counter())
        done.append((x, op, result))
        clock.tick()
        return result

    with Clock(state.get("tracer")) as clock:
        for x in state["inputs"]:
            scale_calls(x, timed)
    timing = clock.result()
    op_ok, errors = [], []
    for x, op, result in done:
        ok = bool(_scale_check(x, op, result, state["congruences"][x["name"]]))
        op_ok.append(ok)
        if not ok:
            errors.append(f"{x['name']} {op}: wrong result")
    names = [x["name"] for x in state["inputs"]]
    return Pass(*timing, op_ok, errors=errors[:5],
                info={"input": f"{len(names)} lattices, n up to "
                               f"{max(len(x['labels']) for x in state['inputs'])}: "
                               + " ".join(names)})


# -------------------------------------------------------------- gallery

MALFORMED = "plattice\nelements a b\njoin a b c\n"
BOWTIE = "poset\nelements a b c d\nrel a<c\nrel a<d\nrel b<c\nrel b<d\n"
ISO_PAIRS = (("N5", "N5"), ("M3", "M3"), ("chain4", "chain4"), ("boolean2", "boolean2"),
             ("boolean3", "boolean3"), ("chain4", "boolean2"), ("M3", "N5"))


def gallery_commands():
    """Fixed command set as (id, argv, stdin text or None), in canonical order."""
    cmds = []
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig9"):
        text = figures.SOURCE_TEXTS[fig]
        for argv in (["validate"], ["order"], ["order", "--dot"], ["extend"],
                     ["extend", "--dot"], ["onepoint"], ["congruences"]):
            cmds.append((" ".join([argv[0], fig] + argv[1:]), argv[:1] + ["-"] + argv[1:], text))
    for fig, classes in (("fig4", figures.FIG4_CLASSES), ("fig9", figures.FIG9_CLASSES_BD),
                         ("fig9", figures.FIG9_CLASSES_AC), ("fig9", figures.FIG9_CLASSES_BC)):
        cmds.append((f"quotient {fig} {classes}", ["quotient", "-", "--classes", classes],
                     figures.SOURCE_TEXTS[fig]))
    for fig in figures.FIGURES:
        cmds.append((f"demo {fig}", ["demo", fig], None))
    for a, b in ISO_PAIRS:
        cmds.append((f"iso {a} {b}", ["iso", a, b], None))
    cmds.append(("iso fig3 boolean2", ["iso", "-", "boolean2"], figures.FIG3_TEXT))
    cmds.append(("verify --n 3", ["verify", "--n", "3"], None))
    cmds.append(("validate malformed", ["validate", "-"], MALFORMED))
    cmds.append(("extend bowtie", ["extend", "-"], BOWTIE))
    return cmds


def run_command(argv, stdin_text):
    """One in-process ``cli()`` call: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.cli(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def prepare_gallery(seed, quick, expected=None):
    """CLI commands in a seeded order. ``expected`` overrides the goldens."""
    cmds = gallery_commands()
    random.Random(seed).shuffle(cmds)
    goldens = expected or json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {"commands": cmds, "goldens": goldens}


def run_gallery(state):
    done = []
    with Clock(state.get("tracer")) as clock:
        for cid, argv, text in state["commands"]:
            t = perf_counter()
            code, out = run_command(argv, text)
            clock.op(t, perf_counter())
            done.append((cid, code, out))
            clock.tick()
    timing = clock.result()
    op_ok, errors = [], []
    for cid, code, out in done:
        golden = state["goldens"].get(cid)
        ok = golden is not None and golden["exit"] == code and golden["stdout"] == out
        op_ok.append(ok)
        if not ok:
            errors.append(f"{cid}: exit {code}, stdout differs from golden")
    return Pass(*timing, op_ok, errors=errors[:5],
                info={"input": f"{len(done)} cli() commands"})


WORKLOADS = {
    "sweep": (prepare_sweep, run_sweep),
    "enumerate": (prepare_enumerate, run_enumerate),
    "scale": (prepare_scale, run_scale),
    "gallery": (prepare_gallery, run_gallery),
}

# ---------------------------------------------------------- size series

SERIES = (
    ("plattice.validate_partial_lattice", ("boolean4", "boolean5", "boolean6")),
    ("order.is_plos", ("boolean4", "boolean5", "boolean6")),
    ("plattice.from_plos", ("boolean4", "boolean5", "boolean6")),
    ("plattice.check_distributivity", ("boolean4", "boolean5", "boolean6")),
    ("extension.two_point_extension", ("boolean4", "boolean5", "boolean6")),
    ("morphism.find_isomorphism", ("boolean4", "boolean5", "boolean6")),
    ("congruence.all_congruences", ("chain6", "chain7", "chain8", "boolean4", "boolean5")),
)
SERIES_LATTICES = (("boolean", 4), ("boolean", 5), ("boolean", 6),
                   ("chain", 6), ("chain", 7), ("chain", 8))

# Repeat a kernel until this much time is spent or MAX_REPEATS is reached.
SERIES_BUDGET_S = 0.05
MAX_REPEATS = 15


def _series_kernel(fn, x):
    """(name of the scale check that applies, call) for one kernel on one lattice."""
    lat = plattice.PartialLattice(x["labels"], x["join"], x["meet"])
    p = order.Poset(x["labels"], x["leq"])
    k = order.Lattice(p, x["join"], x["meet"])
    return {
        "plattice.validate_partial_lattice": (
            "build", lambda: plattice.validate_partial_lattice(x["labels"], x["join"], x["meet"])),
        "order.is_plos": ("is_plos", lambda: order.is_plos(p)),
        "plattice.from_plos": ("from_plos", lambda: plattice.from_plos(p)),
        "plattice.check_distributivity": (
            "check_distributivity", lambda: plattice.check_distributivity(lat)),
        "extension.two_point_extension": (
            "two_point_extension", lambda: extension.two_point_extension(x["punctured"])),
        "morphism.find_isomorphism": (
            "find_isomorphism", lambda: morphism.find_isomorphism(k, x["original"])),
        "congruence.all_congruences": (
            "all_congruences", lambda: congruence.all_congruences(k)),
    }[fn]


def run_series(seed):
    """Each kernel timed directly, untraced, on the seeded relabelled lattices.

    Returns ({metric name: median seconds}, failed checks, attempted checks).
    """
    rng = random.Random(seed)
    inputs = {}
    for kind, size in SERIES_LATTICES:
        x = scale_input(kind, size, rng)
        inputs[x["name"]] = x
    values, failed, attempted = {}, 0, 0
    for fn, lats in SERIES:
        for name in lats:
            x = inputs[name]
            op, call = _series_kernel(fn, x)
            spent, reps = 0.0, 0
            with Clock() as clock:
                while spent < SERIES_BUDGET_S and reps < MAX_REPEATS:
                    start = perf_counter()
                    result = call()
                    end = perf_counter()
                    clock.op(start, end)
                    spent += end - start
                    reps += 1
                    clock.tick()
            attempted += 1
            if not _scale_check(x, op, result, expected_congruences(x["kind"], x["size"])):
                failed += 1
            values[f"{fn}.{name}_s"] = statistics.median(clock.result()[1])
    return values, failed, attempted
