"""The partlat benchmark.

Usage:
    python3 bench/run.py --workload {sweep,enumerate,scale,gallery} --seed N
                         --seconds S --trace {0,1} [--quick]

Run from the root of a source checkout; partlat is imported from ``src/``.
Every timed pass runs in a fresh interpreter, so memoisation across passes
cannot count as a gain. Passes repeat until ``--seconds`` is spent, after a
per-workload minimum.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, then times the scale size series, and reports
the per-layer metrics. ``--quick`` runs the smallest input of each workload.
Times are scaled to a nominal CPU speed by the reference-loop calibration in
``bench/clock.py``; the record keeps the raw times too. Human-readable lines
come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, and the spans of a traced run, are written to ``bench/out/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402  (stdlib only; partlat is imported by the children)

WORKLOADS = ("sweep", "enumerate", "scale", "gallery")
SEED_INDEPENDENT = ("sweep", "enumerate")

# Fewest untraced passes per run.
MIN_PASSES = {"sweep": 3, "enumerate": 2, "scale": 2, "gallery": 10}

# A run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A pass could not run; the run ends without a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    # Same set iteration order in every pass, so traced counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, mode, quick, deadline):
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode]
    cmd.append(str(time.monotonic_ns()))
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} exceeded the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, modes, seconds, quick, deadline):
    """Groups of passes (one per mode) until the time is spent."""
    start = time.monotonic()
    groups, longest = [], 0.0
    min_groups = 1 if quick or len(modes) > 1 else MIN_PASSES[workload]
    while True:
        t = time.monotonic()
        groups.append([spawn(workload, seed, mode, quick, deadline) for mode in modes])
        longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        if now + longest > deadline:
            break
        if len(groups) >= min_groups and now - start + longest > seconds:
            break
    return groups


def op_medians(passes):
    """Each operation's median latency over the passes, sorted.

    A workload makes the same operations in the same order in every pass
    of a run, so position identifies the operation.
    """
    return sorted(statistics.median(xs) for xs in zip(*(p["op_s"] for p in passes)))


def tail_q(n_ops):
    """The highest whole percentile with at least ten operations beyond it,
    and at least the median."""
    return max(50, math.floor(100 * (1 - 10 / n_ops))) / 100


def quantile(ordered, q):
    """Harrell-Davis estimate of the q-quantile of sorted values.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics: where
    neighbouring operations differ a lot in latency, it moves smoothly
    instead of jumping from one operation to the next.
    """
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per_value = 200  # midpoint steps of the Beta density per order statistic
    h = 1 / (n * per_value)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(i * per_value, (i + 1) * per_value):
            x = (k + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass * h)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def git_revision():
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(passes):
    ops = op_medians(passes)
    q = tail_q(len(ops))
    value = quantile(ops, q)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (quantile(ops, 0.5) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    detail = {"tail_percentile": round(100 * q), "operations": len(ops),
              "operations_beyond_tail": sum(x > value for x in ops),
              "latency_samples": sum(len(p["op_s"]) for p in passes),
              "raw_setup_s": statistics.median(p["raw_setup_s"] for p in passes),
              "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes)}
    return metrics, detail


def per_layer(plain, traced, series):
    summaries = [tracing.summarize(p["spans"]) for p in traced]
    # Self times take their pass's overall calibration scale.
    scales = [p["wall_s"] / p["raw_wall_s"] for p in traced]
    first = summaries[0]
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s["self_s"][name] * k for s, k in zip(summaries, scales)), "s")
    for key, metric in (("join_yield", "congruence.join_yield"),
                        ("unique_ratio", "enumeration.unique_ratio")):
        num, den = first[key]
        metrics[metric] = (num / den if den else 0.0, "ratio")
    for name, value in series["series"].items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain), "s")
    detail = {
        "calls_repeat": all(s["calls"] == first["calls"] for s in summaries),
        "ratio_bases": {key: first[key] for key in ("join_yield", "unique_ratio")},
        "traced_passes": len(traced),
    }
    return metrics, detail


def write_spans(path, traced):
    with open(path, "w", encoding="utf-8") as fh:
        for pass_id, p in enumerate(traced):
            for name, start, end, parent, _ in p["spans"]:
                fh.write(json.dumps([pass_id, name, start, end, parent]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smallest input of each workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "partlat" / "__init__.py").is_file():
        print(f"error: no partlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w, seed = args.workload, args.seed
    try:
        if args.trace:
            groups = run_passes(w, seed, ("plain", "traced"), args.seconds, args.quick, deadline)
            plain = [g[0] for g in groups]
            traced = [g[1] for g in groups]
            series = spawn(w, seed, "series", args.quick, deadline)
            metrics, detail = per_layer(plain, traced, series)
            passes = plain + traced
        else:
            passes = [g[0] for g in run_passes(w, seed, ("plain",), args.seconds,
                                               args.quick, deadline)]
            metrics, detail = end_to_end(passes)
            series = None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if series is not None:
        attempted += series["attempted"]
        failed += series["failed"]
    fail_ratio = failed / attempted
    if args.trace:
        metrics["fail_ratio"] = (fail_ratio, "ratio")

    record = {
        "workload": w, "seed": seed,
        "seed_use": ("none: inputs do not depend on the seed" if w in SEED_INDEPENDENT
                     else "scale relabelling" if w == "scale" else "command order"),
        "trace": args.trace, "quick": args.quick, "seconds": args.seconds,
        "input": passes[0]["info"]["input"], "passes": len(passes),
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "git_revision": git_revision(), "nproc": os.cpu_count(),
        "closed_loop": "one client, one process, no threads",
        "attempted": attempted, "failed": failed, "fail_ratio": fail_ratio,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
        "per_pass": [{k: p.get(k) for k in ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s",
                                            "rss_mb", "attempted", "failed", "gate_error",
                                            "errors")}
                     for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w}-seed{seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        write_spans(OUT / f"spans-{stem}.jsonl", traced)

    print(f"workload {w}, seed {seed} ({record['seed_use']}), {len(passes)} passes, "
          f"input {record['input']}")
    print(f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"revision {record['git_revision']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  op_p50_ms and op_tail_ms (p{detail['tail_percentile']}) are taken over the "
              f"{detail['operations']} operations' median latencies "
              f"({detail['operations_beyond_tail']} beyond the tail; "
              f"{detail['latency_samples']} samples)")
    print(f"  fail_ratio = {fail_ratio:.6g} ({failed} of {attempted} operations)")
    failures = dict.fromkeys(err for p in passes
                             for err in [p.get("gate_error")] + p.get("errors", []) if err)
    for err in list(failures)[:10]:
        print(f"  failure: {err}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
