"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest bench/test_bench.py -q
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    assert "fail_ratio = 0 " in proc.stdout


def test_corrupted_golden_fails_its_operation():
    state = workloads.prepare_gallery(1, quick=True)
    goldens = json.loads(json.dumps(state["goldens"]))
    goldens["demo fig5"]["stdout"] += " "
    goldens["iso M3 N5"]["exit"] = 0
    p = workloads.run_gallery(dict(state, goldens=goldens))
    assert p.failed == 2 and p.failed / len(p.op_s) > 0


@pytest.mark.parametrize("workload, expected", [
    ("sweep", (9, 64)),
    ("enumerate", ((1, 2, 5, 15), (1, 2, 5, 15))),
])
def test_corrupted_expected_count_fails_the_pass(workload, expected):
    prepare, run = workloads.WORKLOADS[workload]
    p = run(prepare(1, True, expected=expected))
    assert p.gate_error and p.failed == len(p.op_s) > 0


def test_corrupted_congruence_count_fails_its_operation():
    p = workloads.run_scale(workloads.prepare_scale(1, True, expected={"N5": 4}))
    assert p.failed == 1 and "N5 all_congruences" in p.errors[0]


def traced_sweep(n):
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        workloads.verify.verify_corpus(n)
    finally:
        restore()
    return tracing.summarize(tracer.spans)


def test_traced_counts_equal_cprofile_counts_and_repeat():
    first = traced_sweep(5)
    again = traced_sweep(5)
    assert again["calls"] == first["calls"]
    assert again["join_yield"] == first["join_yield"]
    assert again["unique_ratio"] == first["unique_ratio"]

    profile = cProfile.Profile()
    profile.runcall(workloads.verify.verify_corpus, 5)
    profiled = {}
    for (filename, _, fn), (_, calls, *_rest) in pstats.Stats(profile).stats.items():
        path = Path(filename)
        if path.parent.name == "partlat":
            profiled[f"{path.stem}.{fn}"] = calls
    for name in tracing.NAMES:
        assert first["calls"][name] == profiled.get(name, 0), name
    assert first["calls"]["verify.structure_checks"] == 76


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench_run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
