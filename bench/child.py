"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED MODE SPAWN_NS [--quick]

MODE is ``plain`` (an untraced pass), ``traced`` (a pass with the span
tracer installed) or ``series`` (the per-kernel size series). SPAWN_NS is
the parent's ``time.monotonic_ns()`` taken just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
generation up to the first timed call. Prints one JSON object on stdout.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    workload, seed, mode, spawn_ns = argv[0], int(argv[1]), argv[2], int(argv[3])
    quick = "--quick" in argv[4:]

    import numpy
    import partlat

    if ROOT / "src" not in Path(partlat.__file__).resolve().parents:
        print(f"partlat imported from {partlat.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if mode == "series":
        out["series"], out["failed"], out["attempted"] = workloads.run_series(seed)
    else:
        prepare, run = workloads.WORKLOADS[workload]
        state = prepare(seed, quick)
        tracer = None
        if mode == "traced":
            tracer = state["tracer"] = tracing.Tracer()
            tracer.install()
        first = time.monotonic_ns()
        p = run(state)
        out.update(wall_s=p.wall_s, raw_wall_s=p.raw_wall_s, op_s=p.op_s, failed=p.failed,
                   attempted=len(p.op_s), gate_error=p.gate_error, errors=p.errors,
                   info=p.info, raw_setup_s=(first - spawn_ns) / 1e9)
        # Set-up is scaled by the pass's overall calibration: a few short
        # reference samples around set-up alone track its speed much worse.
        out["setup_s"] = out["raw_setup_s"] * p.wall_s / p.raw_wall_s
        if tracer is not None:
            out["spans"] = tracer.spans
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
