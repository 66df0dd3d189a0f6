"""Capture the gallery goldens: stdout and exit code of every gallery command.

Usage: PYTHONPATH=src python3 bench/capture_goldens.py

Run it on the commit whose CLI output is the reference; the gallery workload
then requires every later commit to reproduce these outputs byte for byte.
"""

import json

import workloads


def main():
    goldens = {}
    for cid, argv, text in workloads.gallery_commands():
        code, out = workloads.run_command(argv, text)
        goldens[cid] = {"exit": code, "stdout": out}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, ensure_ascii=False) + "\n",
                                 encoding="utf-8")
    print(f"{len(goldens)} goldens written to {workloads.GOLDENS}")


if __name__ == "__main__":
    main()
