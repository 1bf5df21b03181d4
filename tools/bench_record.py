"""Record one benchmark snapshot of this tree as BENCH_<label>.json at the root.

    python tools/bench_record.py LABEL

Runs the unchanged ``perfbench/run.py`` once per workload (tabulate,
verify, evaluate) with ``--trace 0``, for the end-to-end metrics, and
once with ``--trace 1``, for the per-layer table, each in a process of
its own, at the fixed SEED and SECONDS so that files compare.  It writes
``BENCH_<label>.json`` at the repository root: the machine, the Python
version, the run settings, and per workload the end-to-end metrics, the
layer table and whether every job's output passed the oracle.  One file per change gives the trajectory that a
perf entry in CHANGES.md cites; the claim of a gain still rests on the
benchmark's alternating pairs, which one snapshot cannot replace.

A run that exits non-zero or prints no result line stops the script with
exit 1 before anything is written.  Stdlib only; at 30 s per run the
three workloads take about two minutes on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("tabulate", "verify", "evaluate")
SEED = 1
SECONDS = 30.0


def result_line(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run.py stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"last line is not a result: {lines[-1][:80]!r}")
    return result


def machine() -> dict:
    """What the figures were measured on: processor, cores, OS and Python."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(), "os": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def assemble(label: str, host: dict, seed: int, seconds: float,
             results: dict[str, dict[int, dict]]) -> dict:
    """The BENCH file's content from results[workload][trace] result lines."""
    workloads = {}
    for workload, by_trace in results.items():
        end_to_end, layers = by_trace[0], by_trace[1]
        workloads[workload] = {
            "correct": bool(end_to_end["correct"] and layers["correct"]),
            "attempted": {"trace 0": end_to_end["attempted"], "trace 1": layers["attempted"]},
            "end_to_end": end_to_end["metrics"],
            "per_layer": layers["metrics"],
        }
    return {"label": label, "machine": host,
            "settings": {"command": "python3 perfbench/run.py", "seed": seed,
                         "seconds": seconds},
            "workloads": workloads}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
    return result_line(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file: BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("label must be letters, digits, '-' or '_'")
    results: dict[str, dict[int, dict]] = {}
    try:
        for workload in WORKLOADS:
            results[workload] = {trace: run(workload, SEED, SECONDS, trace)
                                 for trace in (0, 1)}
            print(f"{workload}: done", flush=True)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    record = assemble(args.label, machine(), SEED, SECONDS, results)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
