#!/usr/bin/env python3
"""Print every end-to-end metric of every workload and the traced per-layer table.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Runs ``run.py`` on each workload with tracing off and then on, and prints
the end-to-end metrics with their units, the error rate (failed runs over
attempted runs), and per-layer metrics with each layer's share of the traced
wall time.  The shares add up to the traced wall; the traced wall divided by
the untraced one is ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py failed on {workload} (trace {trace}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def _table(title: str, rows: list[tuple[str, str, list]]) -> None:
    names = list(WORKLOADS)
    print(f"\n{title}")
    print(f"  {'metric':28s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
    for name, unit, values in rows:
        print(f"  {name:28s} {unit:6s}" + "".join(f"{v:16.6g}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for name in WORKLOADS:
        plain[name], env = _run(name, args.seed, args.seconds, 0)
        traced[name], _ = _run(name, args.seed, args.seconds, 1)
    print("env " + json.dumps(env))
    print(f"seed {args.seed}, {args.seconds} s measured per run")

    first = plain[next(iter(WORKLOADS))]["metrics"]
    rows = [(m, first[m]["unit"], [plain[w]["metrics"][m]["value"] for w in WORKLOADS]) for m in first]
    rows.append(("error_rate", "ratio", [plain[w]["failed"] / plain[w]["attempted"] for w in WORKLOADS]))
    _table("end to end (tracing off)", rows)

    layer_first = traced[next(iter(WORKLOADS))]["metrics"]
    rows = [(m, layer_first[m]["unit"], [traced[w]["metrics"][m]["value"] for w in WORKLOADS]) for m in layer_first]
    walls = [traced[w]["metrics"]["trace.wall_s"]["value"] for w in WORKLOADS]
    shares = [
        (f"{layer}.share", "ratio", [traced[w]["metrics"][f"{layer}.self_s"]["value"] / wall
                                     for w, wall in zip(WORKLOADS, walls)])
        for layer in LAYERS
    ]
    shares.append(("sum of shares", "ratio", [sum(col) for col in zip(*(v for _, _, v in shares))]))
    rows.append(("error_rate", "ratio", [traced[w]["failed"] / traced[w]["attempted"] for w in WORKLOADS]))
    _table("per layer (traced run; times are medians over runs)", rows)
    _table("self-time share of the traced wall", shares)
    correct = all(r["correct"] for r in (*plain.values(), *traced.values()))
    print(f"\nall outputs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
