#!/usr/bin/env python3
"""Benchmark of the dtqw scenario pipeline.

    python3 perfbench/run.py --workload step_series --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: the upper quartile of
the wall time of one workload run, ensemble members per second, set-up time in fresh
interpreters and the peak resident memory of the measuring process.  With
``--trace 1`` it runs the workload once untraced and once with every layer
probe installed, each in its own process, and reports the per-layer metrics
and the tracing overhead.  Every run's outputs are checked (see check.py).
The last output line is one JSON object: correct, attempted, failed, metrics.
Run it from anywhere; it builds nothing, and imports ``dtqw`` from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from env import host_env
from tracer import COUNTERS, layer_metrics
from workloads import ROOT, SRC, WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
END_TO_END = ("wall_s", "members_per_s", "setup_s", "peak_rss_mb")
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead")
SETUP_SAMPLES = 11  # timed fresh interpreters, after one untimed warm-up
CHILD_TIMEOUT_S = 150
# Every measuring process is single-threaded, like ``--jobs 1``: idle BLAS
# threads spin on the second of two shared cores and made set-up erratic.
CHILD_ENV = {**os.environ, **{name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _child(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return json.loads(_child("worker.py", "--workload", workload, "--seed", str(seed),
                             "--seconds", repr(seconds), "--trace", str(trace)))


def _setup_seconds(workload: str, seed: int) -> list[float]:
    samples = [float(_child("setup_probe.py", workload, str(seed))) for _ in range(SETUP_SAMPLES + 1)]
    return samples[1:]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_use", "_errors", "overhead")):
        return "ratio"
    return "B" if name.endswith("bytes_written") else "count"


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def upper_quartile(values: list[float]) -> float:
    """The third quartile: steadier than the median on a shared host.

    The host runs at its usual speed most of the time, with excursions of
    tens of seconds in which workload runs are up to 30% faster.  The runs
    in such an excursion pull a median down but leave the slower quartile
    alone, so the upper quartile of a run's samples spreads about half as
    much between runs (see README.md, "Why the upper quartile").
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    rec = _worker(workload, seed, seconds, trace=0)
    # Set-up is timed after the workload, on a CPU that is already busy, as
    # the workload's timed runs are after their warm-up run.
    setup = _setup_seconds(workload, seed)
    if not rec["walls"]:
        return {}, [rec]
    wall = upper_quartile(rec["walls"])
    members = WORKLOADS[workload].members
    metrics = {
        "wall_s": (wall, "s", f"upper quartile of one workload run, median "
                              f"{statistics.median(rec['walls']):.4g}, {_quartiles(rec['walls'])}"),
        "members_per_s": (members / wall, "1/s", f"{members} ensemble members per run"),
        "setup_s": (statistics.median(setup), "s", f"median of fresh interpreters, {_quartiles(setup)}"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB", "peak resident memory of the measuring process"),
    }
    return metrics, [rec]


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    plain = _worker(workload, seed, seconds / 2, trace=0)
    traced = _worker(workload, seed, seconds / 2, trace=1)
    if not plain["walls"] or not traced["layers"]:
        return {}, [plain, traced]
    runs = [layer_metrics(summary) for summary in traced["layers"]]
    metrics = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name in COUNTERS:
            if len(set(values)) > 1:
                print(f"perfbench: warning: counter {name} varies between runs: {values}", file=sys.stderr)
            metrics[name] = (values[0], unit_of(name), "")
        else:
            metrics[name] = (statistics.median(values), unit_of(name), f"median, {_quartiles(values)}")
    traced_wall = statistics.median(traced["walls"])
    plain_wall = statistics.median(plain["walls"])
    metrics["trace.wall_s"] = (traced_wall, "s", f"traced run, {_quartiles(traced['walls'])}")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s", f"untraced run, {_quartiles(plain['walls'])}")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio", "traced wall / untraced wall")
    if traced["missing_probes"]:
        print(f"perfbench: warning: probes not installed: {traced['missing_probes']}", file=sys.stderr)
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, passed to dtqw as --seed")
    parser.add_argument("--seconds", type=int, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "dtqw" / "cli.py").is_file():
        print(f"perfbench: no dtqw sources under {SRC}; run from a dtqw checkout", file=sys.stderr)
        return 2

    env = host_env()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, records = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: measurement failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    env.update(records[0]["env"])
    attempted = sum(rec["attempted"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    errors = [e for rec in records for e in rec["errors"]]

    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}; seed {args.seed}, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6g} {'ratio':6s} {failed} failed of {attempted} runs")
    for error in errors:
        print(f"  error: {error}", file=sys.stderr)
    if not metrics:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
