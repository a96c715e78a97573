"""One measuring process of the dtqw benchmark.

Runs a workload repeatedly through ``dtqw.cli.main`` in this process, either
untraced or with every layer probe installed (never both), checks the
emitted files, and prints one JSON record as its last output line.  The first
run warms caches and is not timed; timed runs continue until ``--seconds``
have passed and at least ``MIN_RUNS`` were made.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import SRC, WORK_DIR, WORKLOADS, Workload

MIN_RUNS = 3


def run_workload(workload: Workload, seed: int, out_root: Path) -> list[str]:
    """Run every preset of the workload once; return the failures (none: success)."""
    cli = importlib.import_module("dtqw.cli")
    errors = []
    for run in workload.runs:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(run.argv(seed, out_root))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising run is a counted failure
            errors.append(f"{run.preset}: raised {exc!r}")
            continue
        if code != 0:
            errors.append(f"{run.preset}: exit {code}: {captured.getvalue().strip()[-300:]}")
    return errors


def measure(workload: Workload, seed: int, seconds: float, out_root: Path, tracer) -> dict:
    import check

    walls, layer_runs, digest_runs, failures = [], [], [], []
    deadline = None
    while True:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        errors = run_workload(workload, seed, out_root)
        wall = time.perf_counter() - start
        digest_runs.append(None if errors else check.digests(out_root, workload))
        failures.append(errors)
        if deadline is None:  # the warm-up run
            deadline = time.perf_counter() + seconds
            continue
        if not errors:
            walls.append(wall)
            if tracer is not None:
                summary = tracer.summary()
                summary["trace.wall_s"] = wall
                layer_runs.append(summary)
        now = time.perf_counter()
        if now >= deadline and (len(walls) >= MIN_RUNS or now >= deadline + seconds):
            break
        if len(failures) > 2 * MIN_RUNS and not walls:
            break  # every run fails; stop early

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The files on disk belong to the last run; equal digests carry its check
    # over to every run.
    final = digest_runs[-1]
    value_errors = check.check(out_root, workload, seed) if final is not None else []
    failed = 0
    for errors, digests in zip(failures, digest_runs):
        if errors:
            failed += 1
        elif digests != final:
            failed += 1
            errors.append("data-file digests differ from the last run of this set")
        elif value_errors:
            failed += 1
    messages = [e for errors in failures for e in errors] + value_errors
    return {
        "walls": walls,
        "attempted": len(failures),
        "failed": failed,
        "errors": messages[:20],
        "peak_rss_mb": peak_rss_mb,
        "layers": layer_runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import env
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    out_root = WORK_DIR / f"{workload.name}-{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        tracer = Tracer() if args.trace else None
        with tracer if tracer is not None else contextlib.nullcontext():
            record = measure(workload, args.seed, args.seconds, out_root, tracer)
        record["missing_probes"] = tracer.missing if tracer is not None else []
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    record["env"] = env.numpy_env()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
