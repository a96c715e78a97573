#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 perfbench/record_reference.py --seeds 1 2 3 4 5

For each workload and seed it runs the workload once and stores every data
value in ``reference/<workload>/seed-<n>.npz``.  It also stores the
seed-independent rows and the file layout in ``reference/<workload>/ordered.npz``
after checking that those rows are identical for every recorded seed.
Re-record only when a change is meant to alter the emitted physics.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from workloads import SRC, WORK_DIR, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import check
    from worker import run_workload

    out_root = WORK_DIR / "record"
    try:
        for name, workload in WORKLOADS.items():
            ref_dir = check.REFERENCE_DIR / name
            fixed = None
            for seed in args.seeds:
                errors = run_workload(workload, seed, out_root)
                if errors:
                    print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                outputs = check.read_outputs(out_root, workload)
                independent = check.flatten(check.seed_independent(outputs))
                if fixed is None:
                    fixed = independent
                    check.save_ordered(ref_dir / "ordered.npz", outputs)
                elif independent.keys() != fixed.keys() or not all(
                    np.array_equal(independent[k], fixed[k]) for k in fixed
                ):
                    print(f"{name}: seed-independent rows differ for seed {seed}", file=sys.stderr)
                    return 1
                check.save(ref_dir / f"seed-{seed}.npz", outputs)
                print(f"{name} seed {seed}: recorded {len(outputs)} files")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
