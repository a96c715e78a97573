#!/usr/bin/env python3
"""Run every built-in scenario at full scale and collect the data files.

Figures 2-4 and the fluctuating-scenario joints take under a second each;
the step-resolved ensembles (fig5, fig8, fig9) and the strength sweeps
(fig6, fig7) take seconds to tens of seconds each, fig5 the longest, and
the whole serial run under a minute on one core of a 2-core Xeon.  Use
--jobs to fan chunks of ensemble members out to worker processes and --only
to run a subset.
"""

import argparse
import dataclasses
import sys
import time

from dtqw.scenarios import preset, preset_names, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="parent output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers per ensemble")
    parser.add_argument("--only", nargs="*", metavar="NAME", help="subset of scenarios to run")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.only is not None and (not args.only or len(set(args.only)) < len(args.only)):
        parser.error(f"--only needs one or more distinct scenario names, got {args.only}")
    names = args.only or list(preset_names())
    unknown = set(names) - set(preset_names())
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(sorted(unknown))}")

    grand_start = time.perf_counter()
    for name in names:
        cfg = dataclasses.replace(preset(name), out_dir=f"{args.out}/{name}")
        print(f"== {name}: steps={cfg.steps} configs={cfg.configs} disorder={cfg.disorder.value}")
        manifest = run_scenario(cfg, n_jobs=args.jobs)
        print(f"   {len(manifest.files)} file(s) in {manifest.duration_seconds:.1f}s -> {cfg.out_dir}")
    print(f"done in {time.perf_counter() - grand_start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
