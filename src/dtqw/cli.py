"""Command-line front end for the scenario presets.

Usage:  dtqw --scenario fig3 [--configs 100] [--seed 7] [--out results/fig3]

A JSON config file may supply any scenario fields; command-line flags
override file values, which override the preset defaults.  Exit codes:
0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import SYMMETRY_CHOICES, ScenarioConfig, scenario_from_dict
from .disorder import DisorderKind
from .scenarios import check_config, preset, preset_names, run_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dtqw", description="Two-particle quantum walks under coin-phase disorder.")
    parser.add_argument("--scenario", help="preset name (see --list)")
    parser.add_argument("--config", help="JSON file with scenario fields (flags override it)")
    parser.add_argument("--list", action="store_true", help="list available scenarios and exit")
    parser.add_argument("--steps", type=int, help="number of walk steps")
    parser.add_argument("--disorder", choices=[k.value for k in DisorderKind], help="disorder kind")
    parser.add_argument("--phi-max", type=float, dest="phi_max", help="strength in radians (also combined's static)")
    parser.add_argument("--phi-dynamic", type=float, dest="phi_dynamic",
                        help="combined's fluctuating strength (default phi_max)")
    parser.add_argument("--configs", type=int, help="number of disorder configurations")
    parser.add_argument("--seed", type=int, help="base seed; configuration i uses seed + i")
    parser.add_argument("--symmetry", choices=SYMMETRY_CHOICES, help="exchange symmetry selection")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers over configurations")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        if len(argv) > 1:
            parser.error("--list takes no other argument")
        for name in preset_names():
            print(name)
        return 0

    file_doc: dict = {}
    if args.config:
        try:
            file_doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"dtqw: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(file_doc, dict):
            print(f"dtqw: invalid configuration: {args.config} must hold a JSON object, "
                  f"got {type(file_doc).__name__}", file=sys.stderr)
            return 1

    name = args.scenario or file_doc.get("name")
    if not name:
        parser.error("--scenario (or a config file with a name) is required")
    if file_doc.get("name", name) != name:
        parser.error(f"--scenario {name} disagrees with the config file's name {file_doc['name']!r}")

    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    given = {k: v for k, v in file_doc.items() if k != "name"}
    given.update({k: v for k, v in vars(args).items() if k in fields and v is not None})
    try:
        doc = dataclasses.asdict(preset(name))
        doc.update(given)
        cfg = scenario_from_dict(doc)
        check_config(cfg, given)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any work
    except (ValueError, TypeError, OSError) as exc:
        print(f"dtqw: invalid configuration: {exc}", file=sys.stderr)
        return 1

    try:
        manifest = run_scenario(cfg, n_jobs=args.jobs)
    except Exception as exc:  # lattice overflow, I/O, worker failure
        print(f"dtqw: run failed: {exc}", file=sys.stderr)
        return 2

    print(f"{cfg.name}: wrote {len(manifest.files)} file(s) + manifest.json to {cfg.out_dir} "
          f"in {manifest.duration_seconds:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
