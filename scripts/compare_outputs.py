#!/usr/bin/env python3
"""Compare the data files of two output trees by their manifest digests.

Every ``manifest.json`` under A and B lists the sha256 of each data file its
run wrote.  The script prints the path, under the tree, of every data file
whose digest differs between the two trees or that only one of them lists,
and exits 1 if there is any and 0 if every data file matches.  The other
manifest fields (the run's duration among them) are not compared.  A tree
without a manifest is a usage error (exit 2).

    python3 scripts/compare_outputs.py results-before results-after
"""

import argparse
import json
import sys
from pathlib import Path


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every data file that a manifest under ``root`` lists, keyed by its path under ``root``."""
    found = {}
    for manifest in sorted(root.rglob("manifest.json")):
        folder = manifest.parent.relative_to(root)
        for name, digest in json.loads(manifest.read_text())["files"].items():
            found[(folder / name).as_posix()] = digest
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="first output tree")
    parser.add_argument("b", type=Path, help="second output tree")
    args = parser.parse_args(argv)
    trees = []
    for root in (args.a, args.b):
        trees.append(digests(root))
        if not trees[-1]:
            parser.error(f"no manifest.json under {root}")
    a, b = trees
    paths = a.keys() | b.keys()
    differ = sorted(path for path in paths if a.get(path) != b.get(path))
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(paths)} data files differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
