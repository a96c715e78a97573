"""Every preset's data files at reduced scale against recorded reference outputs.

The references under ``tests/golden/<case>/`` were written by the CLI with
the arguments in ``CASES`` below: one case per preset, plus 40-step cases of
fig3 and fig8 whose measured lattices reach 64 sites and more.  Numbers must
agree to rtol 1e-12 / atol 1e-15, text cells and file sets exactly, so a
refactor of the pipeline cannot move the physics silently.  After a deliberate physics change, rewrite them
with ``PYTHONPATH=src python tests/test_golden.py --rewrite``, which deletes every case directory first;
without ``--rewrite`` the script changes nothing and exits 2.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from dtqw.cli import main
from dtqw.scenarios import preset_names

GOLDEN = Path(__file__).parent / "golden"
RTOL, ATOL = 1e-12, 1e-15


# (golden directory, preset, steps); fig5 needs steps inside its power-law window [20, 100]
CASES = [(name, name, "25" if name == "fig5" else "10") for name in preset_names()] + [
    ("fig3-steps40", "fig3", "40"),
    ("fig8-steps40", "fig8", "40"),
]


def argv(preset: str, steps: str, out: Path) -> list[str]:
    """CLI arguments of one case."""
    return ["--scenario", preset, "--steps", steps, "--configs", "2", "--out", str(out)]


def close(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(close, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isinf(want):
            return got == want or (math.isnan(got) and math.isnan(want))
        return abs(got - want) <= ATOL + RTOL * abs(want)
    return got == want


def parse(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return [[float(cell) if cell[:1] in "-.0123456789" else cell for cell in row] for row in rows]


@pytest.mark.parametrize("name, preset, steps", CASES, ids=[case[0] for case in CASES])
def test_data_files_match_golden(tmp_path, name, preset, steps):
    out = tmp_path / "out"
    assert main(argv(preset, steps, out)) == 0
    made = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert made == sorted(p.name for p in (GOLDEN / name).iterdir())
    for file_name in made:
        got, want = parse(out / file_name), parse(GOLDEN / name / file_name)
        assert close(got, want), f"{name}/{file_name} differs from the golden output"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        print(f"usage: {sys.argv[0]} --rewrite  (deletes and rewrites every reference under {GOLDEN})", file=sys.stderr)
        sys.exit(2)
    for name, preset, steps in CASES:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        assert main(argv(preset, steps, GOLDEN / name)) == 0
        (GOLDEN / name / "manifest.json").unlink()
    sys.exit(0)
