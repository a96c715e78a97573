"""Workload definitions of the dtqw benchmark (standard library only).

A workload is a fixed list of preset runs through ``dtqw.cli.main``.  Steps,
lattice size and disorder kinds stay at the preset values, so the work per
ensemble member is the preset's; only ``--configs`` is cut where the preset
would take minutes.  The workload seed is passed to every run as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"


@dataclass(frozen=True)
class PresetRun:
    """One ``dtqw --scenario <preset>`` invocation of a workload."""

    preset: str
    configs: int | None  # None keeps the preset's ensemble size
    members: int  # disorder fields evolved and measured (both walkers)

    def argv(self, seed: int, out_root: Path) -> list[str]:
        argv = ["--scenario", self.preset, "--seed", str(seed), "--jobs", "1",
                "--out", str(out_root / self.preset)]
        if self.configs is not None:
            argv += ["--configs", str(self.configs)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[PresetRun, ...]

    @property
    def members(self) -> int:
        return sum(run.members for run in self.runs)


# Member counts follow the presets: fig5 runs 5 disorder kinds, fig9 3,
# fig6 2 kinds x 11 strengths, fig7 11 strengths, fig3/fig4/fluct 100
# configurations each and fig2 one ordered field.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "step_series",
            "fig5+fig9: every step 0..100 measured, so the (2N)^2 mode-level joint dominates",
            (PresetRun("fig5", 2, 5 * 2), PresetRun("fig9", 2, 3 * 2)),
        ),
        Workload(
            "final_sweep",
            "fig6+fig7: strength sweeps measure only t=100 yet record 101 snapshots per walker",
            (PresetRun("fig6", 3, 2 * 11 * 3), PresetRun("fig7", 3, 11 * 3)),
        ),
        Workload(
            "joint_maps",
            "fig2/3/4/fluct at preset scale: averaged t=50 position matrices and 1.2 MB of joint CSV",
            (PresetRun("fig2", None, 1), PresetRun("fig3", None, 100),
             PresetRun("fig4", None, 100), PresetRun("fluct", None, 100)),
        ),
    )
}
