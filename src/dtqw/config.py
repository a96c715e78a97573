"""Scenario configuration records; ``scenario_from_dict`` reads back what ``dataclasses.asdict`` gives."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import check_integer
from .disorder import DisorderKind, check_strength

DEFAULT_PHI_MAX = float(np.pi)

# Fixed caps, so a size is accepted or refused alike on every machine: one configuration's walk
# peaks near 160 steps^2 bytes (0.65 GB at the cap), and a run keeps about 5 kB per configuration.
# Both walkers start at the central site, so no lattice exceeds 2 MAX_STEPS + 3 sites.
MAX_STEPS = 2000
MAX_CONFIGS = 100_000

SYMMETRY_CHOICES = ("bosonic", "fermionic", "both")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment (or one sweep of experiments).

    Frozen, and checked when it is made, also by ``dataclasses.replace``: an
    invalid field raises ValueError, so every instance is valid.
    """

    name: str
    steps: int
    disorder: DisorderKind = DisorderKind.ORDERED
    phi_max: float = DEFAULT_PHI_MAX
    phi_dynamic: Optional[float] = None  # combined disorder's fluctuating phases; defaults to phi_max
    configs: int = 1
    seed: int = 0
    symmetry: str = "both"
    out_dir: str = "results"

    def __post_init__(self) -> None:
        # the normalized field is set once, on the frozen instance
        object.__setattr__(self, "disorder", DisorderKind(self.disorder))
        for label, cap in (("steps", MAX_STEPS), ("configs", MAX_CONFIGS)):
            if check_integer(label, getattr(self, label), 1) > cap:
                raise ValueError(f"{label} must be <= {cap}")
        check_integer("seed", self.seed, 0)
        check_strength("phi_max", self.phi_max)
        if self.phi_dynamic is not None:
            check_strength("phi_dynamic", self.phi_dynamic)
        if self.symmetry not in SYMMETRY_CHOICES:
            raise ValueError(f"symmetry must be one of {SYMMETRY_CHOICES}, got {self.symmetry!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**doc)
