"""Scenario configuration records; ``scenario_from_dict`` reads back what ``dataclasses.asdict`` gives."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import COIN_L, COIN_R, check_integer
from .disorder import DisorderKind, check_strength

DEFAULT_PHI_MAX = float(np.pi)

# Fixed caps, so a size is accepted or refused alike on every machine: one configuration's walk
# peaks near 160 steps^2 bytes (0.65 GB at the cap), and a run keeps about 5 kB per configuration.
# Start sites lie in [-MAX_STEPS, MAX_STEPS], so no lattice exceeds 4 MAX_STEPS + 3 sites.
MAX_STEPS = 2000
MAX_CONFIGS = 100_000

COIN_NAMES = {"L": COIN_L, "R": COIN_R}

SYMMETRY_CHOICES = ("bosonic", "fermionic", "both")


def _start_pair(label: str, value) -> tuple:
    """(site, coin) with the site an integer and the coin name upper-cased, L or R."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or len(value) != 2:
        raise ValueError(f"{label} must be a [site, coin] pair, got {value!r}")
    site, coin = check_integer("start site", value[0]), str(value[1]).upper()
    if abs(site) > MAX_STEPS:
        raise ValueError(f"start sites must lie in [-{MAX_STEPS}, {MAX_STEPS}], got {site}")
    if coin not in COIN_NAMES:
        raise ValueError(f"start coin must be L or R, got {coin!r}")
    return site, coin


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
    # The two walkers enter the two coin modes of the central site, like the
    # two input ports of one beam splitter; exchange interference needs both
    # walkers on the same parity sublattice.
    start_a: tuple[int, str] = (0, "L")
    start_b: tuple[int, str] = (0, "R")
    out_dir: str = "results"

    def __post_init__(self) -> None:
        # the normalized fields are each set once, on the frozen instance
        object.__setattr__(self, "disorder", DisorderKind(self.disorder))
        object.__setattr__(self, "start_a", _start_pair("start_a", self.start_a))
        object.__setattr__(self, "start_b", _start_pair("start_b", self.start_b))
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
        if self.start_a == self.start_b:
            raise ValueError("the two walkers need orthogonal starts (distinct site or coin)")

    @property
    def start_sites(self) -> tuple[int, int]:
        return self.start_a[0], self.start_b[0]


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**doc)  # __post_init__ turns JSON lists into tuples
