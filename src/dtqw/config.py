"""Scenario configuration records; ``scenario_from_dict`` reads back what ``dataclasses.asdict`` gives."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import COIN_L, COIN_R, check_integer
from .disorder import DisorderKind, check_strength

DEFAULT_PHI_MAX = float(np.pi)

COIN_NAMES = {"L": COIN_L, "R": COIN_R}

SYMMETRY_CHOICES = ("bosonic", "fermionic", "both")


def _start_pair(label: str, value) -> tuple:
    """(site, coin) with the site an integer and the coin name upper-cased, L or R."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or len(value) != 2:
        raise ValueError(f"{label} must be a [site, coin] pair, got {value!r}")
    site, coin = check_integer("start site", value[0]), str(value[1]).upper()
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
    sweep_values: tuple[float, ...] = ()  # read by presets that sweep a strength
    out_dir: str = "results"

    def __post_init__(self) -> None:
        # the normalized fields are each set once, on the frozen instance
        object.__setattr__(self, "disorder", DisorderKind(self.disorder))
        object.__setattr__(self, "start_a", _start_pair("start_a", self.start_a))
        object.__setattr__(self, "start_b", _start_pair("start_b", self.start_b))
        if isinstance(self.sweep_values, (str, bytes)) or not isinstance(self.sweep_values, Sequence):
            raise ValueError(f"sweep_values must be a list of strengths, got {self.sweep_values!r}")
        object.__setattr__(self, "sweep_values",
                           tuple(check_strength("every sweep_values entry", v) for v in self.sweep_values))
        check_integer("steps", self.steps, 1)
        check_integer("configs", self.configs, 1)
        check_integer("seed", self.seed, 0)
        check_strength("phi_max", self.phi_max)
        if self.phi_dynamic is not None:
            check_strength("phi_dynamic", self.phi_dynamic)
        if any(lo >= hi for lo, hi in zip(self.sweep_values, self.sweep_values[1:])):
            raise ValueError("sweep values must be strictly ascending")
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
