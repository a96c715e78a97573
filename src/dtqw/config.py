"""Scenario configuration records and their JSON round trip."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import COIN_L, COIN_R
from .disorder import DisorderKind

DEFAULT_PHI_MAX = float(np.pi)

COIN_NAMES = {"L": COIN_L, "R": COIN_R}

SYMMETRY_CHOICES = ("bosonic", "fermionic", "both")
OBSERVABLE_CHOICES = ("variance", "entropy", "mutual_information")
FORMAT_CHOICES = ("csv", "json")


@dataclass
class ScenarioConfig:
    """Full description of one experiment (or one sweep of experiments)."""

    name: str
    steps: int
    disorder: DisorderKind = DisorderKind.ORDERED
    phi_max: float = DEFAULT_PHI_MAX
    phi_static: Optional[float] = None  # combined disorder; defaults to phi_max
    phi_dynamic: Optional[float] = None
    configs: int = 1
    seed: int = 0
    symmetry: str = "both"
    # The two walkers enter the two coin modes of the central site, like the
    # two input ports of one beam splitter; exchange interference needs both
    # walkers on the same parity sublattice.
    start_a: tuple[int, str] = (0, "L")
    start_b: tuple[int, str] = (0, "R")
    observables: tuple[str, ...] = ("variance",)
    sweep_parameter: Optional[str] = None  # "phi_max" or "phi_dynamic"
    sweep_values: tuple[float, ...] = ()
    out_dir: str = "results"
    format: str = "csv"

    def __post_init__(self) -> None:
        self.disorder = DisorderKind(self.disorder)
        self.start_a = (int(self.start_a[0]), str(self.start_a[1]).upper())
        self.start_b = (int(self.start_b[0]), str(self.start_b[1]).upper())
        self.observables = tuple(self.observables)
        self.sweep_values = tuple(float(v) for v in self.sweep_values)

    def validate(self) -> None:
        for label in ("steps", "configs", "seed"):
            value = getattr(self, label)
            # bool is an Integral; JSON true must not pass for 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.configs < 1:
            raise ValueError("configs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for label, value in (
            ("phi_max", self.phi_max),
            ("phi_static", self.phi_static),
            ("phi_dynamic", self.phi_dynamic),
        ):
            if value is not None and not 0.0 <= float(value) <= 2.0 * math.pi:
                raise ValueError(f"{label} must lie in [0, 2*pi], got {value}")
        if self.symmetry not in SYMMETRY_CHOICES:
            raise ValueError(f"symmetry must be one of {SYMMETRY_CHOICES}, got {self.symmetry!r}")
        for obs in self.observables:
            if obs not in OBSERVABLE_CHOICES:
                raise ValueError(f"unknown observable {obs!r}")
        if self.format not in FORMAT_CHOICES:
            raise ValueError(f"format must be one of {FORMAT_CHOICES}, got {self.format!r}")
        for site, coin in (self.start_a, self.start_b):
            if coin not in COIN_NAMES:
                raise ValueError(f"start coin must be L or R, got {coin!r}")
        if self.start_a == self.start_b:
            raise ValueError("the two walkers need orthogonal starts (distinct site or coin)")
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in ("phi_max", "phi_dynamic"):
                raise ValueError(f"unsupported sweep parameter {self.sweep_parameter!r}")
            if not self.sweep_values:
                raise ValueError("sweep_values must be nonempty when sweeping")
            if not all(math.isfinite(v) for v in self.sweep_values):
                raise ValueError("sweep values must be finite")
            if list(self.sweep_values) != sorted(self.sweep_values):
                raise ValueError("sweep values must be sorted ascending")

    @property
    def start_sites(self) -> tuple[int, int]:
        return self.start_a[0], self.start_b[0]

    def resolved_phi_static(self) -> float:
        return float(self.phi_max if self.phi_static is None else self.phi_static)

    def resolved_phi_dynamic(self) -> float:
        return float(self.phi_max if self.phi_dynamic is None else self.phi_dynamic)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["disorder"] = self.disorder.value
        doc["start_a"] = list(self.start_a)
        doc["start_b"] = list(self.start_b)
        doc["observables"] = list(self.observables)
        doc["sweep_values"] = list(self.sweep_values)
        return doc


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**doc)  # __post_init__ turns JSON lists into tuples


def load_scenario_json(path: str | Path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
