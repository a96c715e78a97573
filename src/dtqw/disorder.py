"""Reproducible coin-phase disorder fields.

A field realizes the phases phi_L, phi_R consumed by the step coin, drawn
independently and uniformly from [0, phi_max] with a seeded generator:

* ``static``       per-site pair, constant in time (localizing)
* ``dynamic``      per-step pair, uniform in space (decohering)
* ``fluctuating``  independent pair per (site, step)
* ``combined``     static pair plus fluctuating pair, phases added componentwise
* ``ordered``      all phases zero

Each component draws from its own substream of the seed, so e.g.
``combined`` with a zero fluctuating strength realizes bit-identical tables
to ``static`` with the same seed.  Fields are immutable after sampling and
safe to share across parallel evolutions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi

#: Recorded in run manifests; bit-exact reproducibility is per-generator.
GENERATOR_ID = "numpy-pcg64"

# Substream indices of the seed, one per disorder component.
_SUB_STATIC, _SUB_DYNAMIC, _SUB_FLUCTUATING = 0, 1, 2


class DisorderKind(str, enum.Enum):
    ORDERED = "ordered"
    STATIC = "static"
    DYNAMIC = "dynamic"
    FLUCTUATING = "fluctuating"
    COMBINED = "combined"


@dataclass
class PhaseField:
    """A realized disorder configuration for one (lattice, steps) geometry.

    Tables are keyed by component: ``site_l/site_r`` have shape (n_sites,),
    ``step_l/step_r`` shape (steps,), ``fluct_l/fluct_r`` shape
    (steps, n_sites).  Only the tables a kind needs are present.
    """

    kind: DisorderKind
    phi_static: float
    phi_dynamic: float
    seed: int
    steps: int
    n_sites: int
    origin: int
    site_l: Optional[np.ndarray] = None
    site_r: Optional[np.ndarray] = None
    step_l: Optional[np.ndarray] = None
    step_r: Optional[np.ndarray] = None
    fluct_l: Optional[np.ndarray] = None
    fluct_r: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("site_l", "site_r", "step_l", "step_r", "fluct_l", "fluct_r"):
            table = getattr(self, name)
            if table is not None:
                table = np.asarray(table, dtype=np.float64)
                table.setflags(write=False)
                setattr(self, name, table)

    def _check_step(self, t: int) -> None:
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} outside 1..{self.steps}")

    def step_phases(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-site (phi_L, phi_R) arrays for step t (1-based)."""
        self._check_step(t)
        kind = self.kind
        if kind is DisorderKind.ORDERED:
            zeros = np.zeros(self.n_sites)
            return zeros, zeros
        if kind is DisorderKind.STATIC:
            return self.site_l, self.site_r
        if kind is DisorderKind.DYNAMIC:
            return (
                np.broadcast_to(self.step_l[t - 1], self.n_sites),
                np.broadcast_to(self.step_r[t - 1], self.n_sites),
            )
        if kind is DisorderKind.FLUCTUATING:
            return self.fluct_l[t - 1], self.fluct_r[t - 1]
        return self.site_l + self.fluct_l[t - 1], self.site_r + self.fluct_r[t - 1]

    def phases_at(self, x: int, t: int) -> tuple[float, float]:
        """Realized (phi_L, phi_R) at signed position x, step t (1-based)."""
        self._check_step(t)
        i = x + self.origin
        if not 0 <= i < self.n_sites:
            raise IndexError(f"position {x} outside the field lattice")
        phi_l, phi_r = self.step_phases(t)
        return float(phi_l[i]), float(phi_r[i])


def _check_strength(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= TWO_PI:
        raise ValueError(f"{name} must lie in [0, 2*pi], got {value}")
    return value


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(3)[index]))


def sample_phase_field(
    kind: DisorderKind,
    *,
    phi_max: Optional[float] = None,
    phi_static: Optional[float] = None,
    phi_dynamic: Optional[float] = None,
    steps: int,
    n_sites: int,
    origin: int,
    seed: int = 0,
) -> PhaseField:
    """Draw one disorder realization.

    Single-component kinds take their strength from ``phi_max`` (or the
    matching ``phi_static``/``phi_dynamic``); ``combined`` needs both
    ``phi_static`` and ``phi_dynamic``.  L and R phases draw independently.
    Identical (kind, strengths, seed, dimensions) give bit-identical tables.
    """
    kind = DisorderKind(kind)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")

    if kind is DisorderKind.COMBINED:
        if phi_max is not None:
            phi_static = phi_max if phi_static is None else phi_static
            phi_dynamic = phi_max if phi_dynamic is None else phi_dynamic
        if phi_static is None or phi_dynamic is None:
            raise ValueError("combined disorder needs phi_static and phi_dynamic")
        s_static = _check_strength("phi_static", phi_static)
        s_dynamic = _check_strength("phi_dynamic", phi_dynamic)
    elif kind is DisorderKind.ORDERED:
        s_static = s_dynamic = 0.0
    else:
        if phi_max is None:
            phi_max = phi_static if kind is DisorderKind.STATIC else phi_dynamic
        if phi_max is None:
            raise ValueError(f"{kind.value} disorder needs phi_max")
        strength = _check_strength("phi_max", phi_max)
        s_static = strength if kind is DisorderKind.STATIC else 0.0
        s_dynamic = strength if kind is not DisorderKind.STATIC else 0.0

    tables: dict[str, np.ndarray] = {}
    if kind in (DisorderKind.STATIC, DisorderKind.COMBINED):
        rng = _substream(seed, _SUB_STATIC)
        tables["site_l"] = rng.uniform(0.0, s_static, n_sites)
        tables["site_r"] = rng.uniform(0.0, s_static, n_sites)
    if kind is DisorderKind.DYNAMIC:
        rng = _substream(seed, _SUB_DYNAMIC)
        tables["step_l"] = rng.uniform(0.0, s_dynamic, steps)
        tables["step_r"] = rng.uniform(0.0, s_dynamic, steps)
    if kind in (DisorderKind.FLUCTUATING, DisorderKind.COMBINED):
        rng = _substream(seed, _SUB_FLUCTUATING)
        tables["fluct_l"] = rng.uniform(0.0, s_dynamic, (steps, n_sites))
        tables["fluct_r"] = rng.uniform(0.0, s_dynamic, (steps, n_sites))

    return PhaseField(
        kind=kind,
        phi_static=s_static,
        phi_dynamic=s_dynamic,
        seed=int(seed),
        steps=int(steps),
        n_sites=int(n_sites),
        origin=int(origin),
        **tables,
    )


def ordered_field(steps: int, n_sites: int, origin: int) -> PhaseField:
    """The disorder-free field (every phase zero)."""
    return sample_phase_field(DisorderKind.ORDERED, steps=steps, n_sites=n_sites, origin=origin, seed=0)
