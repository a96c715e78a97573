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
safe to share across parallel evolutions.  A ``FieldBatch`` stacks the
fields of several configurations so that one batched evolution steps them
all; it is the only source of coin factors that the step engine reads.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

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


class FieldBatch:
    """Fields of one kind and geometry, for one batched evolution of all of them.

    ``coin_factors(t, sites)`` returns (exp(i phi_L), exp(i phi_R)) of the
    sites selected by the slice ``sites``, shaped (configs, 1, sites) or,
    where every site has the same factor (ordered and dynamic disorder),
    (configs, 1, 1), so they broadcast against amplitudes of shape
    (configs, walkers, sites); a batch of one field also broadcasts against
    a single walker's (sites,).  exp(i phi) is taken once per static or
    dynamic table.  Fluctuating and combined phases are
    gathered per step from the fields' own tables, which are never copied
    whole, and only the selected sites are exponentiated (for combined
    disorder after adding the static part).  Every factor is elementwise, so
    a configuration's factors are bit-identical in any batch and selection.
    """

    def __init__(self, fields: Sequence[PhaseField]):
        first = fields[0]
        if any((f.kind, f.steps, f.n_sites) != (first.kind, first.steps, first.n_sites) for f in fields):
            raise ValueError("a field batch needs one kind, step count and lattice")
        self.kind, self.steps = first.kind, first.steps

        def stacked(name: str) -> np.ndarray:  # (configs, 1, ...) to broadcast over walkers
            return np.stack([getattr(f, name) for f in fields])[:, None]

        kind = self.kind
        if kind is DisorderKind.ORDERED:
            self._factors = (np.ones((len(fields), 1, 1), dtype=np.complex128),) * 2
        if kind is DisorderKind.STATIC:
            self._factors = (np.exp(1j * stacked("site_l")), np.exp(1j * stacked("site_r")))
        if kind is DisorderKind.DYNAMIC:
            self._step = (np.exp(1j * stacked("step_l")), np.exp(1j * stacked("step_r")))
        if kind in (DisorderKind.FLUCTUATING, DisorderKind.COMBINED):
            self._fluct = ([f.fluct_l for f in fields], [f.fluct_r for f in fields])
        if kind is DisorderKind.COMBINED:
            self._site = (stacked("site_l"), stacked("site_r"))

    def coin_factors(self, t: int, sites: slice) -> tuple[np.ndarray, np.ndarray]:
        """Coin factors of every configuration at the ``sites`` for step t (1-based)."""
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} outside 1..{self.steps}")
        kind = self.kind
        if kind is DisorderKind.ORDERED:
            return self._factors
        if kind is DisorderKind.STATIC:
            return self._factors[0][..., sites], self._factors[1][..., sites]
        if kind is DisorderKind.DYNAMIC:
            return self._step[0][..., t - 1, None], self._step[1][..., t - 1, None]
        phi_l, phi_r = (np.stack([table[t - 1, sites] for table in tables])[:, None] for tables in self._fluct)
        if kind is DisorderKind.COMBINED:
            phi_l, phi_r = self._site[0][..., sites] + phi_l, self._site[1][..., sites] + phi_r
        return np.exp(1j * phi_l), np.exp(1j * phi_r)


def check_strength(label: str, value) -> float:
    """``value`` as a float if it is a real number in [0, 2*pi] (not a bool); ValueError otherwise."""
    # bool is a Real; JSON true must not pass for 1
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= TWO_PI:
        raise ValueError(f"{label} must be a real number in [0, 2*pi], got {value!r}")
    return float(value)


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
    ``steps``, ``n_sites``, ``origin`` and ``seed`` must be integers (not
    bools), with ``steps >= 0``, ``n_sites >= 1``, ``0 <= origin < n_sites``
    and ``seed >= 0``, and every strength that is not None must pass
    ``check_strength``, read by the kind or not; anything else raises
    ValueError before any draw.
    """
    kind = DisorderKind(kind)
    for label, value in (("steps", steps), ("n_sites", n_sites), ("origin", origin), ("seed", seed)):
        # bool is an Integral; True must not pass for 1
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{label} must be an integer, got {value!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not 0 <= origin < n_sites:
        raise ValueError(f"origin {origin} outside the lattice 0..{n_sites - 1}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for label, value in (("phi_max", phi_max), ("phi_static", phi_static), ("phi_dynamic", phi_dynamic)):
        if value is not None:  # checked even where the kind does not read it
            check_strength(label, value)

    if kind is DisorderKind.COMBINED:
        if phi_max is not None:
            phi_static = phi_max if phi_static is None else phi_static
            phi_dynamic = phi_max if phi_dynamic is None else phi_dynamic
        if phi_static is None or phi_dynamic is None:
            raise ValueError("combined disorder needs phi_static and phi_dynamic")
        s_static, s_dynamic = float(phi_static), float(phi_dynamic)
    elif kind is DisorderKind.ORDERED:
        s_static = s_dynamic = 0.0
    else:
        if phi_max is None:
            phi_max = phi_static if kind is DisorderKind.STATIC else phi_dynamic
        if phi_max is None:
            raise ValueError(f"{kind.value} disorder needs phi_max")
        strength = float(phi_max)
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
        steps=int(steps),
        n_sites=int(n_sites),
        origin=int(origin),
        **tables,
    )
