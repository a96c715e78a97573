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
safe to share across parallel evolutions.  A ``FieldBatch`` packs what
one batched evolution of several configurations reads of their fields; it
is the only source of coin factors that the step engine reads.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import light_cone

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


def light_cone_rows(steps: int, n_sites: int, starts: Optional[Sequence[int]] = None
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """The sites each step can read: (first site of each row, sites in each row, stride).

    Row t - 1 belongs to step t (1-based) of a walk whose walkers start on
    the array indices ``starts``: it covers the light cone of t - 1 steps
    (``core.light_cone``), cut to the lattice, the sites ``core.evolve``
    steps.  Without ``starts`` every row is the whole lattice.
    """
    if starts is None:
        return np.zeros(steps, dtype=np.intp), np.full(steps, n_sites, dtype=np.intp), 1
    first, last, stride = light_cone(np.arange(steps), starts)
    first = np.maximum(first, first % stride)  # the first site on the lattice, of the same parity
    last = np.minimum(last, n_sites - 1 - (n_sites - 1 - last) % stride)
    return first, np.maximum(0, (last - first) // stride + 1), stride


# the table of each kind whose exp(i phi) a batch takes once
_EXP_ONCE = {DisorderKind.STATIC: "site_", DisorderKind.DYNAMIC: "step_"}


class FieldBatch:
    """Fields of one kind and geometry, for one batched evolution of all of them.

    ``coin_factors(t, sites)`` returns (exp(i phi_L), exp(i phi_R)) of the
    sites selected by the slice ``sites``, shaped (configs, 1, sites) or,
    where every site has the same factor (ordered and dynamic disorder),
    (configs, 1, 1), so they broadcast against amplitudes of shape
    (configs, walkers, sites); a batch of one field also broadcasts against
    a single walker's (sites,).  exp(i phi) is taken once per static or
    dynamic table.

    Fluctuating and combined phases are packed, per coin, into one
    (configs, 1, cells) array that holds only the rows of
    ``light_cone_rows(steps, n_sites, starts)`` (without ``starts``, whole
    rows), with the static part already added for combined disorder; each
    step exponentiates one slice of it, and a selection outside its row
    raises ValueError.  ``fields`` may be an iterator that draws the fields
    one at a time (then ``configs`` gives their number): each field's tables
    are packed before the next one is drawn and kept no longer.  Every
    factor is elementwise, so a configuration's factors are bit-identical in
    any batch and selection.
    """

    def __init__(self, fields: Iterable[PhaseField], starts: Optional[Sequence[int]] = None,
                 configs: Optional[int] = None):
        configs = len(fields) if configs is None else configs
        if configs < 1:
            raise ValueError("a field batch needs at least one field")
        fields = iter(fields)
        for i in range(configs):
            field = next(fields, None)
            if field is None:
                raise ValueError(f"a field batch of {configs} configurations got {i} fields")
            if i == 0:
                cells, sites = self._allocate(field, configs, starts)
            elif (field.kind, field.steps, field.n_sites) != (self.kind, self.steps, self.n_sites):
                raise ValueError("a field batch needs one kind, step count and lattice")
            for coin, store in zip("lr", self._store):
                if self.kind in _EXP_ONCE:
                    np.exp(1j * getattr(field, _EXP_ONCE[self.kind] + coin), out=store[i, 0])
                elif cells is not None:
                    np.take(getattr(field, "fluct_" + coin), cells, out=store[i, 0])
                    if self.kind is DisorderKind.COMBINED:
                        store[i, 0] += getattr(field, "site_" + coin)[sites]
            del field  # before the next field is drawn

    def _allocate(self, field: PhaseField, configs: int, starts: Optional[Sequence[int]]) -> tuple:
        """Allocate for ``configs`` fields like ``field``; returns, for packed
        phases, each cell's index into a flat (steps, n_sites) table and its site."""
        self.kind, self.steps, self.n_sites = kind, steps, n_sites = field.kind, field.steps, field.n_sites
        first, counts, self._stride = light_cone_rows(steps, n_sites, starts)
        offset = np.concatenate(([0], np.cumsum(counts)))
        self._first, self._offset = first.tolist(), offset.tolist()  # read per step
        # per coin (configs, 1, width): exp(i phi) of every site (static) or step (dynamic), or the packed phases
        if kind is DisorderKind.ORDERED:
            self._store = (np.ones((configs, 1, 1), dtype=np.complex128),) * 2
        elif kind in _EXP_ONCE:
            width = n_sites if kind is DisorderKind.STATIC else steps
            self._store = tuple(np.empty((configs, 1, width), dtype=np.complex128) for _ in "LR")
        else:
            self._store = tuple(np.empty((configs, 1, offset[-1])) for _ in "LR")
            # packed cell j of row r holds site first[r] + (j - offset[r]) * stride of step r + 1
            sites = np.repeat(first - offset[:-1] * self._stride, counts) + np.arange(offset[-1]) * self._stride
            return np.repeat(np.arange(steps) * n_sites, counts) + sites, sites
        return None, None

    def coin_factors(self, t: int, sites: slice) -> tuple[np.ndarray, np.ndarray]:
        """Coin factors of every configuration at the ``sites`` for step t (1-based)."""
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} outside 1..{self.steps}")
        kind = self.kind
        if kind is DisorderKind.ORDERED:
            return self._store
        if kind is DisorderKind.STATIC:
            return self._store[0][..., sites], self._store[1][..., sites]
        if kind is DisorderKind.DYNAMIC:
            return self._store[0][..., t - 1, None], self._store[1][..., t - 1, None]
        cells = self._row_cells(t, sites)
        return np.exp(1j * self._store[0][..., cells]), np.exp(1j * self._store[1][..., cells])

    def _row_cells(self, t: int, sites: slice) -> slice:
        """The packed cells of row t that hold the lattice ``sites``."""
        start, stop, step = sites.indices(self.n_sites)
        count = len(range(start, stop, step))
        first, stride, offset = self._first[t - 1], self._stride, self._offset[t - 1]
        if not count:
            return slice(offset, offset)
        last = start + (count - 1) * step
        row_last = first + (self._offset[t] - offset - 1) * stride
        if start < first or last > row_last or (start - first) % stride or count > 1 and (step < 0 or step % stride):
            raise ValueError(f"sites {sites} of step {t} lie outside its packed row")
        begin, step = offset + (start - first) // stride, step // stride if count > 1 else 1
        return slice(begin, begin + (count - 1) * step + 1, step)


def check_strength(label: str, value) -> float:
    """``value`` as a float if it is a real number in [0, 2*pi] (not a bool); ValueError otherwise."""
    # bool is a Real; JSON true must not pass for 1
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value <= TWO_PI:
        raise ValueError(f"{label} must be a real number in [0, 2*pi], got {value!r}")
    return float(value)


def _substream(seed: int, index: int) -> np.random.Generator:
    # the child that SeedSequence(seed).spawn(3)[index] would give, built alone
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


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
