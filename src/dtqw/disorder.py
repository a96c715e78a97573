"""Reproducible coin-phase disorder fields.

A field realizes the phases phi_L, phi_R consumed by the step coin, drawn
independently and uniformly from [0, phi_max] with a seeded generator.  The
kinds differ in where the phases may change:

* ``static``       from site to site, constant in time (localizing)
* ``dynamic``      from step to step, constant in space (decohering)
* ``fluctuating``  from site to site and from step to step
* ``combined``     static plus fluctuating phases, added componentwise; the
                   fluctuating ones read phi_dynamic instead when it is set
* ``ordered``      all phases zero

So a field is one table of phases, coin L and R by step by site, with one
row where the phases are constant in time and one column where they are
constant in space (``draw_shapes``); it broadcasts to (2, steps, n_sites).
Each component draws from its own substream of the seed, so e.g.
``combined`` with a zero fluctuating strength realizes bit-identical phases
to ``static`` with the same seed, and a field whose strengths are all 0
draws the same zeros from every seed (``seed_independent``).  Fields are
immutable after sampling and safe to share across parallel evolutions.  A
``FieldBatch`` packs what one batched walk of several configurations from
given start sites reads of their fields; it is the only source of coin
factors that the step engine reads, and its starts fix the cells the walk
steps.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import check_integer, light_cone

TWO_PI = 2.0 * np.pi

#: Recorded in run manifests; bit-exact reproducibility is per-generator.
GENERATOR_ID = "numpy-pcg64"


class DisorderKind(str, enum.Enum):
    ORDERED = "ordered"
    STATIC = "static"
    DYNAMIC = "dynamic"
    FLUCTUATING = "fluctuating"
    COMBINED = "combined"


# the substream index of the seed that each disorder component draws from
_SUBSTREAMS = {DisorderKind.STATIC: 0, DisorderKind.DYNAMIC: 1, DisorderKind.FLUCTUATING: 2}
# the components each kind draws, the one whose shape the field keeps first
_COMPONENTS = {DisorderKind.ORDERED: (), **{kind: (kind,) for kind in _SUBSTREAMS},
               DisorderKind.COMBINED: (DisorderKind.FLUCTUATING, DisorderKind.STATIC)}


def draw_shapes(kind: DisorderKind, steps: int, n_sites: int) -> list[tuple[int, int, int]]:
    """The (2, rows, cols) shape of each table of L and R phases a ``kind`` field draws, in drawing order.

    Static phases are constant in time (one row), dynamic phases constant in
    space (one column), fluctuating phases in neither.  A field keeps the sum
    of its draws, which has the first one's shape: combined disorder draws a
    fluctuating and then a static table.  Ordered disorder draws nothing and
    keeps zeros of shape (2, 1, 1).
    """
    return [(2, 1 if part is DisorderKind.STATIC else steps, 1 if part is DisorderKind.DYNAMIC else n_sites)
            for part in _COMPONENTS[DisorderKind(kind)]]


def strength_fields(kind: DisorderKind, phi_dynamic: Optional[float] = None) -> dict[DisorderKind, str]:
    """The strength field ("phi_max" or "phi_dynamic") each component of a ``kind`` field reads.

    Keyed by component, in drawing order.  Every component reads
    ``phi_max``, except that combined disorder's fluctuating phases read
    ``phi_dynamic`` when it is set (not None); ordered disorder reads none.
    Only whether ``phi_dynamic`` is None matters.
    """
    kind = DisorderKind(kind)
    fields = dict.fromkeys(_COMPONENTS[kind], "phi_max")
    if kind is DisorderKind.COMBINED and phi_dynamic is not None:
        fields[DisorderKind.FLUCTUATING] = "phi_dynamic"
    return fields


def seed_independent(kind: DisorderKind, phi_max: Optional[float] = None, phi_dynamic: Optional[float] = None) -> bool:
    """Whether a ``kind`` field draws the same phases from every seed: every strength it reads is 0.

    ``uniform(0, 0)`` draws exact zeros, and ordered disorder reads no strength.
    """
    strengths = {"phi_max": phi_max, "phi_dynamic": phi_dynamic}
    return all(strengths[label] == 0 for label in strength_fields(kind, phi_dynamic).values())


@dataclass
class PhaseField:
    """A realized disorder configuration for one (lattice, steps) geometry: its phase table.

    ``phases[c, r, i]`` is the phase of coin c (L, R) at step r + 1 and site
    (array index) i, in a table of the shape ``draw_shapes`` gives its kind
    (or (2, 1, 1) for ordered disorder), which broadcasts to (2, steps,
    n_sites); any other shape raises ValueError.  The table is read-only.
    """

    kind: DisorderKind
    steps: int
    n_sites: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        want = (draw_shapes(self.kind, self.steps, self.n_sites) or [(2, 1, 1)])[0]
        if np.shape(self.phases) != want:
            raise ValueError(f"a {DisorderKind(self.kind).value} field of {self.steps} steps on {self.n_sites} "
                             f"sites needs phases of shape {want}, got {np.shape(self.phases)}")
        self.phases = np.asarray(self.phases, dtype=np.float64)
        self.phases.setflags(write=False)


def light_cone_rows(steps: int, n_sites: int, starts: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """(first site, sites, stride) of the row that each step of a walk from the array indices ``starts`` reads.

    Row t - 1 belongs to step t (1-based): it covers the light cone of t - 1
    steps (``core.light_cone``), the sites ``core.evolve`` steps.  This is
    the one check that a walk fits its lattice: a cone that leaves it after
    ``steps`` steps raises ValueError.
    """
    lo, hi, _ = light_cone(steps, starts)
    if lo < 0 or hi >= n_sites:
        raise ValueError(f"the light cone of {steps} steps from sites {list(starts)} leaves the lattice")
    first, last, stride = light_cone(np.arange(steps), starts)
    return first, (last - first) // stride + 1, stride


def batch_floats(kind: DisorderKind, steps: int, n_sites: int, starts: Sequence[int]) -> tuple[int, int]:
    """(floats a ``FieldBatch`` on ``starts`` keeps of each ``kind`` field, floats of that field's draws).

    A batch keeps exp(i phi) of a whole table with one row or one column, and
    the phases of both coins on the walk's light-cone cells otherwise.
    """
    drawn = draw_shapes(kind, steps, n_sites)
    _, rows, cols = (drawn or [(2, 1, 1)])[0]
    kept = 4 * rows * cols if 1 in (rows, cols) else 2 * int(light_cone_rows(steps, n_sites, starts)[1].sum())
    return kept, sum(map(math.prod, drawn))


class FieldBatch:
    """Fields of one table shape and geometry, for one batched walk of all of them from the sites ``starts``.

    ``starts``, the array indices the walkers start on (kept as
    ``batch.starts``), fix the cells: step t reads row t - 1 of
    ``light_cone_rows(steps, n_sites, starts)``, which refuses starts whose
    light cone leaves the lattice, and which must be integers (ValueError,
    also for none, before any field is drawn).  ``coin_factors(t)`` returns
    (exp(i phi_L), exp(i phi_R)) on that row, each shaped (configs, 1,
    cells), to broadcast against amplitudes of shape (configs, walkers,
    cells), or, for one field, (cells,).  A table constant in time or in space (ordered, static and
    dynamic disorder) is exponentiated once into one (configs, 2, rows, cols)
    array, read through a view per row; a table that changes in both
    (fluctuating and combined) is packed into one (configs, 2, cells) array
    of the rows alone, and each step exponentiates its row.  ``fields`` may
    be an iterator that draws the fields one at a time (then ``configs``
    gives their number, an integer >= 1 or ValueError before any draw, and
    fewer or more fields raise ValueError): each field's table is stored
    before the next one is drawn and kept no longer.  Every factor is
    elementwise, so a configuration's factors are bit-identical in any batch.
    """

    def __init__(self, fields: Iterable[PhaseField], starts: Sequence[int], configs: Optional[int] = None):
        self.starts = tuple(check_integer("every entry of starts", site) for site in starts)
        if not self.starts:
            raise ValueError("a field batch needs at least one start site")
        configs = check_integer("configs", len(fields) if configs is None else configs, 1)
        fields = iter(fields)
        for i in range(configs):
            field = next(fields, None)
            if field is None:
                raise ValueError(f"a field batch of {configs} configurations got {i} fields")
            if i == 0:
                cells = self._allocate(field, configs)
            elif (field.phases.shape, field.steps, field.n_sites) != (self._shape, self.steps, self.n_sites):
                raise ValueError("a field batch needs one table shape, step count and lattice")
            if cells is None:
                np.exp(1j * field.phases, out=self._store[i])
            else:
                np.take(field.phases.reshape(2, -1), cells, axis=1, out=self._store[i])
            del field  # before the next field is drawn
        if next(fields, None) is not None:
            raise ValueError(f"a field batch of {configs} configurations got more fields")

    def _allocate(self, field: PhaseField, configs: int) -> Optional[np.ndarray]:
        """Allocate for ``configs`` fields like ``field`` and build each row's view of the store; returns, for
        packed phases, each cell's index into a flat (steps, n_sites) table."""
        self.steps, self.n_sites, self._shape = steps, n_sites, shape = field.steps, field.n_sites, field.phases.shape
        first, counts, stride = light_cone_rows(steps, n_sites, self.starts)  # checks the light cone
        self._packed = 1 not in shape[1:]  # constant in neither time nor space, as batch_floats counts
        if not self._packed:
            self._store = np.empty((configs, *shape), dtype=np.complex128)
            factors = np.broadcast_to(self._store, (configs, 2, steps, n_sites))
            self._rows = [factors[:, :, r, None, lo : lo + (count - 1) * stride + 1 : stride]
                          for r, (lo, count) in enumerate(zip(first.tolist(), counts.tolist()))]
            return None
        offset = np.concatenate(([0], np.cumsum(counts)))
        self._store = np.empty((configs, 2, offset[-1]))
        self._rows = [self._store[:, :, None, a:b] for a, b in zip(offset[:-1].tolist(), offset[1:].tolist())]
        # packed cell j of row r holds site first[r] + (j - offset[r]) * stride of step r + 1
        sites = np.repeat(first - offset[:-1] * stride, counts) + np.arange(offset[-1]) * stride
        return np.repeat(np.arange(steps) * n_sites, counts) + sites

    def coin_factors(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Coin factors of every configuration on the cells of step t (1-based)."""
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} outside 1..{self.steps}")
        factors = self._rows[t - 1]
        if self._packed:
            factors = 1j * factors
            np.exp(factors, out=factors)
        return factors[:, 0], factors[:, 1]


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
    phi_dynamic: Optional[float] = None,
    steps: int,
    n_sites: int,
    seed: int = 0,
) -> PhaseField:
    """Draw one disorder realization.

    Each component of the kind reads ``phi_max``, except that combined
    disorder's fluctuating phases read ``phi_dynamic`` when it is set
    (``strength_fields``); a strength read must not be None.  Each component
    draws the L and then the R phases of its ``draw_shapes`` table in one
    call from its own substream of ``seed``, and the field keeps the sum of
    the draws.  Identical (kind, strengths, seed, dimensions) give
    bit-identical tables.  The table indexes sites by array index; where the
    walkers start is the caller's.  ``steps >= 0``, ``n_sites >= 1`` and
    ``seed >= 0`` must pass ``core.check_integer``, and every strength that
    is not None must pass ``check_strength``, read by the kind or not;
    anything else raises ValueError before any draw.
    """
    kind = DisorderKind(kind)
    for label, value, low in (("steps", steps, 0), ("n_sites", n_sites, 1), ("seed", seed, 0)):
        check_integer(label, value, low)
    # checked even where the kind does not read them
    strengths = {label: None if value is None else check_strength(label, value)
                 for label, value in (("phi_max", phi_max), ("phi_dynamic", phi_dynamic))}
    fields = strength_fields(kind, phi_dynamic)
    for label in fields.values():
        if strengths[label] is None:
            raise ValueError(f"{kind.value} disorder needs {label}")

    tables = [_substream(seed, _SUBSTREAMS[part]).uniform(0.0, strengths[label], shape)
              for (part, label), shape in zip(fields.items(), draw_shapes(kind, steps, n_sites))]
    phases = tables[0] if tables else np.zeros((2, 1, 1))
    for table in tables[1:]:
        phases += table  # the static phases onto the fluctuating ones
    return PhaseField(kind, int(steps), int(n_sites), phases)
