"""Scalar observables of the two-walker joint distribution, with ensemble averaging.

Ensemble statistics follow the mean-of-observable convention: each disorder
configuration is measured on its own, then per-step means and population
standard deviations are taken across configurations.  Averaged
*distributions* (for the density-plot scenarios) are instead handled by
:func:`ensemble_average_joints`, which averages the joint matrices first.

Both runners evolve the ensemble in contiguous chunks of members, each a
disorder configuration (a seed, and a strength when a sweep runs), each
chunk one batched walk of coin-major amplitudes, shape (configs,
2 walkers, 2, n_sites), in one pair of state buffers, that stops at every
evaluated step to measure the whole chunk at once.  The chunk size follows a
fixed memory budget, and the chunks of a sweep may cut across its values;
no number depends on either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .config import COIN_NAMES, ScenarioConfig
from .core import delta_state, evolve, lattice_for, light_cone
from .disorder import DisorderKind, FieldBatch, PhaseField, light_cone_rows, sample_phase_field
from .two_particle import ORTHOGONALITY_TOL, ExchangeSymmetry, JointBuilder, marginal_positions, placed


def variance_xm(m: np.ndarray, positions: np.ndarray) -> float:
    """Variance of x_M = x + y under the joint matrix ``m``; ``positions`` labels its rows (signed)."""
    s = positions.astype(np.float64)
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    e1 = s @ row + s @ col
    e2 = (s * s) @ (row + col) + 2.0 * (s @ m @ s)
    return float(e2 - e1 * e1)


def classical_baseline(t: int) -> float:
    """Var(x_M) of two independent unbiased classical random walkers: 2t."""
    if t < 0:
        raise ValueError("steps must be >= 0")
    return 2.0 * t


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def joint_entropy(m: np.ndarray) -> float:
    """Joint Shannon entropy -sum P log2 P in bits (0 log 0 := 0)."""
    return _entropy_bits(m)


def mutual_information(m: np.ndarray) -> float:
    """I(X:Y) = 2 H(X) - H(X,Y) in bits; the joint matrix is exchange-symmetric."""
    return 2.0 * _entropy_bits(m.sum(axis=1)) - _entropy_bits(m)


#: Bytes of phase tables, walker states and measurements one chunk of
#: configurations may hold while it evolves as one batch.
_CHUNK_BYTES = 4 << 20

# Each entry takes (joint matrix, signed positions of its rows).  Those in
# _ON_QUARTER get the parity quarter ``JointBuilder.quarters`` returns, whose
# positive cells come in the row-major order of the placed matrix, so they sum
# the same array; the others read row sums, which add in layout order, and get
# the joint placed into the light cone.
_OBSERVABLES = {
    "variance": variance_xm,
    "entropy": lambda m, positions: joint_entropy(m),
    "mutual_information": lambda m, positions: mutual_information(m),
}
_ON_QUARTER = ("entropy",)


@dataclass
class ObservableSeries:
    """Per-step ensemble mean and population spread of one observable."""

    name: str
    steps: np.ndarray
    mean: np.ndarray
    std_dev: np.ndarray
    configs: int

    def __post_init__(self) -> None:
        self.steps = np.asarray(self.steps)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std_dev = np.asarray(self.std_dev, dtype=np.float64)
        if not len(self.steps) == len(self.mean) == len(self.std_dev):
            raise ValueError("steps, mean and std_dev must have equal length")


def _field_for(cfg: ScenarioConfig, seed: int, n_sites: int, origin: int, **swept: float) -> PhaseField:
    """The field ``seed`` draws with ``cfg``'s strengths, those named in ``swept`` set to its values."""
    strengths = {"phi_max": cfg.phi_max, "phi_static": cfg.phi_static, "phi_dynamic": cfg.phi_dynamic, **swept}
    return sample_phase_field(cfg.disorder, **strengths, steps=cfg.steps, n_sites=n_sites, origin=origin, seed=seed)


def _crop(amplitudes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return amplitudes[..., lo : hi + 1]


def _reach(cfg: ScenarioConfig, t: int) -> tuple[int, int, int]:
    """``light_cone`` at step ``t`` of ``cfg``'s starts, in array indices; inside the lattice for t <= steps."""
    _, origin = lattice_for(cfg.steps, cfg.start_sites)
    return light_cone(t, [origin + x for x in cfg.start_sites])


def resolved_symmetries(cfg: ScenarioConfig) -> tuple[ExchangeSymmetry, ...]:
    if cfg.symmetry == "both":
        return (ExchangeSymmetry.BOSONIC, ExchangeSymmetry.FERMIONIC)
    return (ExchangeSymmetry(cfg.symmetry),)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _chunk_tasks(cfg: ScenarioConfig, sweep: Optional[str], members: Sequence[tuple], stops: Sequence[int],
                 measure: Callable, result_floats: int, n_jobs: int) -> list[tuple]:
    """Split the ensemble's (value, seed) ``members`` into contiguous chunks.

    A member's field draws from its seed with ``cfg``'s strengths, the one
    named by ``sweep`` set to its value (None: no sweep).  A chunk holds as
    many members as fit ``_CHUNK_BYTES`` with what ``FieldBatch`` keeps of
    their fields (nothing for ordered disorder, a complex factor per site or
    step and coin for static or dynamic, the light-cone phases of both
    coins for fluctuating and combined), their walker states (one buffer
    pair for the whole walk) and their ``result_floats`` of measurements,
    next to the whole tables of the one field being packed, and no more
    than an even share of ``n_jobs`` workers.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    steps, K = cfg.steps, DisorderKind
    n_sites, origin = lattice_for(steps, cfg.start_sites)
    cone = 2 * int(light_cone_rows(steps, n_sites, [origin + x for x in cfg.start_sites])[1].sum())
    # floats that FieldBatch keeps of each field, and the floats of the one field it is packing
    kept, packing = {K.ORDERED: (0, 0), K.STATIC: (4 * n_sites, 2 * n_sites), K.DYNAMIC: (4 * steps, 2 * steps),
                     K.FLUCTUATING: (cone, 2 * steps * n_sites),
                     K.COMBINED: (cone, 2 * steps * n_sites + 2 * n_sites)}[cfg.disorder]
    # the two state buffers evolve steps in from stop to stop
    per_config = 8 * (kept + 16 * n_sites + result_floats)
    size = max(1, min((_CHUNK_BYTES - 8 * packing) // per_config, -(-len(members) // n_jobs)))
    return [(cfg, sweep, members[first:first + size], stops, measure) for first in range(0, len(members), size)]


def _map_chunks(cfg: ScenarioConfig, sweep: Optional[str], members: Sequence[tuple], stops: Sequence[int],
                measure: Callable, result_floats: int, n_jobs: int) -> Iterator[list[list]]:
    """``_run_chunk`` over the chunks of ``members``, yielded in member order.

    Runs in worker processes if ``n_jobs > 1``, at most one per usable CPU
    and per chunk: with the ``fork`` start method a pool starts all its
    workers on the first submit, used or not.  Chunks are sized by that
    capped count.
    """
    workers = min(n_jobs, _usable_cpus())
    tasks = _chunk_tasks(cfg, sweep, members, stops, measure, result_floats, workers)
    workers = min(workers, len(tasks))
    if workers == 1:
        yield from map(_run_chunk, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # about 20 ms to import, which a serial run does not pay

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_chunk, tasks)


def _run_chunk(task) -> list:
    """Evolve one chunk of members as a (configs, 2 walkers, 2, n_sites) batch.

    Member ``i`` of the chunk, (value, seed), draws its field from its seed
    with the swept strength set to its value (see ``_chunk_tasks``);
    walkers A and B share it.  The fields are drawn one at a time into a
    ``FieldBatch`` that keeps only the light cone of the two start sites,
    so at most one field's whole tables exist at once.  The walk steps in
    one pair of state buffers from stop to stop.  At each of the ascending
    ``stops`` the walkers of every configuration must be orthogonal
    (ValueError otherwise), and the whole chunk is measured once, as
    ``measure(cfg, amplitudes, t)``; returns those results, one per stop.
    """
    cfg, sweep, members, stops, measure = task
    n_sites, origin = lattice_for(cfg.steps, cfg.start_sites)
    field = FieldBatch((_field_for(cfg, seed, n_sites, origin, **({} if sweep is None else {sweep: value}))
                        for value, seed in members), [origin + x for x in cfg.start_sites], len(members))
    pair = np.stack([delta_state(n_sites, origin, x, COIN_NAMES[coin]) for x, coin in (cfg.start_a, cfg.start_b)])
    state = np.array(np.broadcast_to(pair, (len(members), *pair.shape)))
    spare = np.empty_like(state)
    results, t = [], 0
    for stop in stops:
        held = state
        state = evolve(state, stop - t, field, start=t, spare=spare)
        if state is spare:
            spare = held
        t = stop
        overlap = max(abs(np.vdot(a, b)) for a, b in state)
        if overlap > ORTHOGONALITY_TOL:
            raise ValueError(f"walker amplitudes must be orthogonal, |<a|b>| = {overlap:.3e}")
        results.append(measure(cfg, state, t))
    return results


def _measure_series(observables: tuple[str, ...], builder: JointBuilder, cfg: ScenarioConfig, amps: np.ndarray,
                    t: int) -> np.ndarray:
    """Every observable of every symmetry at step ``t``, shape (configs, observables, symmetries).

    ``amps`` is the chunk's (configs, 2 walkers, 2, n_sites) state.  It is
    cropped to the light cone, whose discarded amplitudes are exactly zero,
    and each configuration's joints are built on the cone's parity cells.
    """
    _, origin = lattice_for(cfg.steps, cfg.start_sites)
    lo, hi, stride = _reach(cfg, t)
    positions = np.arange(lo, hi + 1) - origin
    cells, syms = slice(None, None, stride), resolved_symmetries(cfg)
    values, quarters = np.empty((len(amps), len(observables), len(syms))), None
    for out, (a, b) in zip(values, _crop(amps, lo, hi)):
        quarters = builder.quarters(a, b, syms, cells, quarters)
        for j, quarter in enumerate(quarters):
            out[:, j] = _observe(observables, quarter, cells, positions)
    return values


def _observe(observables: tuple[str, ...], quarter: np.ndarray, cells: slice, positions: np.ndarray) -> list:
    """The observables of one joint, given by its quarter on ``cells`` of the sites at ``positions``.

    A placed matrix is made only for observables outside ``_ON_QUARTER``, and
    is dropped on return, before the next symmetry's is made.
    """
    joint = placed(quarter, cells, len(positions)) if set(observables) - set(_ON_QUARTER) else None
    return [_OBSERVABLES[obs](quarter if obs in _ON_QUARTER else joint, positions) for obs in observables]


def _measure_joints(builder: JointBuilder, cells: slice, cfg: ScenarioConfig, amps: np.ndarray, t: int) -> tuple:
    """Each configuration's joints on ``cells`` x ``cells`` and its marginal, over the whole lattice.

    Shapes (configs, symmetries, s, s) and (configs, n_sites), for the
    chunk's (configs, 2 walkers, 2, n_sites) state ``amps``.
    """
    syms = resolved_symmetries(cfg)
    s = len(range(amps.shape[-1])[cells])
    quarters, marginals = np.empty((len(amps), len(syms), s, s)), np.empty((len(amps), amps.shape[-1]))
    for out, marginal, (a, b) in zip(quarters, marginals, amps):
        builder.quarters(a, b, syms, cells, out)
        marginal[:] = marginal_positions(a, b)
    return quarters, marginals


def ensemble_run(
    cfg: ScenarioConfig,
    observables: Sequence[str],
    eval_steps: Optional[Sequence[int]] = None,
    n_jobs: int = 1,
    sweep: Optional[str] = None,
) -> dict[tuple[str, str], ObservableSeries] | list[dict[tuple[str, str], ObservableSeries]]:
    """Evolve ``cfg.configs`` disorder realizations and fold the observables.

    ``observables`` names keys of ``_OBSERVABLES`` ("variance", "entropy",
    "mutual_information").  Configuration i draws its field with seed
    ``cfg.seed + i``; walkers A and B share the field within a
    configuration.  Returns one series per (observable, symmetry), keyed by
    name.  ``eval_steps`` is a nonempty sequence of integer steps in
    0..steps, in any order and with repeats (default: every step); each is
    measured while the walk runs.  A configuration's values do not depend on
    chunking or ``n_jobs``.  They are computed independently and merged in
    configuration order, so serial and parallel results are bit-identical.

    With ``sweep`` naming a strength field ("phi_max", "phi_static" or
    "phi_dynamic"), each value of ``cfg.sweep_values`` in turn sets that
    field for an ensemble of its own, seeded as above, and a list of one
    such dict per value is returned.  All values' configurations run as one
    ensemble whose chunks may cut across values; each value's series equal
    those of its run alone.
    """
    cfg.validate()
    if sweep is not None and (sweep not in ("phi_max", "phi_static", "phi_dynamic") or not cfg.sweep_values):
        raise ValueError(f"sweep must name a strength field and needs nonempty sweep_values, got {sweep!r}")
    observables = tuple(observables)
    if not observables or any(obs not in _OBSERVABLES for obs in observables):
        raise ValueError(f"observables must be a nonempty selection of {tuple(_OBSERVABLES)}, got {observables!r}")
    eval_steps = list(range(cfg.steps + 1) if eval_steps is None else eval_steps)
    if not eval_steps or any(isinstance(t, bool) or not isinstance(t, (int, np.integer)) for t in eval_steps):
        raise ValueError(f"eval_steps must be a nonempty sequence of integers, got {eval_steps!r}")
    eval_steps = [int(t) for t in eval_steps]
    if any(t < 0 or t > cfg.steps for t in eval_steps):
        raise ValueError("eval_steps must lie in 0..steps")

    syms = resolved_symmetries(cfg)
    stops = sorted(set(eval_steps))
    measure = partial(_measure_series, observables, JointBuilder())
    result_floats = len(observables) * len(syms) * len(stops)
    values = cfg.sweep_values if sweep else (None,)
    members = [(value, cfg.seed + i) for value in values for i in range(cfg.configs)]
    chunks = [np.moveaxis(np.array(chunk), 0, -1)
              for chunk in _map_chunks(cfg, sweep, members, stops, measure, result_floats, n_jobs)]
    # (members, obs, sym, steps) in C order; each value's block of
    # configurations is then C-ordered too, so the means over configurations
    # below sum in one order whatever the chunking
    cube = np.ascontiguousarray(np.concatenate(chunks)[..., [stops.index(t) for t in eval_steps]])
    runs = [_fold(cube[first:first + cfg.configs], observables, syms, eval_steps)
            for first in range(0, len(members), cfg.configs)]
    return runs if sweep else runs[0]


def _fold(cube: np.ndarray, observables: tuple[str, ...], syms: tuple, eval_steps: list[int]
          ) -> dict[tuple[str, str], ObservableSeries]:
    """Mean and population spread over the configurations of a (configs, obs, sym, steps) cube."""
    out: dict[tuple[str, str], ObservableSeries] = {}
    for i, obs in enumerate(observables):
        for j, sym in enumerate(syms):
            values = cube[:, i, j, :]
            mean = values.mean(axis=0)
            std = values.std(axis=0)
            # identical per-config values have exactly zero spread; np.mean/std
            # would otherwise leave ~1e-16 summation residue
            identical = values.max(axis=0) == values.min(axis=0)
            mean[identical] = values[0, identical]
            std[identical] = 0.0
            out[(obs, sym.value)] = ObservableSeries(
                name=obs,
                steps=np.asarray(eval_steps),
                mean=mean,
                std_dev=std,
                configs=len(cube),
            )
    return out


def ensemble_average_joints(
    cfg: ScenarioConfig, n_jobs: int = 1
) -> tuple[dict[ExchangeSymmetry, np.ndarray], np.ndarray, np.ndarray]:
    """Configuration-averaged position-level joints at the final step.

    Returns (joint matrices by symmetry, averaged marginal, signed positions
    of their rows).  Matrices are averaged across configurations before any
    downstream fit, matching how the density-plot scenarios aggregate.  Each
    configuration's joints are kept only on the cells that can be nonzero
    (a quarter of them when the walkers start on one parity) and added to
    the running sums in configuration order as its chunk finishes; the sums
    are placed into the whole lattice once, at the end.
    """
    cfg.validate()
    syms = resolved_symmetries(cfg)
    n_sites, origin = lattice_for(cfg.steps, cfg.start_sites)
    lo, _, stride = _reach(cfg, cfg.steps)
    cells = slice(lo % stride, None, stride)
    s = len(range(n_sites)[cells])

    measure = partial(_measure_joints, JointBuilder(), cells)
    members = [(None, cfg.seed + i) for i in range(cfg.configs)]
    acc, marg = np.zeros((len(syms), s, s)), np.zeros(n_sites)
    for ((quarters, marginals),) in _map_chunks(cfg, None, members, [cfg.steps], measure,
                                                len(syms) * s * s + n_sites, n_jobs):
        for config_quarters, marginal in zip(quarters, marginals):
            acc += config_quarters
            marg += marginal
    joints = np.zeros((len(syms), n_sites, n_sites))
    joints[:, cells, cells] = acc
    return ({sym: joints[j] / cfg.configs for j, sym in enumerate(syms)}, marg / cfg.configs,
            np.arange(n_sites) - origin)
