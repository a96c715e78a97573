"""Scalar observables of the two-walker joint distribution, with ensemble averaging.

Ensemble statistics follow the mean-of-observable convention: each disorder
configuration is measured on its own, then per-step means and population
standard deviations are taken across configurations.  Averaged
*distributions* (for the density-plot scenarios) are instead handled by
:func:`ensemble_average_joints`, which averages the joint matrices first.

Both runners evolve the ensemble in contiguous chunks of members, each a
disorder configuration (a config and a seed), each chunk one ``core.evolve``
walk of coin-major amplitudes, shape (configs, 2 walkers, 2, n_sites), that
stops at every evaluated step to measure the whole chunk at once.  The chunk
size follows a fixed memory budget, and the chunks of a strength sweep, one
config per value, may cut across its values; no number depends on either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .config import ScenarioConfig
from .core import COIN_L, COIN_R, check_integer, check_stops, delta_state, evolve, lattice_for, light_cone
from .disorder import FieldBatch, PhaseField, batch_floats, sample_phase_field, seed_independent
from .two_particle import ORTHOGONALITY_TOL, ExchangeSymmetry, JointBuilder, joint_factors


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
    return 2.0 * check_integer("steps", t, 0)


def joint_entropy(p: np.ndarray) -> float:
    """Shannon entropy -sum P log2 P in bits (0 log 0 := 0) of a joint or a marginal."""
    p = p[p > 0.0]
    return float(0.0 - (p * np.log2(p)).sum())  # not -sum: a certain cell gives +0.0, not -0.0


def mutual_information(m: np.ndarray, quarter: Optional[np.ndarray] = None) -> float:
    """I(X:Y) = 2 H(X) - H(X,Y) in bits; the joint matrix is exchange-symmetric.

    H(X,Y) is summed on ``quarter`` when it is given: a block of ``m`` that
    holds every positive cell, in the row-major order of ``m``.
    """
    return 2.0 * joint_entropy(m.sum(axis=1)) - joint_entropy(m if quarter is None else quarter)


#: Bytes of phase tables, walker states and measurements one chunk of
#: configurations may hold while it evolves as one batch.
_CHUNK_BYTES = 4 << 20

# Each entry takes (quarter, joint, signed positions of the joint's rows): the
# parity quarter ``JointBuilder.quarters`` returns and the C-ordered joint of the
# light cone that holds it, like the mode-level reference.  The quarter's positive
# cells come in the joint's row-major order, so entropies summed on it are the
# joint's, bit for bit; row sums read the joint.
_OBSERVABLES = {
    "variance": lambda quarter, joint, positions: variance_xm(joint, positions),
    "entropy": lambda quarter, joint, positions: joint_entropy(quarter),
    "mutual_information": lambda quarter, joint, positions: mutual_information(joint, quarter),
}


@dataclass
class ObservableSeries:
    """Per-step ensemble mean and population spread of one observable."""

    steps: np.ndarray
    mean: np.ndarray
    std_dev: np.ndarray

    def __post_init__(self) -> None:
        self.steps = np.asarray(self.steps)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std_dev = np.asarray(self.std_dev, dtype=np.float64)
        if not len(self.steps) == len(self.mean) == len(self.std_dev):
            raise ValueError("steps, mean and std_dev must have equal length")


def _field_for(cfg: ScenarioConfig, seed: int, n_sites: int) -> PhaseField:
    """The field ``seed`` draws with ``cfg``'s disorder kind and strengths on a lattice of ``n_sites`` sites."""
    return sample_phase_field(cfg.disorder, phi_max=cfg.phi_max, phi_dynamic=cfg.phi_dynamic, steps=cfg.steps,
                              n_sites=n_sites, seed=seed)


def resolved_symmetries(cfg: ScenarioConfig) -> tuple[ExchangeSymmetry, ...]:
    return tuple(ExchangeSymmetry) if cfg.symmetry == "both" else (ExchangeSymmetry(cfg.symmetry),)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _chunk_tasks(members: Sequence[tuple], stops: Sequence[int], measure: Callable, result_floats: int,
                 n_jobs: int) -> list[tuple]:
    """Split the ensemble's (config, seed) ``members`` into contiguous chunks.

    A member's field draws from its seed with its config's strengths; the
    configs differ in nothing else, and the first gives the kind and the
    geometry.  A chunk holds as many members as fit ``_CHUNK_BYTES`` with
    what ``FieldBatch`` keeps of their fields, their walker states (the two
    buffers ``evolve`` walks in) and their ``result_floats`` of
    measurements, next to the tables the one field being packed draws, and
    no more than an even share of ``n_jobs`` workers, which ``_map_chunks``
    has checked.  ``disorder.batch_floats`` gives both counts from the
    shapes of the tables the kind draws.
    """
    cfg = members[0][0]
    n_sites, _ = lattice_for(cfg.steps)
    kept, packing = batch_floats(cfg.disorder, cfg.steps, n_sites)
    per_config = 8 * (kept + 16 * n_sites + result_floats)
    size = max(1, min((_CHUNK_BYTES - 8 * packing) // per_config, -(-len(members) // n_jobs)))
    return [(members[first:first + size], stops, measure) for first in range(0, len(members), size)]


def _map_chunks(members: Sequence[tuple], stops: Sequence[int], measure: Callable, result_floats: int,
                n_jobs: int) -> Iterator[list[list]]:
    """``_run_chunk`` over the chunks of ``members``, yielded in member order.

    Runs in worker processes if ``n_jobs``, an integer >= 1, is above 1, at
    most one per usable CPU and per chunk: with the ``fork`` start method a
    pool starts all its workers on the first submit, used or not.  Chunks
    are sized by that capped count.
    """
    workers = min(check_integer("n_jobs", n_jobs, 1), _usable_cpus())
    tasks = _chunk_tasks(members, stops, measure, result_floats, workers)
    workers = min(workers, len(tasks))
    if workers == 1:
        yield from map(_run_chunk, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # about 20 ms to import, which a serial run does not pay

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_chunk, tasks)


def _run_chunk(task) -> list:
    """Evolve one chunk of members as a (configs, 2 walkers, 2, n_sites) batch.

    Member ``i`` of the chunk, (config, seed), draws its field from its seed
    with its config's strengths (see ``_chunk_tasks``); walkers A and B
    share it.  The fields are drawn one at a time into a ``FieldBatch`` that
    keeps only the walk's light cone, so at most one field's whole tables
    exist at once.  One ``evolve`` walk stops at each of the non-decreasing
    ``stops``: there the walkers of every configuration must be orthogonal
    (ValueError otherwise), and the whole chunk is measured once, as
    ``measure(cfg, amplitudes, t)`` on the walk's read-only view, with the
    members' shared config; returns those results, one per stop.
    """
    members, stops, measure = task
    cfg = members[0][0]
    n_sites, _ = lattice_for(cfg.steps)
    field = FieldBatch((_field_for(member, seed, n_sites) for member, seed in members), len(members))
    # the two walkers enter the two coin modes of the central site, like the two input ports of one beam splitter
    pair = np.stack([delta_state(n_sites, coin) for coin in (COIN_L, COIN_R)])
    results = []
    # evolve keeps the layout of the broadcast start, configuration-innermost, in the buffers it copies it to
    for t, state in zip(stops, evolve(np.broadcast_to(pair, (len(members), *pair.shape)), stops, field)):
        overlap = np.abs(np.einsum("kcx,kcx->k", state[:, 0].conj(), state[:, 1])).max()
        if overlap > ORTHOGONALITY_TOL:
            raise ValueError(f"walker amplitudes must be orthogonal, |<a|b>| = {overlap:.3e}")
        results.append(measure(cfg, state, t))
    return results


def _measure_series(observable: str, builder: JointBuilder, cfg: ScenarioConfig, amps: np.ndarray,
                    t: int) -> np.ndarray:
    """``observable`` of every symmetry at step ``t``, shape (configs, symmetries).

    ``amps`` is the chunk's (configs, 2 walkers, 2, n_sites) state.  It is
    cropped to the light cone, whose discarded amplitudes are exactly zero,
    and the joints are built on the cone's parity cells, for as many
    configurations per ``builder.quarters`` call as fit the scratch that one
    configuration needs at the walk's last step; a group's blocks are that
    scratch, read before the next call.  The observable reads the cone's
    joint, one matrix per group, zeroed once: each quarter overwrites its
    cells, and no other cell is ever written.  It is made after the group's
    quarters and dropped before the next call, as the builder's loops would
    peak next to it.
    """
    n_sites, origin = lattice_for(cfg.steps)
    lo, hi = light_cone(t, n_sites)
    positions = np.arange(lo, hi + 1) - origin
    cells, syms, measure = slice(None, None, 2), resolved_symmetries(cfg), _OBSERVABLES[observable]
    # the builder's scratch holds s x s cells per configuration, s = t + 1 at step t
    group = min(len(amps), max(1, (cfg.steps + 1) ** 2 // (t + 1) ** 2))
    values = np.empty((len(amps), len(syms)))
    for first in range(0, len(amps), group):
        block, joint = amps[first:first + group, ..., lo : hi + 1], None
        quarters = builder.quarters(block[:, 0], block[:, 1], syms, cells)
        joint = np.zeros((len(positions),) * 2)
        for out, config in zip(values[first:], quarters):
            for j, quarter in enumerate(config):
                joint[cells, cells] = quarter
                out[j] = measure(quarter, joint, positions)
    return values


def _measure_joints(cells: slice, cfg: ScenarioConfig, amps: np.ndarray, t: int) -> np.ndarray:
    """(configs, 4, s) ``joint_factors`` of the chunk's state ``amps`` on ``cells``."""
    return joint_factors(amps[:, 0, :, cells], amps[:, 1, :, cells])


def ensemble_run(
    cfgs: Sequence[ScenarioConfig],
    observable: str,
    eval_steps: Optional[Sequence[int]] = None,
    n_jobs: int = 1,
) -> list[dict[ExchangeSymmetry, ObservableSeries]]:
    """Evolve ``cfg.configs`` disorder realizations of each config in ``cfgs`` and fold one observable.

    ``cfgs`` is a nonempty list of configs that differ in nothing but their
    strengths (``phi_max`` and ``phi_dynamic``), such as one config per
    value of a strength sweep; anything else raises ValueError before any
    step.  ``observable`` is one key of ``_OBSERVABLES`` ("variance",
    "entropy", "mutual_information"); anything else, a list of names too,
    raises ValueError before any field is drawn.  Configuration i of a
    config draws its field with its strengths and seed ``cfg.seed + i``;
    walkers A and B share it.  Returns, for each config in order, one series
    per symmetry, keyed by ``ExchangeSymmetry``.  ``eval_steps`` (default:
    every step) are the walk's stops, checked by ``core.check_stops`` before
    any field is drawn; each, a repeat too, is measured while the walk runs.
    ``n_jobs`` must be an integer >= 1.  All configs' configurations run as
    one ensemble whose chunks may cut across configs, and a configuration's
    values do not depend on chunking or ``n_jobs``.  They are computed
    independently and merged in configuration order, so serial and parallel
    results are bit-identical, and each config's series equal those of its
    run alone.  Where every seed draws the same field
    (``disorder.seed_independent``), one configuration is evolved and its
    values stand for all ``cfg.configs``: the series are those of the full
    ensemble, bit for bit, with means equal to the values and spreads
    exactly 0.
    """
    cfgs = [] if isinstance(cfgs, ScenarioConfig) else list(cfgs)
    if not cfgs:
        raise ValueError("ensemble_run needs a nonempty list of configs")
    cfg = cfgs[0]
    if any(replace(other, phi_max=cfg.phi_max, phi_dynamic=cfg.phi_dynamic) != cfg for other in cfgs):
        raise ValueError("the configs of one ensemble may differ only in phi_max and phi_dynamic")
    if not (isinstance(observable, str) and observable in _OBSERVABLES):
        raise ValueError(f"observable must be one of {tuple(_OBSERVABLES)}, got {observable!r}")
    eval_steps = check_stops("eval_steps", range(cfg.steps + 1) if eval_steps is None else eval_steps, cfg.steps)

    syms = resolved_symmetries(cfg)
    measure = partial(_measure_series, observable, JointBuilder())
    result_floats = len(syms) * len(eval_steps)
    # a config whose field every seed draws alike evolves one member, which stands for all its configurations
    counts = [1 if seed_independent(one.disorder, one.phi_max, one.phi_dynamic) else one.configs for one in cfgs]
    members = [(one, one.seed + i) for one, count in zip(cfgs, counts) for i in range(count)]
    chunks = [np.moveaxis(np.array(chunk), 0, -1)
              for chunk in _map_chunks(members, eval_steps, measure, result_floats, n_jobs)]
    # (members, sym, steps) in C order, so each config's block of rows is C-ordered too and the means over
    # configurations below sum in one order whatever the chunking
    rows = np.ascontiguousarray(np.concatenate(chunks))
    return [_fold(block, syms, eval_steps) for block in np.split(rows, np.cumsum(counts)[:-1])]


def _fold(cube: np.ndarray, syms: tuple, eval_steps: list[int]) -> dict[ExchangeSymmetry, ObservableSeries]:
    """Mean and population spread over the configurations of a (configs, sym, steps) cube.

    A seed-independent config's cube holds its one row, whose values are the
    means, with spreads exactly 0.
    """
    out: dict[ExchangeSymmetry, ObservableSeries] = {}
    for j, sym in enumerate(syms):
        values = cube[:, j, :]
        mean, std = values.mean(axis=0), values.std(axis=0)
        # identical per-config values have exactly zero spread; np.mean/std
        # would otherwise leave ~1e-16 summation residue
        identical = values.max(axis=0) == values.min(axis=0)
        mean[identical] = values[0, identical]
        std[identical] = 0.0
        out[sym] = ObservableSeries(np.asarray(eval_steps), mean, std)
    return out


def ensemble_average_joints(cfg: ScenarioConfig, n_jobs: int = 1
                            ) -> tuple[dict[ExchangeSymmetry, np.ndarray], np.ndarray, np.ndarray]:
    """Configuration-averaged position-level joints at the final step.

    Returns (joint matrices by symmetry, averaged marginal, signed positions
    of their rows).  Matrices are averaged across configurations before any
    downstream fit, matching how the density-plot scenarios aggregate.  A
    joint is rank 4 in its ``joint_factors`` p_a, p_b, g_r and g_i, so the
    ensemble sums are two matrix products over the factors of every
    configuration, in member order, on the cells that can be nonzero:
    W = A^T B of the p_a and p_b rows and X = G^T G of the g_r and g_i rows.
    Each map, ((W + W^T) / 2 +/- X) / configs, is exactly symmetric, with
    roundoff below zero set to +0.0.  The marginal, any row sum of either
    map, is the member-order sum of (p_a + p_b) / 2, divided by configs.
    """
    n_sites, origin = lattice_for(cfg.steps)
    cells = slice((origin + cfg.steps) % 2, None, 2)  # the sites x = steps (mod 2)
    s = len(range(n_sites)[cells])
    members = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    # per configuration: its factors (4 s floats) and the coin products they are reduced from (8 s)
    chunks = [result for (result,) in _map_chunks(members, [cfg.steps], partial(_measure_joints, cells), 12 * s,
                                                   n_jobs)]
    # in C order (chunks come out configuration-innermost) einsum and sum add configuration after configuration,
    # whatever the chunking; OpenBLAS products split 400-configuration sums by OPENBLAS_NUM_THREADS
    factors = np.ascontiguousarray(np.concatenate(chunks))
    w, g = np.einsum("ki,kj->ij", factors[:, 0], factors[:, 1]), factors[:, 2:].reshape(-1, s)
    pair, exchange = 0.5 * (w + w.T), np.einsum("ki,kj->ij", g, g)
    sums = {ExchangeSymmetry.BOSONIC: pair + exchange, ExchangeSymmetry.FERMIONIC: pair - exchange}
    joints, marg = {sym: np.zeros((n_sites, n_sites)) for sym in resolved_symmetries(cfg)}, np.zeros(n_sites)
    for sym, joint in joints.items():  # pair >= +0.0, so no cell is -0.0
        joint[cells, cells] = np.maximum(sums[sym] / cfg.configs, 0.0)
    marg[cells] = 0.5 * (factors[:, 0] + factors[:, 1]).sum(axis=0) / cfg.configs
    return joints, marg, np.arange(n_sites) - origin
