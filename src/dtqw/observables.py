"""Scalar observables of the two-walker joint distribution, with ensemble averaging.

Ensemble statistics follow the mean-of-observable convention: each disorder
configuration is evolved and measured on its own, then per-step means and
population standard deviations are taken across configurations.  Averaged
*distributions* (for the density-plot scenarios) are instead handled by
:func:`ensemble_average_joints`, which averages the joint matrices first.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import COIN_NAMES, ScenarioConfig
from .core import WalkerState, delta_state, evolve, lattice_for
from .disorder import PhaseField, sample_phase_field
from .two_particle import (
    ExchangeSymmetry,
    JointDistribution,
    TwoParticleInput,
    aggregate_to_positions,
    joint_mode_distribution,
    marginal_positions,
)


def variance_xm(joint: JointDistribution) -> float:
    """Variance of x_M = x + y under the joint distribution (signed positions)."""
    s = joint.positions.astype(np.float64)
    m = joint.matrix
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


def joint_entropy(joint: JointDistribution) -> float:
    """Joint Shannon entropy -sum P log2 P in bits (0 log 0 := 0)."""
    return _entropy_bits(joint.matrix)


def mutual_information(joint: JointDistribution) -> float:
    """I(X:Y) = 2 H(X) - H(X,Y) in bits; the joint is exchange-symmetric."""
    return 2.0 * _entropy_bits(joint.matrix.sum(axis=1)) - _entropy_bits(joint.matrix)


_OBSERVABLES = {
    "variance": variance_xm,
    "entropy": joint_entropy,
    "mutual_information": mutual_information,
}


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

    def at_step(self, t: int) -> float:
        idx = np.nonzero(self.steps == t)[0]
        if idx.size == 0:
            raise KeyError(f"step {t} not recorded")
        return float(self.mean[idx[0]])


def _field_for(cfg: ScenarioConfig, seed: int, n_sites: int, origin: int) -> PhaseField:
    return sample_phase_field(
        cfg.disorder,
        phi_max=cfg.phi_max,
        phi_static=cfg.phi_static,
        phi_dynamic=cfg.phi_dynamic,
        steps=cfg.steps,
        n_sites=n_sites,
        origin=origin,
        seed=seed,
    )


def _evolve_pair(cfg: ScenarioConfig, seed: int, record: bool) -> tuple:
    """Walkers A and B evolved under the field of ``seed`` (snapshot lists if ``record``)."""
    n_sites, origin = lattice_for(cfg.steps, cfg.start_sites)
    fld = _field_for(cfg, seed, n_sites, origin)
    return tuple(
        evolve(delta_state(n_sites, origin, x, COIN_NAMES[coin]), cfg.steps, fld, record=record)
        for x, coin in (cfg.start_a, cfg.start_b)
    )


def _crop(state: WalkerState, lo: int, hi: int) -> WalkerState:
    return WalkerState(state.amplitudes[lo : hi + 1], state.origin - lo)


def resolved_symmetries(cfg: ScenarioConfig) -> tuple[ExchangeSymmetry, ...]:
    if cfg.symmetry == "both":
        return (ExchangeSymmetry.BOSONIC, ExchangeSymmetry.FERMIONIC)
    return (ExchangeSymmetry(cfg.symmetry),)


def _map_configs(fn: Callable, tasks: list, n_jobs: int) -> list:
    """``fn`` over per-configuration tasks in order, in worker processes if ``n_jobs > 1``."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, tasks))


def _joints_at_step(
    snaps_a: Sequence[WalkerState],
    snaps_b: Sequence[WalkerState],
    t: int,
    cfg: ScenarioConfig,
    syms: Sequence[ExchangeSymmetry],
) -> dict[ExchangeSymmetry, JointDistribution]:
    # Crop to the union light cone; discarded amplitudes are exactly zero.
    state = snaps_a[t]
    lo = max(0, state.origin + min(cfg.start_sites) - t)
    hi = min(state.n_sites - 1, state.origin + max(cfg.start_sites) + t)
    inp = TwoParticleInput(_crop(snaps_a[t], lo, hi), _crop(snaps_b[t], lo, hi))
    out = {}
    for sym in syms:
        # Bound on purpose: inlining this call frees the mode matrix earlier and measured slower.
        joint = joint_mode_distribution(inp, sym)
        out[sym] = aggregate_to_positions(joint)
    return out


def _series_for_config(args) -> np.ndarray:
    cfg, seed, eval_steps = args
    syms = resolved_symmetries(cfg)
    snaps_a, snaps_b = _evolve_pair(cfg, seed, record=True)
    values = np.empty((len(cfg.observables), len(syms), len(eval_steps)))
    for k, t in enumerate(eval_steps):
        joints = _joints_at_step(snaps_a, snaps_b, t, cfg, syms)
        for j, sym in enumerate(syms):
            for i, obs in enumerate(cfg.observables):
                values[i, j, k] = _OBSERVABLES[obs](joints[sym])
    return values


def ensemble_run(
    cfg: ScenarioConfig,
    eval_steps: Optional[Sequence[int]] = None,
    n_jobs: int = 1,
) -> dict[tuple[str, str], ObservableSeries]:
    """Evolve ``cfg.configs`` disorder realizations and fold the observables.

    Configuration i draws its field with seed ``cfg.seed + i``; walkers A and
    B share the field within a configuration.  Returns one series per
    (observable, symmetry), keyed by name.  ``eval_steps`` restricts which
    steps are measured (default 0..steps).  Results are bit-identical for
    serial and parallel execution: per-configuration values are computed
    independently and merged in configuration order.
    """
    cfg.validate()
    if eval_steps is None:
        eval_steps = range(cfg.steps + 1)
    eval_steps = [int(t) for t in eval_steps]
    if any(t < 0 or t > cfg.steps for t in eval_steps):
        raise ValueError("eval_steps must lie in 0..steps")

    tasks = [(cfg, cfg.seed + i, eval_steps) for i in range(cfg.configs)]
    cube = np.stack(_map_configs(_series_for_config, tasks, n_jobs))  # (configs, obs, sym, steps)

    syms = resolved_symmetries(cfg)
    out: dict[tuple[str, str], ObservableSeries] = {}
    for i, obs in enumerate(cfg.observables):
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
                configs=cfg.configs,
            )
    return out


def _joints_for_config(args) -> tuple[np.ndarray, ...]:
    cfg, seed = args
    syms = resolved_symmetries(cfg)
    inp = TwoParticleInput(*_evolve_pair(cfg, seed, record=False))
    matrices = tuple(
        aggregate_to_positions(joint_mode_distribution(inp, sym)).matrix for sym in syms
    )
    return matrices + (marginal_positions(inp),)


def ensemble_average_joints(
    cfg: ScenarioConfig, n_jobs: int = 1
) -> tuple[dict[ExchangeSymmetry, JointDistribution], np.ndarray, np.ndarray]:
    """Configuration-averaged position-level joints at the final step.

    Returns (joints by symmetry, averaged marginal, positions).  Matrices are
    averaged across configurations before any downstream fit, matching how
    the density-plot scenarios aggregate.
    """
    cfg.validate()
    syms = resolved_symmetries(cfg)
    n_sites, origin = lattice_for(cfg.steps, cfg.start_sites)
    positions = np.arange(n_sites) - origin

    tasks = [(cfg, cfg.seed + i) for i in range(cfg.configs)]
    results = _map_configs(_joints_for_config, tasks, n_jobs)

    acc = [np.zeros((n_sites, n_sites)) for _ in syms]
    marg = np.zeros(n_sites)
    for parts in results:
        for j in range(len(syms)):
            acc[j] += parts[j]
        marg += parts[-1]
    joints = {
        sym: JointDistribution(acc[j] / cfg.configs, sym, "position", positions)
        for j, sym in enumerate(syms)
    }
    return joints, marg / cfg.configs, positions
