"""Brute-force path-sum evolution, independent of the step engine.

Amplitudes are rebuilt by summing over every coin-outcome history (2^t
paths), multiplying the per-step coin matrix elements along each path and
advancing the position after each outcome.  Exponential cost is the point:
no shared code with :func:`dtqw.core.evolve`, so agreement is evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import COIN_L, COIN_R, INV_SQRT2, WalkerState
from .disorder import PhaseField

#: 2^16 paths keeps a single call under a second.
STEP_CAP = 16


@dataclass
class PathSumResult:
    modes: np.ndarray  # flat 2N mode amplitudes, m = 2*site_index + coin
    origin: int
    steps: int
    path_count: int


def path_sum_amplitudes(x0: int, coin0: int, steps: int, field: PhaseField) -> PathSumResult:
    """Mode amplitudes after ``steps`` steps from a delta start at (x0, coin0).

    The coin phases come from ``field.phases_at`` evaluated at the site the
    walker occupies before each shift, exactly as the step engine applies
    them.  Raises ValueError for steps beyond STEP_CAP.
    """
    if not 0 <= steps <= STEP_CAP:
        raise ValueError(f"path sum supports 0..{STEP_CAP} steps, got {steps}")
    amps = np.zeros((field.n_sites, 2), dtype=np.complex128)
    for outcomes in product((COIN_L, COIN_R), repeat=steps):
        x, coin = x0, coin0
        amp = complex(1.0)
        for t, out in enumerate(outcomes, start=1):
            phi_l, phi_r = field.phases_at(x, t)
            if out == COIN_L:
                amp *= np.exp(1j * phi_l) * INV_SQRT2
            else:
                amp *= np.exp(1j * phi_r) * INV_SQRT2 * (1.0 if coin == COIN_L else -1.0)
            x += -1 if out == COIN_L else 1
            coin = out
        amps[x + field.origin, coin] += amp
    return PathSumResult(amps.reshape(-1), field.origin, steps, 2**steps)


def state_to_modes(state: WalkerState) -> np.ndarray:
    """Flatten to 2N mode amplitudes, mode m = 2*site_index + coin."""
    return state.amplitudes.reshape(-1).copy()


def compare(state, result: PathSumResult) -> float:
    """Max absolute amplitude deviation between a state and a path-sum result."""
    if isinstance(state, WalkerState):
        modes = state_to_modes(state)
    else:
        modes = np.asarray(state, dtype=np.complex128)
    if modes.shape != result.modes.shape:
        raise ValueError(f"mode count mismatch: {modes.shape} vs {result.modes.shape}")
    return float(np.max(np.abs(modes - result.modes)))


def position_probabilities(result: PathSumResult) -> np.ndarray:
    """P(x) from a path-sum result, indexed by site (x = index - origin)."""
    pairs = result.modes.reshape(-1, 2)
    return np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2
