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

from .core import COIN_L, COIN_R, INV_SQRT2
from .disorder import PhaseField

#: 2^16 paths keeps a single call under a second.
STEP_CAP = 16


@dataclass
class PathSumResult:
    amplitudes: np.ndarray  # (2, n_sites), rows (L, R), the step engine's layout
    origin: int
    steps: int
    path_count: int


def path_sum_amplitudes(x0: int, coin0: int, steps: int, field: PhaseField) -> PathSumResult:
    """Coin amplitudes after ``steps`` steps from a delta start at (x0, coin0).

    The coin phases come from ``field.phases_at`` evaluated at the site the
    walker occupies before each shift, exactly as the step engine applies
    them.  Raises ValueError for steps beyond STEP_CAP.
    """
    if not 0 <= steps <= STEP_CAP:
        raise ValueError(f"path sum supports 0..{STEP_CAP} steps, got {steps}")
    amps = np.zeros((2, field.n_sites), dtype=np.complex128)
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
        amps[coin, x + field.origin] += amp
    return PathSumResult(amps, field.origin, steps, 2**steps)


def compare(amplitudes: np.ndarray, result: PathSumResult) -> float:
    """Max absolute deviation between (2, n_sites) amplitudes and a path-sum result."""
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.shape != result.amplitudes.shape:
        raise ValueError(f"shape mismatch: {amplitudes.shape} vs {result.amplitudes.shape}")
    return float(np.max(np.abs(amplitudes - result.amplitudes)))


def position_probabilities(result: PathSumResult) -> np.ndarray:
    """P(x) from a path-sum result, indexed by site (x = index - origin)."""
    amps = result.amplitudes
    return np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2
