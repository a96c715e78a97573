"""Brute-force path-sum evolution, independent of the step engine.

Amplitudes are rebuilt by summing over every coin-outcome history (2^t
paths), multiplying the per-step coin matrix elements along each path and
advancing the position after each outcome.  The coin phases are read as
data from the field's table.  Exponential cost is the point: no shared code
with :func:`dtqw.core.evolve` or :class:`dtqw.disorder.FieldBatch`, so
agreement is evidence.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .core import COIN_L, COIN_R, INV_SQRT2
from .disorder import PhaseField

#: 2^16 paths keeps a single call under a second.
STEP_CAP = 16


def path_sum_amplitudes(start: int, coin: int, steps: int, field: PhaseField) -> np.ndarray:
    """The (2, n_sites) amplitudes, rows (L, R), after ``steps`` steps from coin ``coin`` at array index ``start``.

    Before each shift, the walker on site i at step t (1-based) takes the
    phases [:, t - 1, i] of ``field.phases`` broadcast to (2, steps,
    n_sites), as the step engine applies them.  Raises ValueError for steps
    beyond STEP_CAP or a light cone that leaves the lattice.
    """
    if not 0 <= steps <= STEP_CAP:
        raise ValueError(f"path sum supports 0..{STEP_CAP} steps, got {steps}")
    if not steps <= start < field.n_sites - steps:
        raise ValueError(f"{steps} steps from site {start} leave the lattice of {field.n_sites} sites")
    phases = np.broadcast_to(field.phases, (2, field.steps, field.n_sites))
    amps = np.zeros((2, field.n_sites), dtype=np.complex128)
    for outcomes in product((COIN_L, COIN_R), repeat=steps):
        i, last, amp = start, coin, complex(1.0)
        for t, out in enumerate(outcomes, start=1):
            amp *= np.exp(1j * phases[out, t - 1, i]) * INV_SQRT2 * (-1.0 if out == last == COIN_R else 1.0)
            i += -1 if out == COIN_L else 1
            last = out
        amps[last, i] += amp
    return amps
