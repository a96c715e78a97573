"""Site-major coined step: the reference the coin-major engine is checked against.

The package stores amplitudes coin-major, (..., 2, n_sites), and steps
between two buffers (``dtqw.core.evolve``) on the light-cone cells that a
``FieldBatch`` fixes.  This module keeps the earlier site-major step over
(..., n_sites, 2) arrays: apply the phased coin to every site into a fresh
array, then copy both coin columns shifted into a zeroed one.  It reads each
field's phase table as data, exp(i phi) of the whole table row, and shares
no code with ``FieldBatch``.  Every amplitude of the two must agree bit for
bit once the coin axis is moved.
"""

import numpy as np

from dtqw.core import INV_SQRT2


def _check_edges(amplitudes: np.ndarray) -> None:
    if amplitudes[..., 0, :].any() or amplitudes[..., -1, :].any():
        raise ValueError("light cone reached the lattice edge; allocate a larger lattice")


def _shift(coined: np.ndarray) -> np.ndarray:
    out = np.zeros_like(coined)
    out[..., :-1, 0] = coined[..., 1:, 0]
    out[..., 1:, 1] = coined[..., :-1, 1]
    return out


def _phased_step(amplitudes: np.ndarray, e_l: np.ndarray, e_r: np.ndarray) -> np.ndarray:
    """One step with phased Hadamard coins; ``e_l``, ``e_r`` broadcast against ``amplitudes[..., 0]``."""
    _check_edges(amplitudes)
    a = amplitudes[..., 0]
    b = amplitudes[..., 1]
    coined = np.empty_like(amplitudes)
    coined[..., 0] = e_l * (a + b) * INV_SQRT2
    coined[..., 1] = e_r * (a - b) * INV_SQRT2
    return _shift(coined)


def _coin_factors(fields, t: int) -> np.ndarray:
    """(configs, 2, 1, n_sites) exp(i phi) of row t - 1 of each field's whole (2, steps, n_sites) table."""
    return np.stack([np.exp(1j * np.broadcast_to(f.phases, (2, f.steps, f.n_sites))[:, t - 1]) for f in fields])[
        :, :, None]


def evolve_site_major(amplitudes: np.ndarray, steps: int, fields) -> np.ndarray:
    """Steps 1 .. steps on a (..., n_sites, 2) array under one ``PhaseField`` per configuration."""
    amps = np.array(amplitudes, dtype=np.complex128)
    for t in range(1, steps + 1):
        factors = _coin_factors(fields, t)
        amps = _phased_step(amps, factors[:, 0], factors[:, 1])
    return amps
