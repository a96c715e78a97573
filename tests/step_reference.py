"""Site-major coined step: the reference the coin-major engine is checked against.

The package stores amplitudes coin-major, (..., 2, n_sites), and steps
between two buffers (``dtqw.core.evolve``).  This module keeps the earlier
site-major step over (..., n_sites, 2) arrays: apply the phased coin into a
fresh array, then copy both coin columns shifted into a zeroed one.  Every
amplitude of the two must agree bit for bit once the coin axis is moved.
"""

import numpy as np

from dtqw.core import INV_SQRT2, LatticeOverflowError


def _check_edges(amplitudes: np.ndarray) -> None:
    if amplitudes[..., 0, :].any() or amplitudes[..., -1, :].any():
        raise LatticeOverflowError("light cone reached the lattice edge; allocate a larger lattice")


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


def evolve_site_major(amplitudes: np.ndarray, steps: int, field, start: int = 0) -> np.ndarray:
    """Steps t = start+1 .. start+steps on a (..., n_sites, 2) array under a ``FieldBatch``."""
    amps = np.array(amplitudes, dtype=np.complex128)
    for t in range(start + 1, start + steps + 1):
        amps = _phased_step(amps, *field.coin_factors(t, slice(None)))
    return amps
