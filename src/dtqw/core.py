"""Single-walker states and the coined step unitary on a finite 1-D lattice.

A walker carries a two-level coin; one step applies a (possibly site- and
step-dependent) phased Hadamard coin to the internal state and then shifts
the L component one site left and the R component one site right.  The
lattice is a plain segment: amplitude reaching an edge is an error, never a
wrap or a reflection, so callers must allocate enough sites up front (see
``lattice_for``).  Leading axes of the amplitude array batch independent
walkers (for example configurations x walkers), which all step at once.

Conventions: ``amplitudes[i, 0]`` is the L amplitude at array index ``i``,
``amplitudes[i, 1]`` the R amplitude, and signed position ``x = i - origin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Coin basis indices (L shifts to x-1, R shifts to x+1).
COIN_L = 0
COIN_R = 1


class LatticeOverflowError(RuntimeError):
    """A step would push amplitude past the edge of the allocated lattice."""


@dataclass
class WalkerState:
    """Complex coin-pair amplitudes over the lattice.

    amplitudes: shape (..., n_sites, 2) complex array, columns (L, R); any
        leading axes index independent walkers on the same lattice.
    origin: array index of signed position x = 0.
    """

    amplitudes: np.ndarray
    origin: int

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim < 2 or self.amplitudes.shape[-1] != 2:
            raise ValueError(f"amplitudes must have shape (..., n_sites, 2), got {self.amplitudes.shape}")

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[-2]

    @property
    def positions(self) -> np.ndarray:
        """Signed position of every array index."""
        return np.arange(self.n_sites) - self.origin

    def index_of(self, x: int) -> int:
        i = x + self.origin
        if not 0 <= i < self.n_sites:
            raise IndexError(f"position {x} outside lattice [{-self.origin}, {self.n_sites - 1 - self.origin}]")
        return i


def lattice_for(steps: int, start_sites: Sequence[int] = (0,)) -> tuple[int, int]:
    """Size a lattice so a ``steps``-step light cone from ``start_sites`` never
    touches an edge (one spare site each side).

    Returns (n_sites, origin).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    lo, hi = min(start_sites), max(start_sites)
    n_sites = (hi - lo) + 2 * steps + 3
    origin = steps + 1 - lo
    return n_sites, origin


def delta_state(n_sites: int, origin: int, x: int = 0, coin: int = COIN_L) -> WalkerState:
    """A walker localized at position ``x`` with a definite coin state."""
    if coin not in (COIN_L, COIN_R):
        raise ValueError(f"coin must be {COIN_L} (L) or {COIN_R} (R), got {coin}")
    amps = np.zeros((n_sites, 2), dtype=np.complex128)
    state = WalkerState(amps, origin)
    amps[state.index_of(x), coin] = 1.0
    return state


def _check_edges(amplitudes: np.ndarray) -> None:
    if amplitudes[..., 0, :].any() or amplitudes[..., -1, :].any():
        raise LatticeOverflowError("light cone reached the lattice edge; allocate a larger lattice")


def _shift(coined: np.ndarray) -> np.ndarray:
    out = np.zeros_like(coined)
    out[..., :-1, 0] = coined[..., 1:, 0]
    out[..., 1:, 1] = coined[..., :-1, 1]
    return out


def _phased_step(amplitudes: np.ndarray, e_l: np.ndarray, e_r: np.ndarray) -> np.ndarray:
    """One step with phased Hadamard coins, vectorized over sites and batch axes.

    ``e_l``, ``e_r`` are the coin factors exp(i phi) broadcast against
    ``amplitudes[..., 0]``.
    """
    _check_edges(amplitudes)
    a = amplitudes[..., 0]
    b = amplitudes[..., 1]
    coined = np.empty_like(amplitudes)
    coined[..., 0] = e_l * (a + b) * INV_SQRT2
    coined[..., 1] = e_r * (a - b) * INV_SQRT2
    return _shift(coined)


def evolve(initial: WalkerState, steps: int, field, start: int = 0) -> WalkerState:
    """Evolve steps t = start+1 .. start+steps of the coined step; returns the final state.

    ``field`` is a :class:`dtqw.disorder.FieldBatch` of C configurations:
    its coin factors broadcast against a (C, walkers, n_sites, 2) batch,
    and, for ``FieldBatch([field])``, against one walker of shape
    (n_sites, 2).  Deterministic for a fixed field, and every amplitude is
    bit-identical whatever the size of the batch it evolves in.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    amps = initial.amplitudes.copy()
    for t in range(start + 1, start + steps + 1):
        amps = _phased_step(amps, *field.coin_factors(t))
    return WalkerState(amps, initial.origin)
